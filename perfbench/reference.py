"""Independent reference computations the benchmark checks neuralscr against.

Nothing here calls neuralscr: the joint event-free survival is recomputed
from the fitted parameters with a plain forward pass and a plain step
function, and the bivariate Brier score from the paper's three IPCW regions
with a separately written reverse Kaplan-Meier estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Fitted parameters in plain arrays.

    ``jumps`` holds (jump_times, jump_sizes) for the three transitions.
    ``networks`` holds, per transition, a list of (W, b) layers (relu hidden
    layers, linear output); ``beta`` is the (3, p) matrix of a linear model.
    Exactly one of the two is set.
    """

    theta: float
    jumps: tuple
    networks: tuple = None
    beta: np.ndarray = None


def params_from_json(doc: dict) -> ModelParams:
    """Parameters from a step-baseline model snapshot (``neuralscr fit --out``)."""
    jumps = {int(b["transition"]): (np.asarray(b["jump_times"], dtype=float),
                                    np.asarray(b["jump_sizes"], dtype=float))
             for b in doc["baselines"]}
    risk = doc["risk_model"]
    networks = beta = None
    if risk["kind"] == "neural":
        networks = tuple(
            [(np.asarray(layer["W"], dtype=float), np.asarray(layer["b"], dtype=float))
             for layer in net]
            for net in risk["sub_networks"]
        )
    elif risk["kind"] == "linear":
        beta = np.asarray(risk["coefficients"], dtype=float)
    else:
        raise ValueError(f"no reference for risk model kind {risk['kind']!r}")
    return ModelParams(float(doc["theta"]), (jumps[1], jumps[2], jumps[3]), networks, beta)


def params_from_state(state) -> ModelParams:
    """Parameters from an in-memory fitted state, read through its public attributes."""
    jumps = tuple((np.asarray(hz.jump_times, dtype=float), np.asarray(hz.jump_sizes, dtype=float))
                  for hz in state.baselines)
    risk = state.risk_model
    if hasattr(risk, "networks"):
        networks = tuple(list(zip(net.weights, net.biases)) for net in risk.networks)
        return ModelParams(float(state.theta), jumps, networks=networks)
    return ModelParams(float(state.theta), jumps, beta=np.asarray(risk.beta, dtype=float))


def step_cumulative(jump_times, jump_sizes, t) -> np.ndarray:
    """Right-continuous step function: the sum of the jumps at times <= t."""
    padded = np.concatenate(([0.0], np.cumsum(jump_sizes)))
    return padded[np.searchsorted(jump_times, t, side="right")]


def mlp(layers, x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    for w, b in layers[:-1]:
        a = np.maximum(a @ w.T + b, 0.0)
    w, b = layers[-1]
    return (a @ w.T + b)[:, 0]


def log_risks(params: ModelParams, x) -> np.ndarray:
    """(n, 3) log-risks; a network's output is centred at the zero covariate."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if params.networks is None:
        return x @ params.beta.T
    origin = np.zeros((1, x.shape[1]))
    return np.column_stack([mlp(net, x) - mlp(net, origin)[0] for net in params.networks])


def joint_survival(params: ModelParams, x, times) -> np.ndarray:
    """(n, k) matrix of Pr(T1 > t, T2 > t | x) = (1 + theta A)^(-1/theta),
    A = Lambda01(t) e^h1 + Lambda02(t) e^h2."""
    times = np.asarray(times, dtype=float)
    eh = np.exp(log_risks(params, x))
    lam1 = step_cumulative(*params.jumps[0], times)
    lam2 = step_cumulative(*params.jumps[1], times)
    a = eh[:, :1] * lam1[None, :] + eh[:, 1:2] * lam2[None, :]
    return (1.0 + params.theta * a) ** (-1.0 / params.theta)


@dataclass(frozen=True)
class CensoringKM:
    """Reverse Kaplan-Meier: the censorings (delta2 = 0 at y2) are the events."""

    times: np.ndarray
    survival: np.ndarray

    @classmethod
    def fit(cls, y2, delta2) -> "CensoringKM":
        y2 = np.asarray(y2, dtype=float)
        times, which = np.unique(y2, return_inverse=True)
        censored = np.bincount(which, weights=1.0 - np.asarray(delta2, dtype=float),
                               minlength=len(times))
        leaving = np.bincount(which, minlength=len(times))
        at_risk = len(y2) - np.concatenate(([0], np.cumsum(leaving)[:-1]))
        return cls(times, np.cumprod(1.0 - censored / at_risk))

    def __call__(self, t, left: bool = False) -> np.ndarray:
        """G(t), or the left limit G(t-) with left=True."""
        padded = np.concatenate(([1.0], self.survival))
        return padded[np.searchsorted(self.times, t, side="left" if left else "right")]


def bbs_curve(y1, delta1, y2, delta2, predictions, grid, g: CensoringKM) -> np.ndarray:
    """Bivariate Brier score at each grid time; ``predictions`` is (n, k).

    Region 1: non-terminal event observed by t, weight 1/G(Y1-), loss pi^2.
    Region 2: terminal event observed first and by t, weight 1/G(Y2-), loss pi^2.
    Region 3: event-free beyond t, weight 1/G(t), loss (1 - pi)^2.
    """
    y1, d1, y2, d2 = (np.asarray(v, dtype=float)[:, None] for v in (y1, delta1, y2, delta2))
    grid = np.asarray(grid, dtype=float)
    pi = np.asarray(predictions, dtype=float)
    region1 = (y1 <= grid) & (d1 == 1)
    region2 = (y2 <= grid) & (d1 == 0) & (d2 == 1)
    region3 = y1 > grid
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = (np.where(region1, pi**2 / g(y1, left=True), 0.0)
                + np.where(region2, pi**2 / g(y2, left=True), 0.0)
                + np.where(region3, (1.0 - pi) ** 2 / g(grid)[None, :], 0.0))
    return loss.mean(axis=0)


def integrated(values, grid) -> float:
    """Time-averaged trapezoid of a score curve over its grid."""
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if len(grid) == 1:
        return float(values[0])
    area = np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(grid))
    return float(area / (grid[-1] - grid[0]))


def prediction_problems(pi, label: str) -> list[str]:
    """Properties every prediction grid must have: values in [0, 1] and
    non-increasing in t for every subject."""
    problems = []
    if not np.all(np.isfinite(pi)) or np.any(pi < 0.0) or np.any(pi > 1.0):
        problems.append(f"{label}: predictions outside [0, 1]")
    if pi.shape[1] > 1 and np.any(np.diff(pi, axis=1) > 0.0):
        problems.append(f"{label}: predictions increase in t")
    return problems


def close(a, b, rtol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= rtol * np.maximum(1.0, np.abs(b))))
