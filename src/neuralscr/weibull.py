"""Parametric comparator: Weibull baselines with linear log-risk functions.

Maximizes the observed-data (frailty-integrated) log likelihood directly by
quasi-Newton ascent on an unconstrained parameterization (log Weibull
parameters, raw coefficients, log theta), restarted from jittered seeds.
The one module that needs scipy, which the ``parametric`` extra installs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import LOG_THETA_BOUNDS, Dataset, LinearRisk, ModelState, WeibullHazard
from .likelihood import joint_event_free_survival

LOG_PARAM_BOUND = 20.0
BETA_BOUND = 50.0


class MissingExtraError(ImportError):
    """scipy, which only the Weibull fit needs, is not installed."""


class OptimizerFailureError(RuntimeError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass
class ParametricModel:
    """Fitted Weibull illness-death model with linear log-risks."""

    phi: np.ndarray    # (3, 2): rows are transitions, columns (phi1, phi2)
    beta: np.ndarray   # (3, p)
    theta: float
    loglik: float = float("nan")

    def to_state(self) -> ModelState:
        return ModelState(
            lambda01=WeibullHazard(*self.phi[0]),
            lambda02=WeibullHazard(*self.phi[1]),
            lambda03=WeibullHazard(*self.phi[2]),
            theta=self.theta,
            risk_model=LinearRisk(self.beta),
        )

    def h_values(self, x) -> np.ndarray:
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.beta.T


def _unpack(params: np.ndarray, p: int):
    log_phi = params[:6].reshape(3, 2)
    beta = params[6:6 + 3 * p].reshape(3, p)
    log_theta = params[-1]
    return log_phi, beta, log_theta


def _pack(log_phi, beta, log_theta) -> np.ndarray:
    return np.concatenate([np.ravel(log_phi), np.ravel(beta), [log_theta]])


@dataclass(frozen=True)
class _Invariants:
    """The parts of the objective that no parameter moves, per transition g:
    the at-risk mask with positive exposure, its exposure-time logs (0 off
    the mask), the event mask, the event-time logs, the event count and the
    event rows' covariate sums."""

    on: np.ndarray             # (3, n) bool
    log_exposure: np.ndarray   # (3, n)
    event: tuple               # 3 x (n,) bool
    log_event_time: tuple      # 3 x (events,)
    n_events: tuple            # 3 x int
    event_x_sum: tuple         # 3 x (p,)


def _invariants(dataset: Dataset) -> _Invariants:
    tr = dataset.transitions
    on = tr.at_risk & (tr.exposure > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_exposure = np.where(on, np.log(np.maximum(tr.exposure, 1e-300)), 0.0)
    event = tuple(ev > 0 for ev in tr.event)
    return _Invariants(
        on=on,
        log_exposure=log_exposure,
        event=event,
        log_event_time=tuple(np.log(t[m]) for t, m in zip(tr.event_time, event)),
        n_events=tuple(int(np.sum(m)) for m in event),
        event_x_sum=tuple(dataset.x[m].sum(axis=0) for m in event),
    )


def _loglik_and_grad(params: np.ndarray, dataset: Dataset, inv: _Invariants = None):
    """Observed log likelihood and its gradient in the packed coordinates.

    `inv`, the dataset's `_invariants`, is computed here when not given.
    """
    if inv is None:
        inv = _invariants(dataset)
    p = dataset.p
    log_phi, beta, log_theta = _unpack(params, p)
    phi = np.exp(log_phi)
    theta = math.exp(log_theta)
    inv_t = 1.0 / theta

    h = dataset.x @ beta.T if p else np.zeros((dataset.n, 3))
    eh = np.exp(h)

    lam = np.array([inv.on[g] * phi[g, 0] * np.exp(phi[g, 1] * inv.log_exposure[g])
                    for g in range(3)])  # (3, n)

    shapes, psi_shapes, log_rising = _kernels.gamma_shapes(inv_t)
    count = dataset.event_count
    a_tilde = shapes[count]
    b_tilde = inv_t + sum(lam[g] * eh[:, g] for g in range(3))

    ll = np.sum(log_rising[count]) - dataset.n * inv_t * log_theta
    ll -= float(np.sum(a_tilde * np.log(b_tilde)))
    for g in range(3):
        ll += float(
            np.sum(
                log_phi[g, 0] + log_phi[g, 1]
                + (phi[g, 1] - 1.0) * inv.log_event_time[g]
                + h[inv.event[g], g]
            )
        )

    grad = np.zeros_like(params)
    ab = a_tilde / b_tilde
    for g in range(3):
        w = ab * lam[g] * eh[:, g]
        # d/d log phi_{g1}
        grad[2 * g] = float(inv.n_events[g] - np.sum(w))
        # d/d log phi_{g2}
        ev_part = float(np.sum(1.0 + phi[g, 1] * inv.log_event_time[g]))
        grad[2 * g + 1] = ev_part - float(np.sum(w * phi[g, 1] * inv.log_exposure[g]))
        if p:
            grad[6 + g * p: 6 + (g + 1) * p] = inv.event_x_sum[g] - dataset.x.T @ w

    dll_dtheta_part = (
        -psi_shapes[count]
        + psi_shapes[0]
        + log_theta
        - 1.0
        + np.log(b_tilde)
        + ab
    )
    grad[-1] = float(np.sum(dll_dtheta_part) * inv_t)
    return float(ll), grad


def _initial_params(dataset: Dataset) -> np.ndarray:
    """Per-transition exponential fits for phi, zero coefficients, theta = 1."""
    tr = dataset.transitions
    events = tr.event.sum(axis=1)
    exposure = [np.sum(t[on]) for t, on in zip(tr.exposure, tr.at_risk)]
    log_phi = np.zeros((3, 2))
    for g in range(3):
        rate = events[g] / exposure[g] if events[g] > 0 and exposure[g] > 0 else 1e-4
        log_phi[g, 0] = math.log(rate)
        log_phi[g, 1] = 0.0  # shape 1: exponential
    return _pack(log_phi, np.zeros((3, dataset.p)), 0.0)


def fit_parametric(dataset: Dataset, restarts: int = 3, seed: int = 0) -> ParametricModel:
    """Direct maximization of the observed-data likelihood.

    Quasi-Newton (L-BFGS-B with analytic gradients, then a BFGS polish) from
    the exponential-fit start plus jittered restarts; the best optimum wins.
    """
    # the package's one use of scipy, imported here, so that a process that
    # fits no Weibull model never loads it
    try:
        from scipy.optimize import minimize
    except ImportError as err:
        raise MissingExtraError(
            "the parametric (Weibull) fit needs scipy; "
            "install it with: pip install 'neuralscr[parametric]'"
        ) from err

    p = dataset.p
    x0 = _initial_params(dataset)
    rng = np.random.default_rng(seed)

    bounds = (
        [(-LOG_PARAM_BOUND, LOG_PARAM_BOUND)] * 6
        + [(-BETA_BOUND, BETA_BOUND)] * (3 * p)
        + [LOG_THETA_BOUNDS]
    )

    inv = _invariants(dataset)

    def objective(params):
        with np.errstate(over="ignore", invalid="ignore"):
            ll, grad = _loglik_and_grad(params, dataset, inv)
        if not np.isfinite(ll) or not np.all(np.isfinite(grad)):
            return 1e12, np.zeros_like(params)
        return -ll, -grad

    best = None
    trace = []
    for r in range(max(1, restarts)):
        start = x0 if r == 0 else x0 + rng.normal(0.0, 0.2, size=x0.shape)
        res = minimize(
            objective, start, jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-9},
        )
        polish = minimize(
            objective, res.x, jac=True, method="BFGS",
            options={"maxiter": 500, "gtol": 1e-7},
        )
        cand = polish if polish.fun <= res.fun else res
        trace.append((r, float(cand.fun), cand.message))
        if best is None or cand.fun < best.fun:
            best = cand
    if best is None or not np.isfinite(best.fun):
        raise OptimizerFailureError("parametric fit failed", trace)

    log_phi, beta, log_theta = _unpack(best.x, p)
    return ParametricModel(
        phi=np.exp(log_phi),
        beta=beta,
        theta=float(math.exp(log_theta)),
        loglik=float(-best.fun),
    )


def predict_parametric(model: ParametricModel, x, t):
    """pi(t) = (1 + theta [phi11 t^phi12 e^{x'b1} + phi21 t^phi22 e^{x'b2}])^(-1/theta)."""
    return joint_event_free_survival(x, t, model.to_state())
