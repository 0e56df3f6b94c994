"""EM engine: Q function, closed-form jump updates, seeding, and the driver.

One outer iteration is E -> M -> N:

* E: posterior frailty moments given the current parameters;
* M: Breslow-type jump updates for the three baselines, in closed form;
* N: update of the risk functions and the frailty variance -- gradient
  training for neural risk models, Newton steps for linear ones, a bounded
  1-D search on log(theta) when only theta moves.

Convergence is declared on the relative change of the observed-data log
likelihood, which is the quantity each E+M cycle provably does not decrease.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from . import _kernels
from .core import Dataset, ModelState, StepHazard, ZeroRisk, LinearRisk
from .frailty import FrailtyPosterior, posterior
from .likelihood import evaluate_terms, observed_log_likelihood

LOG_THETA_BOUNDS = (math.log(1e-4), math.log(100.0))


class NonFiniteQError(FloatingPointError):
    """A required jump size is zero at an observed event time."""


class EmptyRiskSetError(ZeroDivisionError):
    """A Breslow denominator vanished (impossible for valid data)."""


@dataclass(frozen=True)
class EMConfig:
    max_iterations: int = 200
    tolerance: float = 1e-6
    n_step_epochs_per_iteration: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class QValue:
    q1: float
    q2: float
    q3: float
    q4: float

    @property
    def total(self) -> float:
        return self.q1 + self.q2 + self.q3 + self.q4


def q_function(dataset: Dataset, posteriors: FrailtyPosterior, state: ModelState) -> QValue:
    """Expected complete-data log likelihood, split into its four pieces.

    Event terms carry E[log gamma], survival terms E[gamma]; Q4 collects
    everything involving theta.
    """
    if len(posteriors) != dataset.n:
        raise ValueError("posteriors are not aligned with the dataset")
    terms = evaluate_terms(dataset, state)
    egam = posteriors.mean
    elog = posteriors.log_mean

    def event_part(ev, haz, g):
        mask = ev > 0
        if not np.any(mask):
            return 0.0
        if np.any(haz[mask] <= 0):
            raise NonFiniteQError(
                f"zero jump size at an observed transition-{g + 1} event time"
            )
        return float(np.sum(ev[mask] * (np.log(haz[mask]) + terms.h[mask, g])))

    q1 = (
        float(np.sum(dataset.delta1 * elog))
        + event_part(terms.ev1, terms.haz1, 0)
        - float(np.sum(egam * terms.lam1 * terms.eh[:, 0]))
    )
    q2 = (
        float(np.sum(dataset.delta2 * elog))
        + event_part(terms.ev2, terms.haz2, 1)
        - float(np.sum(egam * terms.lam2 * terms.eh[:, 1]))
    )
    q3 = event_part(terms.ev3, terms.haz3, 2) - float(
        np.sum(egam * terms.lam3 * terms.eh[:, 2])
    )
    q4 = q4_value(math.log(state.theta), egam, elog)
    return QValue(q1=q1, q2=q2, q3=q3, q4=q4)


def q4_value(log_theta: float, egam: np.ndarray, elog: np.ndarray) -> float:
    """Q4 as a function of log(theta) for fixed posterior moments."""
    return float(_kernels.q4(float(len(egam)), log_theta, np.sum(elog), np.sum(egam)))


def maximize_q4_theta(posteriors: FrailtyPosterior) -> float:
    """Bounded 1-D maximization of Q4 over log(theta)."""
    egam = posteriors.mean
    elog = posteriors.log_mean
    res = minimize_scalar(
        lambda xi: -q4_value(xi, egam, elog),
        bounds=LOG_THETA_BOUNDS,
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(math.exp(res.x))


def _transition_inputs(dataset: Dataset, egam: np.ndarray, h: np.ndarray):
    """(event_times, at_risk_times, weights) triples for the three transitions.

    Exposure to transitions 1 and 2 ends at the first event, so both risk
    sets use y1 (a subject past the non-terminal event no longer feeds the
    event-free hazards); the likelihood's survival terms Lambda01(y1),
    Lambda02(y1) make this the exact Q maximizer.  Transition 3 runs on the
    sojourn scale with only post-non-terminal subjects at risk.
    """
    soj = dataset.sojourn
    ev2 = (1.0 - dataset.delta1) * dataset.delta2
    ev3 = dataset.delta1 * dataset.delta2
    in3 = dataset.delta1 == 1
    return (
        (dataset.y1[dataset.delta1 == 1], dataset.y1, egam * np.exp(h[:, 0])),
        (dataset.y2[ev2 == 1], dataset.y1, egam * np.exp(h[:, 1])),
        (soj[ev3 == 1], soj[in3], (egam * np.exp(h[:, 2]))[in3]),
    )


def m_step(dataset: Dataset, posteriors: FrailtyPosterior, state: ModelState):
    """Closed-form jump updates for the three baselines.

    For each observed transition-g event time t the new jump is the event
    count at t over the frailty- and risk-weighted at-risk sum; ties share a
    single jump.  Transition 3 runs on the sojourn scale with only subjects
    past the non-terminal event at risk.
    """
    h = state.risk_values(dataset.x)
    out = []
    for ev_times, risk_times, weights in _transition_inputs(dataset, posteriors.mean, h):
        if len(ev_times) == 0:
            out.append(StepHazard.empty())
            continue
        times, jumps = _kernels.breslow_jumps(ev_times, risk_times, weights)
        if not np.all(np.isfinite(jumps)) or np.any(jumps <= 0):
            raise EmptyRiskSetError("empty weighted risk set at an event time")
        out.append(StepHazard(times, jumps))
    return tuple(out)


def nelson_aalen_seed(dataset: Dataset):
    """Unadjusted Nelson-Aalen estimates per transition (unit frailty, h = 0)."""
    dummy = ModelState(
        StepHazard.empty(), StepHazard.empty(), StepHazard.empty(),
        theta=1.0, risk_model=ZeroRisk(),
    )
    ones = FrailtyPosterior(
        a_tilde=np.ones(dataset.n),
        b_tilde=np.ones(dataset.n),
        mean=np.ones(dataset.n),
        log_mean=np.zeros(dataset.n),
    )
    return m_step(dataset, ones, dummy)


# ---------------------------------------------------------------------------
# Risk-model update strategies for the N-step
# ---------------------------------------------------------------------------


@dataclass
class FixedRiskSpec:
    """Hold the risk functions fixed; optionally still update theta."""

    risk_model: object = field(default_factory=ZeroRisk)
    update_theta: bool = False
    theta_init: float = 1.0

    def initial_theta(self, dataset: Dataset) -> float:
        return self.theta_init

    def initial_risk_model(self, dataset: Dataset, rng):
        return self.risk_model

    def update(self, dataset, posteriors, state, config, iteration):
        theta = maximize_q4_theta(posteriors) if self.update_theta else state.theta
        return self.risk_model, theta


@dataclass
class LinearRiskSpec:
    """h_g(x) = x' beta_g, updated by Newton ascent on Q; theta by 1-D search."""

    newton_steps: int = 4
    ridge: float = 1e-9
    theta_init: Optional[float] = None

    def initial_theta(self, dataset: Dataset) -> float:
        if self.theta_init is not None:
            return self.theta_init
        from .weibull import fit_parametric

        return fit_parametric(dataset).theta

    def initial_risk_model(self, dataset: Dataset, rng):
        return LinearRisk(np.zeros((3, dataset.p)))

    def update(self, dataset, posteriors, state, config, iteration):
        x = dataset.x
        beta = np.array(state.risk_model.beta, dtype=float)
        terms = evaluate_terms(dataset, state)
        lam = (terms.lam1, terms.lam2, terms.lam3)
        evs = (terms.ev1, terms.ev2, terms.ev3)

        def q_part(g, b):
            # beta-dependent piece of Q_g (concave in b)
            with np.errstate(over="ignore"):
                val = np.sum(evs[g] * (x @ b)) - np.sum(
                    posteriors.mean * lam[g] * np.exp(x @ b)
                )
            return val if np.isfinite(val) else -np.inf

        for g in range(3):
            for _ in range(self.newton_steps):
                w = posteriors.mean * lam[g] * np.exp(x @ beta[g])
                grad = x.T @ (evs[g] - w)
                hess = (x * w[:, None]).T @ x + self.ridge * np.eye(dataset.p)
                step = np.linalg.solve(hess, grad)
                # halve until Q_g does not decrease (Newton can overshoot)
                current = q_part(g, beta[g])
                for _ in range(30):
                    if q_part(g, beta[g] + step) >= current:
                        break
                    step *= 0.5
                beta[g] += step
        theta = maximize_q4_theta(posteriors)
        return LinearRisk(beta), theta


@dataclass
class EMResult:
    state: ModelState
    trace: list
    converged: bool
    n_iterations: int
    theta_init: float

    def trace_rows(self):
        """Rows for the iteration-trace CSV: iter, obs_loglik, theta, q1..q4."""
        return [
            (r["iter"], r["obs_loglik"], r["theta"], r["q1"], r["q2"], r["q3"], r["q4"])
            for r in self.trace
        ]


class NonConvergenceWarning(UserWarning):
    pass


def run_em(
    dataset: Dataset,
    risk_spec,
    config: EMConfig = EMConfig(),
    theta_init: Optional[float] = None,
) -> EMResult:
    """Run the E/M/N loop until the observed log likelihood stabilizes.

    `risk_spec` supplies the N-step (see :class:`FixedRiskSpec`,
    :class:`LinearRiskSpec`, and the neural spec in :mod:`neuralscr.neural`).
    """
    rng = np.random.default_rng(config.seed)
    theta0 = float(theta_init if theta_init is not None else risk_spec.initial_theta(dataset))
    lam1, lam2, lam3 = nelson_aalen_seed(dataset)
    state = ModelState(
        lambda01=lam1, lambda02=lam2, lambda03=lam3,
        theta=theta0,
        risk_model=risk_spec.initial_risk_model(dataset, rng),
    )

    trace = []
    prev_ll = None
    converged = False
    iteration = 0
    for iteration in range(1, config.max_iterations + 1):
        post = posterior(dataset, state)
        b1, b2, b3 = m_step(dataset, post, state)
        state = replace(state, lambda01=b1, lambda02=b2, lambda03=b3)
        risk_model, theta = risk_spec.update(dataset, post, state, config, iteration)
        state = replace(state, risk_model=risk_model, theta=theta)

        ll = observed_log_likelihood(dataset, state)
        qv = q_function(dataset, post, state)
        trace.append(
            {
                "iter": iteration,
                "obs_loglik": ll,
                "theta": state.theta,
                "q1": qv.q1,
                "q2": qv.q2,
                "q3": qv.q3,
                "q4": qv.q4,
            }
        )
        if prev_ll is not None:
            if abs(ll - prev_ll) <= config.tolerance * max(1.0, abs(prev_ll)):
                converged = True
                break
        prev_ll = ll

    if not converged and config.max_iterations > 1:
        warnings.warn(
            f"EM did not converge in {config.max_iterations} iterations",
            NonConvergenceWarning,
            stacklevel=2,
        )
    return EMResult(
        state=state,
        trace=trace,
        converged=converged,
        n_iterations=iteration,
        theta_init=theta0,
    )
