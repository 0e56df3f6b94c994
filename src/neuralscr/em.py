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
from .core import Dataset, LinearRisk, ModelState, NonFiniteLikelihoodError, StepHazard, ZeroRisk
from .frailty import FrailtyPosterior, e_step, posterior  # noqa: F401 (posterior re-exported)
from .likelihood import SubjectTerms, evaluate_grid_terms, evaluate_terms, marginal_log_likelihood

LOG_THETA_BOUNDS = (math.log(1e-4), math.log(100.0))

# Q's event terms go through the likelihood's one zero-jump check
NonFiniteQError = NonFiniteLikelihoodError


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
        if self.n_step_epochs_per_iteration < 1:
            raise ValueError("n_step_epochs_per_iteration must be >= 1")


@dataclass(frozen=True)
class QValue:
    q1: float
    q2: float
    q3: float
    q4: float

    @property
    def total(self) -> float:
        return self.q1 + self.q2 + self.q3 + self.q4


def expected_log_likelihood(dataset: Dataset, terms: SubjectTerms,
                            posteriors: FrailtyPosterior, theta: float) -> QValue:
    """Expected complete-data log likelihood, split into its four pieces.

    Event terms carry E[log gamma], survival terms E[gamma]; Q4 collects
    everything involving theta.
    """
    if len(posteriors) != dataset.n:
        raise ValueError("posteriors are not aligned with the dataset")
    egam = posteriors.mean
    elog = posteriors.log_mean
    events = np.sum(terms.event_terms, axis=1)
    survival = np.sum(egam * terms.lam * terms.eh.T, axis=1)
    q1 = float(np.sum(dataset.delta1 * elog) + events[0] - survival[0])
    q2 = float(np.sum(dataset.delta2 * elog) + events[1] - survival[1])
    q3 = float(events[2] - survival[2])
    q4 = q4_value(math.log(theta), egam, elog)
    return QValue(q1=q1, q2=q2, q3=q3, q4=q4)


def q_function(dataset: Dataset, posteriors: FrailtyPosterior, state: ModelState) -> QValue:
    """:func:`expected_log_likelihood` at the terms of `state`."""
    return expected_log_likelihood(dataset, evaluate_terms(dataset, state), posteriors,
                                   state.theta)


def q4_value(log_theta: float, egam: np.ndarray, elog: np.ndarray) -> float:
    """Q4 as a function of log(theta) for fixed posterior moments."""
    return float(_kernels.q4(float(len(egam)), log_theta, np.sum(elog), np.sum(egam)))


def maximize_q4_theta(posteriors: FrailtyPosterior) -> float:
    """Bounded 1-D maximization of Q4 over log(theta)."""
    nf = float(len(posteriors.mean))
    sum_elog = np.sum(posteriors.log_mean)
    sum_egam = np.sum(posteriors.mean)
    res = minimize_scalar(
        lambda xi: -float(_kernels.q4(nf, xi, sum_elog, sum_egam)),
        bounds=LOG_THETA_BOUNDS,
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(math.exp(res.x))


def breslow_baselines(dataset: Dataset, weights: np.ndarray):
    """Closed-form jump updates for the three baselines.

    `weights` (n, 3) holds each subject's E[gamma] e^{h_g}.  For each observed
    transition-g event time t the new jump is the event count at t over the
    weighted sum of the transition's risk set at t; ties share a single jump.
    The event times and risk sets come sorted from ``Dataset.event_grids``.
    """
    out = []
    for g, grid in enumerate(dataset.event_grids):
        if len(grid.times) == 0:
            out.append(StepHazard.empty())
            continue
        jumps = grid.breslow(weights[:, g])
        if not np.all(np.isfinite(jumps)) or np.any(jumps <= 0):
            raise EmptyRiskSetError("empty weighted risk set at an event time")
        out.append(StepHazard(grid.times, jumps))
    return tuple(out)


def m_step(dataset: Dataset, posteriors: FrailtyPosterior, state: ModelState):
    """:func:`breslow_baselines` with the risk values of `state`."""
    return breslow_baselines(dataset, posteriors.mean[:, None] * evaluate_terms(dataset, state).eh)


def nelson_aalen_seed(dataset: Dataset):
    """Unadjusted Nelson-Aalen estimates per transition (unit frailty, h = 0)."""
    return breslow_baselines(dataset, np.ones((dataset.n, 3)))


def parametric_theta_seed(dataset: Dataset) -> float:
    """theta of a one-start Weibull fit, the EM seed of the linear and neural
    specs.  Jittered restarts move that optimum by rounding only, so they are
    left to the ``parametric`` model kind."""
    # looked up at call time, so a wrapper put on weibull.fit_parametric sees it
    from .weibull import fit_parametric

    return fit_parametric(dataset, restarts=1).theta


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

    def update(self, dataset, terms, posteriors, state, config, iteration):
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
        return parametric_theta_seed(dataset)

    def initial_risk_model(self, dataset: Dataset, rng):
        return LinearRisk(np.zeros((3, dataset.p)))

    def update(self, dataset, terms, posteriors, state, config, iteration):
        x = dataset.x
        beta = np.array(state.risk_model.beta, dtype=float)
        ridge = self.ridge * np.eye(dataset.p)
        for g in range(3):
            ev = dataset.transitions.event[g]
            scale = posteriors.mean * terms.lam[g]

            def q_part(b):
                # beta-dependent piece of Q_g (concave in b), and e^{x'b}
                xb = x @ b
                with np.errstate(over="ignore"):
                    eb = np.exp(xb)
                    val = np.sum(ev * xb) - np.sum(scale * eb)
                return (val if np.isfinite(val) else -np.inf), eb

            current, eb = q_part(beta[g])
            for _ in range(self.newton_steps):
                w = scale * eb
                grad = x.T @ (ev - w)
                hess = (x * w[:, None]).T @ x + ridge
                step = np.linalg.solve(hess, grad)
                # halve until Q_g does not decrease (Newton can overshoot);
                # the accepted trial is evaluated at the next iterate
                for _ in range(30):
                    trial = q_part(beta[g] + step)
                    if trial[0] >= current:
                        break
                    step *= 0.5
                else:
                    trial = q_part(beta[g] + step)
                beta[g] += step
                current, eb = trial
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
    # the baselines change only in the M-step and h only in the N-step, so
    # each is looked up once per iteration and every step reads these terms
    terms = evaluate_grid_terms(dataset, state)
    for iteration in range(1, config.max_iterations + 1):
        post = e_step(dataset, terms, state.theta)
        b1, b2, b3 = breslow_baselines(dataset, post.mean[:, None] * terms.eh)
        state = replace(state, lambda01=b1, lambda02=b2, lambda03=b3)
        terms = terms.with_baselines(dataset, state)
        risk_model, theta = risk_spec.update(dataset, terms, post, state, config, iteration)
        state = replace(state, risk_model=risk_model, theta=theta)
        terms = terms.with_risk(dataset, state)

        ll = marginal_log_likelihood(dataset, terms, state.theta)
        qv = expected_log_likelihood(dataset, terms, post, state.theta)
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
