"""EM engine: Q function, closed-form jump updates, seeding, and the driver.

One pass is E -> M -> N:

* E: posterior frailty moments given the current parameters;
* M: Breslow-type jump updates for the three baselines, in closed form;
* N: update of the risk functions and the frailty variance -- gradient
  training for neural risk models, Newton steps for linear ones, a bounded
  1-D search on log(theta) when only theta moves.

Linear-risk fits are accelerated with SQUAREM (scheme S3 of Varadhan &
Roland 2008, Scand. J. Stat. 35:335): each cycle runs two plain passes,
extrapolates along the two steps they took, and runs one stabilising pass
from the extrapolated point, which it keeps only if the observed log
likelihood does not fall.  Other fits run one plain pass per cycle.

Convergence is declared on the relative change of the observed-data log
likelihood between the ends of consecutive cycles; each E+M pass provably
does not decrease it, and the safeguard keeps an accelerated cycle from
decreasing it either.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _kernels
from .core import (
    LOG_THETA_BOUNDS,
    Dataset,
    LinearRisk,
    ModelState,
    NonFiniteLikelihoodError,
    StepHazard,
    ZeroRisk,
)
from .frailty import FrailtyPosterior, e_step, posterior  # noqa: F401 (posterior re-exported)
from .likelihood import SubjectTerms, evaluate_grid_terms, evaluate_terms, marginal_log_likelihood

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


def bounded_minimum(func, lo: float, hi: float, xatol: float, maxfun: int = 500) -> float:
    """A minimiser of func on [lo, hi] by Brent's bounded search (Brent 1973,
    Algorithms for Minimization without Derivatives, ch. 5): parabolic steps
    where they stay safely inside the bracket, golden-section steps
    otherwise, until the bracket is within xatol (plus a relative part) of
    the best point or `maxfun` evaluations have run.

    This is scipy's ``minimize_scalar(method="bounded")`` step for step, so
    it returns the same float.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    # xf is the best point so far, nfc the second best and fulc the previous
    # value of nfc
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # the parabola through the three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf


def maximize_q4_theta(posteriors: FrailtyPosterior) -> float:
    """Bounded 1-D maximization of Q4 over log(theta)."""
    nf = float(len(posteriors.mean))
    sum_elog = np.sum(posteriors.log_mean)
    sum_egam = np.sum(posteriors.mean)
    xi = bounded_minimum(lambda xi: -float(_kernels.q4(nf, xi, sum_elog, sum_egam)),
                         *LOG_THETA_BOUNDS, xatol=1e-10)
    return float(math.exp(xi))


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
    """h_g(x) = x' beta_g, updated by Newton ascent on Q; theta by 1-D search.

    theta starts at `theta_init`, else at 1.0, as in :class:`FixedRiskSpec`:
    SQUAREM makes the fit insensitive to the start, so it is not worth a
    parametric fit.  Each transition takes at most `newton_steps` Newton
    steps, and stops early once the Newton decrement grad' step is below
    rounding (1e-12 of |Q_g|) or the direction is not an ascent one.
    """

    newton_steps: int = 4
    ridge: float = 1e-9
    theta_init: Optional[float] = None

    def initial_theta(self, dataset: Dataset) -> float:
        return 1.0 if self.theta_init is None else self.theta_init

    def initial_risk_model(self, dataset: Dataset, rng):
        return LinearRisk(np.zeros((3, dataset.p)))

    @staticmethod
    def risk_coordinates(risk_model: LinearRisk):
        """beta as a flat vector, and the map from such a vector back to a
        risk model.  :func:`run_em` accelerates the fit of a spec with this
        hook."""
        shape = risk_model.beta.shape
        return risk_model.beta.ravel(), lambda vec: LinearRisk(vec.reshape(shape))

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
                # the decrement bounds the ascent left (Boyd & Vandenberghe
                # 2004, sec. 9.5); below rounding, or with no ascent, stop
                if grad @ step <= 1e-12 * max(1.0, abs(current)):
                    break
                # halve until Q_g does not decrease (Newton can overshoot);
                # the accepted trial is evaluated at the next iterate
                for _ in range(30):
                    trial = q_part(beta[g] + step)
                    if trial[0] >= current:
                        break
                    step *= 0.5
                else:
                    break  # no halved step ascends: keep beta_g
                beta[g] += step
                current, eb = trial
        theta = maximize_q4_theta(posteriors)
        return LinearRisk(beta), theta


@dataclass
class EMResult:
    """A finished fit.  trace: one row per kept pass, whose ``iter`` is the
    pass number; n_iterations: every pass run, a rejected extrapolation's
    included; stop_reason: ``"tolerance"`` or ``"cap"`` (max_iterations)."""

    state: ModelState
    trace: list
    stop_reason: str
    n_iterations: int
    theta_init: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"

    def trace_rows(self):
        """Rows for the iteration-trace CSV: iter, obs_loglik, theta, q1..q4."""
        return [
            (r["iter"], r["obs_loglik"], r["theta"], r["q1"], r["q2"], r["q3"], r["q4"])
            for r in self.trace
        ]


class NonConvergenceWarning(UserWarning):
    pass


@dataclass(frozen=True)
class _Point:
    """A parameter state with its terms at the data; after a pass also the
    pass's E-step posterior and the observed log likelihood at `state`."""

    state: ModelState
    terms: SubjectTerms
    post: Optional[FrailtyPosterior] = None
    loglik: float = math.nan


def _em_pass(dataset, risk_spec, config, start: _Point, iteration: int) -> _Point:
    """One E -> M -> N pass.  The baselines change only in the M-step and h
    only in the N-step, so each is looked up once and every step reads
    these terms."""
    state, terms = start.state, start.terms
    post = e_step(dataset, terms, state.theta)
    b1, b2, b3 = breslow_baselines(dataset, post.mean[:, None] * terms.eh)
    state = replace(state, lambda01=b1, lambda02=b2, lambda03=b3)
    terms = terms.with_baselines(dataset, state)
    risk_model, theta = risk_spec.update(dataset, terms, post, state, config, iteration)
    state = replace(state, risk_model=risk_model, theta=theta)
    terms = terms.with_risk(dataset, state)
    return _Point(state, terms, post, marginal_log_likelihood(dataset, terms, state.theta))


def _coordinates(point: _Point, risk_coordinates) -> np.ndarray:
    """SQUAREM's parameter vector: the log jump sizes, the risk model's
    coordinates and log theta."""
    state = point.state
    return np.concatenate([np.log(b.jump_sizes) for b in state.baselines]
                          + [risk_coordinates(state.risk_model)[0], [math.log(state.theta)]])


def _state_at(dataset: Dataset, coords: np.ndarray, unpack) -> ModelState:
    """The state at SQUAREM coordinates: step baselines on the event grids,
    log theta clipped to LOG_THETA_BOUNDS."""
    grids = dataset.event_grids
    cuts = np.cumsum([len(grid.times) for grid in grids])
    log_jumps = np.split(coords[:cuts[-1]], cuts[:-1])
    lo, hi = LOG_THETA_BOUNDS
    return ModelState(
        *(StepHazard(grid.times, np.exp(lj)) for grid, lj in zip(grids, log_jumps)),
        theta=math.exp(min(max(float(coords[-1]), lo), hi)),
        risk_model=unpack(coords[cuts[-1]:-1]),
    )


def run_em(
    dataset: Dataset,
    risk_spec,
    config: EMConfig = EMConfig(),
    theta_init: Optional[float] = None,
) -> EMResult:
    """Run E/M/N cycles until the observed log likelihood stabilizes.

    `risk_spec` supplies the N-step (see :class:`FixedRiskSpec`,
    :class:`LinearRiskSpec`, and the neural spec in :mod:`neuralscr.neural`).
    A spec with a ``risk_coordinates`` hook (the linear one) is accelerated
    by SQUAREM, scheme S3: from x0 a cycle runs x1 = F(x0), x2 = F(x1), sets
    r = x1 - x0, v = x2 - x1 - r and alpha = min(-|r|/|v|, -1), and runs a
    stabilising pass from x0 - 2 alpha r + alpha^2 v.  It keeps that pass
    if its observed log likelihood is at least x2's and finite, and
    otherwise halves alpha, to no less than -1, and tries again; at
    alpha = -1 the cycle ends at x2.  Every other spec runs one pass per
    cycle.  ``config.max_iterations`` caps the passes, rejected ones
    included; the tolerance applies between the ends of consecutive cycles.
    """
    rng = np.random.default_rng(config.seed)
    theta0 = float(theta_init if theta_init is not None else risk_spec.initial_theta(dataset))
    lam1, lam2, lam3 = nelson_aalen_seed(dataset)
    state = ModelState(
        lambda01=lam1, lambda02=lam2, lambda03=lam3,
        theta=theta0,
        risk_model=risk_spec.initial_risk_model(dataset, rng),
    )
    risk_coordinates = getattr(risk_spec, "risk_coordinates", None)
    cap = config.max_iterations
    trace = []
    passes = 0

    def run_pass(start: _Point) -> _Point:
        nonlocal passes
        passes += 1
        return _em_pass(dataset, risk_spec, config, start, passes)

    def keep(point: _Point) -> _Point:
        qv = expected_log_likelihood(dataset, point.terms, point.post, point.state.theta)
        trace.append({"iter": passes, "obs_loglik": point.loglik, "theta": point.state.theta,
                      "q1": qv.q1, "q2": qv.q2, "q3": qv.q3, "q4": qv.q4})
        return point

    def extrapolate(x0: _Point, x1: _Point, x2: _Point) -> _Point:
        nonlocal passes
        c0, c1, c2 = (_coordinates(x, risk_coordinates) for x in (x0, x1, x2))
        r = c1 - c0
        v = c2 - c1 - r
        norm_v = float(np.linalg.norm(v))
        ratio = float(np.linalg.norm(r)) / norm_v if norm_v > 0 else math.nan
        alpha = -ratio if 1.0 < ratio < math.inf else -1.0
        unpack = risk_coordinates(x2.state.risk_model)[1]
        while alpha < -1.0 and passes < cap:
            # the attempt is a pass even when its point cannot be evaluated
            passes += 1
            coords = c0 - 2.0 * alpha * r + alpha * alpha * v
            if np.all(np.isfinite(coords)):
                try:
                    with np.errstate(all="ignore"):
                        state = _state_at(dataset, coords, unpack)
                        start = _Point(state, evaluate_grid_terms(dataset, state))
                        candidate = _em_pass(dataset, risk_spec, config, start, passes)
                except (ArithmeticError, ValueError):
                    pass
                else:
                    if math.isfinite(candidate.loglik) and candidate.loglik >= x2.loglik:
                        return keep(candidate)
            alpha = min(alpha / 2.0, -1.0)
        return x2

    point = _Point(state, evaluate_grid_terms(dataset, state))
    prev_ll = None
    stop_reason = "cap"
    while passes < cap:
        x0 = point
        point = keep(run_pass(x0))
        if risk_coordinates is not None and passes < cap:
            x1 = point
            point = keep(run_pass(x1))
            if passes < cap:
                point = extrapolate(x0, x1, point)
        ll = point.loglik
        if prev_ll is not None and abs(ll - prev_ll) <= config.tolerance * max(1.0, abs(prev_ll)):
            stop_reason = "tolerance"
            break
        prev_ll = ll

    if stop_reason == "cap" and cap > 1:
        warnings.warn(
            f"EM did not converge in {cap} iterations",
            NonConvergenceWarning,
            stacklevel=2,
        )
    return EMResult(
        state=point.state,
        trace=trace,
        stop_reason=stop_reason,
        n_iterations=passes,
        theta_init=theta0,
    )
