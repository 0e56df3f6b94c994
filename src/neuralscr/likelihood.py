"""Complete-data, case-based, and observed-data log likelihoods.

All three transition hazards share a subject-level Gamma frailty gamma with
mean 1 and variance theta, multiplying lambda_0g(.) exp(h_g(x)).  The
complete-data likelihood treats gamma as known; the observed-data version
integrates it out in closed form (the Gamma posterior is conjugate).

For step baselines the event-term weight lambda_0g(Y) is the jump size at Y;
for Weibull baselines it is the density-form hazard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _kernels
from .core import (
    Dataset,
    ModelState,
    NonFiniteLikelihoodError,
    ObservedRecord,
)

THETA_FRAILTY_FREE = 1e-12  # below this, use the theta -> 0 limit formulas


@dataclass(frozen=True)
class SubjectTerms:
    """Per-subject model evaluations shared by the E/M/N machinery.

    h, eh: (n, 3) log-risks and exp(h), one evaluation of the risk model.
    lam, haz: (3, n) baseline lookups at the data -- lam[g] is Lambda_0g at
    transition g+1's exposure time, zero off its risk set, and haz[g] the
    event-term weight at its event time.  event: the dataset's (3, n) event
    indicators (see ``Dataset.transitions``).  An EM iteration refreshes the
    two halves apart: the baselines after the M-step, the risk values after
    the N-step.
    """

    h: np.ndarray
    eh: np.ndarray
    lam: np.ndarray
    haz: np.ndarray
    event: np.ndarray

    @property
    def b_tilde_sum(self) -> np.ndarray:
        """Lambda01 e^h1 + Lambda02 e^h2 + delta1 Lambda03 e^h3."""
        lam, eh = self.lam, self.eh
        return lam[0] * eh[:, 0] + lam[1] * eh[:, 1] + lam[2] * eh[:, 2]

    @cached_property
    def event_terms(self) -> np.ndarray:
        """:func:`event_log_terms` at these terms, (3, n), computed once."""
        return event_log_terms(self.event, self.haz, self.h.T)

    def with_baselines(self, dataset: Dataset, state: ModelState) -> "SubjectTerms":
        """These terms with the M-step baselines of `state` -- step functions
        jumping at the dataset's event times -- looked up through
        ``Dataset.event_grids``."""
        return replace(self, **_grid_lookups(dataset, state))

    def with_risk(self, dataset: Dataset, state: ModelState) -> "SubjectTerms":
        """These terms with the risk model of `state` evaluated at the data."""
        return replace(self, **_risk_values(dataset, state))


def _baseline_lookups(dataset: Dataset, state: ModelState) -> dict:
    tr = dataset.transitions
    cumulative = np.array([b.cumulative(t) for b, t in zip(state.baselines, tr.exposure)])
    jumps = np.array([b.hazard_at(t) for b, t in zip(state.baselines, tr.event_time)])
    return {"lam": cumulative * tr.at_risk, "haz": jumps}


def _grid_lookups(dataset: Dataset, state: ModelState) -> dict:
    grids = dataset.event_grids
    cumulative = np.array([grid.cumulative(b) for grid, b in zip(grids, state.baselines)])
    jumps = np.array([grid.hazard_at(b) for grid, b in zip(grids, state.baselines)])
    return {"lam": cumulative * dataset.transitions.at_risk, "haz": jumps}


def _risk_values(dataset: Dataset, state: ModelState) -> dict:
    h = state.risk_values(dataset.x)
    return {"h": h, "eh": np.exp(h)}


def evaluate_terms(dataset: Dataset, state: ModelState) -> SubjectTerms:
    return SubjectTerms(**_risk_values(dataset, state), **_baseline_lookups(dataset, state),
                        event=dataset.transitions.event)


def evaluate_grid_terms(dataset: Dataset, state: ModelState) -> SubjectTerms:
    """:func:`evaluate_terms` for M-step baselines (see
    :meth:`SubjectTerms.with_baselines`)."""
    return SubjectTerms(**_risk_values(dataset, state), **_grid_lookups(dataset, state),
                        event=dataset.transitions.event)


def event_log_terms(ev: np.ndarray, haz: np.ndarray, h) -> np.ndarray:
    """ev_g * (log lambda_0g(Y) + h_g) per transition and subject, (3, n);
    zero where the subject makes no transition-g event.  `h` is (3, n), or
    0.0 for the h-free part.

    This is the one zero-jump check: raises when an event sits where the
    baseline carries no mass.
    """
    on = ev > 0
    bad = np.any(on & (haz <= 0), axis=1)
    if np.any(bad):
        raise NonFiniteLikelihoodError(
            f"zero baseline hazard at an observed transition-{int(np.argmax(bad)) + 1} event time"
        )
    log_haz = np.log(haz, out=np.zeros_like(haz), where=on)
    return np.where(on, ev * (log_haz + h), 0.0)


def complete_data_log_likelihood(dataset: Dataset, gamma, state: ModelState) -> float:
    """log of the augmented (gamma-known) likelihood, summed over subjects."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (dataset.n,):
        raise ValueError("gamma must have one entry per subject")
    theta = state.theta
    inv_t = 1.0 / theta
    terms = evaluate_terms(dataset, state)
    log_gamma_prior = (
        -inv_t * math.log(theta)
        - math.lgamma(inv_t)
        + (inv_t - 1.0) * np.log(gamma)
        - gamma / theta
    )
    ll = (
        log_gamma_prior
        + (dataset.delta1 + dataset.delta2) * np.log(gamma)
        + np.sum(terms.event_terms, axis=0)
        - gamma * terms.b_tilde_sum
    )
    return float(np.sum(ll))


def case_log_likelihood(record: ObservedRecord, gamma: float, state: ModelState) -> float:
    """Per-subject complete-data log likelihood via the four-case product.

    Dispatches on (delta1, delta2): both events, terminal only, non-terminal
    only, neither.  Serves as an independent oracle for
    :func:`complete_data_log_likelihood` (matches it term for term, gamma
    prior included).
    """
    theta = state.theta
    inv_t = 1.0 / theta
    x = np.atleast_2d(record.covariates)
    h1, h2, h3 = state.risk_values(x)[0]
    y1, y2 = record.y1, record.y2
    d1, d2 = int(record.delta1), int(record.delta2)
    soj = max(y2 - y1, 0.0)

    log_prior = (
        -inv_t * math.log(theta)
        - math.lgamma(inv_t)
        + (inv_t - 1.0) * math.log(gamma)
        - gamma / theta
    )
    # S(y1, y1 | gamma): event-free through the first transition time
    log_s_first = -gamma * (
        state.lambda01.cumulative(y1) * math.exp(h1)
        + state.lambda02.cumulative(y1) * math.exp(h2)
    )
    # S_{2|1}(y2 | y1, gamma): sojourn survival after the non-terminal event
    log_s_sojourn = -gamma * state.lambda03.cumulative(soj) * math.exp(h3)

    def event(haz, h, label):
        if haz <= 0:
            raise NonFiniteLikelihoodError(
                f"zero baseline hazard at the observed {label} event time"
            )
        return math.log(gamma * haz) + h

    if d1 == 1 and d2 == 1:
        return (
            log_prior
            + log_s_first
            + event(state.lambda01.hazard_at(y1), h1, "transition-1")
            + log_s_sojourn
            + event(state.lambda03.hazard_at(soj), h3, "transition-3")
        )
    if d1 == 0 and d2 == 1:
        return (
            log_prior
            + log_s_first
            + event(state.lambda02.hazard_at(y2), h2, "transition-2")
        )
    if d1 == 1 and d2 == 0:
        return (
            log_prior
            + log_s_first
            + event(state.lambda01.hazard_at(y1), h1, "transition-1")
            + log_s_sojourn
        )
    return log_prior + log_s_first


def marginal_log_likelihood(dataset: Dataset, terms: SubjectTerms, theta: float) -> float:
    """Marginal (gamma integrated out) log likelihood of the observed data.

    Per subject: log Gamma(a~) - log Gamma(1/theta) - (1/theta) log theta
    - a~ log(b~) + event terms; a~, b~ are the posterior Gamma parameters,
    and the log-gamma difference is a log rising factorial.
    """
    inv_t = 1.0 / theta
    shapes, _, log_rising = _kernels.gamma_shapes(inv_t)
    count = dataset.event_count
    b_tilde = inv_t + terms.b_tilde_sum
    ll = (
        log_rising[count]
        - inv_t * math.log(theta)
        - shapes[count] * np.log(b_tilde)
        + np.sum(terms.event_terms, axis=0)
    )
    return float(np.sum(ll))


def observed_log_likelihood(dataset: Dataset, state: ModelState) -> float:
    """:func:`marginal_log_likelihood` at the terms of `state`."""
    return marginal_log_likelihood(dataset, evaluate_terms(dataset, state), state.theta)


def joint_event_free_survival(covariates, t, state: ModelState):
    """pi(t) = Pr(T1 > t, T2 > t | x), marginal over the Gamma frailty.

    The Laplace-transform form (1 + theta * A)^(-1/theta) with
    A = Lambda01(t) e^{h1} + Lambda02(t) e^{h2}; reduces to exp(-A) in the
    theta -> 0 limit (applied below THETA_FRAILTY_FREE).
    """
    x = np.atleast_2d(np.asarray(covariates, dtype=float))
    h = state.risk_values(x)
    eh1 = np.exp(h[:, 0])
    eh2 = np.exp(h[:, 1])
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    lam1 = np.atleast_1d(state.lambda01.cumulative(t_arr))
    lam2 = np.atleast_1d(state.lambda02.cumulative(t_arr))
    # A, and then pi in place, has shape (n, k): subjects by time points
    pi = np.multiply.outer(eh1, lam1)
    pi += np.multiply.outer(eh2, lam2)
    theta = state.theta
    if theta < THETA_FRAILTY_FREE:
        np.negative(pi, out=pi)
        np.exp(pi, out=pi)
    else:
        pi *= theta
        pi += 1.0
        np.power(pi, -1.0 / theta, out=pi)
    if np.ndim(covariates) == 1 and np.ndim(t) == 0:
        return float(pi[0, 0])
    if np.ndim(covariates) == 1:
        return pi[0]
    if np.ndim(t) == 0:
        return pi[:, 0]
    return pi
