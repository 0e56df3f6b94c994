"""Closed-form E-step: the conditional Gamma law of each subject's frailty.

Given the data and current parameters, gamma_i | D ~ Gamma(a~, b~) with

    a~ = 1/theta + delta1 + delta2
    b~ = 1/theta + Lambda01(y1) e^{h1} + Lambda02(y1) e^{h2}
         + delta1 Lambda03(y2 - y1) e^{h3}

so E[gamma | D] = a~/b~ and E[log gamma | D] = digamma(a~) - log(b~).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Dataset, ModelState
from .likelihood import SubjectTerms, evaluate_terms


def digamma(x):
    """Logarithmic derivative of the gamma function, for positive arguments;
    arrays map elementwise."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("digamma requires a positive argument")
    if np.ndim(x) == 0:
        return _kernels.psi(float(x_arr))
    return np.array([_kernels.psi(v) for v in x_arr.ravel().tolist()]).reshape(x_arr.shape)


@dataclass(frozen=True)
class FrailtyPosterior:
    """Posterior Gamma parameters and the two moments the Q function needs.

    Arrays run over subjects.
    """

    a_tilde: np.ndarray
    b_tilde: np.ndarray
    mean: np.ndarray
    log_mean: np.ndarray

    def __len__(self) -> int:
        return len(self.a_tilde)


def e_step(dataset: Dataset, terms: SubjectTerms, theta: float) -> FrailtyPosterior:
    """E-step moments for every subject, from the terms of the current fit."""
    inv_t = 1.0 / theta
    shapes, psi_shapes, _ = _kernels.gamma_shapes(inv_t)
    count = dataset.event_count
    a_tilde = shapes[count]
    b_tilde = inv_t + terms.b_tilde_sum
    return FrailtyPosterior(
        a_tilde=a_tilde,
        b_tilde=b_tilde,
        mean=a_tilde / b_tilde,
        log_mean=psi_shapes[count] - np.log(b_tilde),
    )


def posterior(dataset: Dataset, state: ModelState) -> FrailtyPosterior:
    """:func:`e_step` at the terms of `state`."""
    return e_step(dataset, evaluate_terms(dataset, state), state.theta)
