"""Domain types for semi-competing survival data and model state.

A subject contributes (y1, delta1, y2, delta2, x): time to the first of the
non-terminal event / terminal event / censoring, with the usual illness-death
bookkeeping.  Observations live in the upper wedge y1 <= y2; delta1 = 0
forces y1 == y2 (the subject left observation without the non-terminal
event).  Baseline cumulative hazards are either nondecreasing step functions
with jumps at event times or two-parameter Weibull curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

from . import _kernels

RULE_WEDGE = "WedgeViolation"
RULE_INDICATOR = "IndicatorInconsistency"
RULE_NONPOSITIVE = "NonPositiveTime"
RULE_ZERO_SOJOURN = "ZeroSojourn"
RULE_RAGGED = "RaggedCovariates"
RULE_INDICATOR_DOMAIN = "IndicatorOutsideZeroOne"
RULE_NONFINITE_COVARIATE = "NonFiniteCovariate"

# the range every fitter keeps log(theta) in: frailty variance 1e-4 to 100
LOG_THETA_BOUNDS = (math.log(1e-4), math.log(100.0))


class DatasetValidationError(ValueError):
    """Raised when records break the observable-space constraints.

    ``report`` lists (row_index, rule_name) pairs for every violation.
    """

    def __init__(self, report):
        self.report = list(report)
        preview = "; ".join(f"row {i}: {rule}" for i, rule in self.report[:8])
        more = "" if len(self.report) <= 8 else f" (+{len(self.report) - 8} more)"
        super().__init__(f"invalid dataset: {preview}{more}")


class NonFiniteLikelihoodError(FloatingPointError):
    """A likelihood term is zero/non-finite (e.g. no jump at an event time)."""


@dataclass(frozen=True)
class ObservedRecord:
    """One subject's semi-competing observation."""

    y1: float
    delta1: int
    y2: float
    delta2: int
    covariates: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "covariates", np.asarray(self.covariates, dtype=float).ravel()
        )


@dataclass(frozen=True)
class Transitions:
    """The three transitions of a dataset, one row each (g = 0, 1, 2 for
    transitions 1, 2, 3); every array has shape (3, n) and is read-only.

    event: 1 where the subject makes the transition -- delta1,
    (1 - delta1) * delta2 and delta1 * delta2.  event_time: y1, y2 and the
    sojourn y2 - y1.  exposure: the time at risk -- exposure to transitions 1
    and 2 ends at the first event, so both use y1, and transition 3 runs on
    the sojourn clock.  at_risk: every subject for transitions 1 and 2, only
    subjects with delta1 = 1 for transition 3.
    """

    event: np.ndarray
    event_time: np.ndarray
    exposure: np.ndarray
    at_risk: np.ndarray


@dataclass(frozen=True)
class EventGrid:
    """One transition's distinct event times and the data's fixed positions
    on them; every array is read-only.

    A Breslow (M-step) baseline jumps exactly at `times`, so its update and
    its lookups at the data are gathers through these positions, and no EM
    iteration sorts or searches.  times, counts: the distinct event times and
    their event counts.  order, start: the at-risk subjects sorted by
    exposure time, and per event time the first position in `order` still at
    risk.  rank: the number of event times <= each subject's exposure time.
    slot, hit: each subject's event time as a position in `times`, and
    whether it is exactly that time.
    """

    times: np.ndarray
    counts: np.ndarray
    order: np.ndarray
    start: np.ndarray
    rank: np.ndarray
    slot: np.ndarray
    hit: np.ndarray

    def breslow(self, weights: np.ndarray) -> np.ndarray:
        """Breslow jumps at `times` for per-subject weights, shape (n,)."""
        return _kernels.breslow_apply(self.counts, self.order, self.start, weights)

    def _check(self, hazard: StepHazard) -> None:
        if not np.array_equal(hazard.jump_times, self.times):
            raise ValueError("the baseline does not jump at this transition's event times")

    def cumulative(self, hazard: StepHazard) -> np.ndarray:
        """`hazard.cumulative` at every subject's exposure time."""
        self._check(hazard)
        return hazard.padded_cum[self.rank]

    def hazard_at(self, hazard: StepHazard) -> np.ndarray:
        """`hazard.hazard_at` at every subject's event time."""
        self._check(hazard)
        if len(self.times) == 0:
            return np.zeros(len(self.hit))
        return _kernels.jumps_at_slots(hazard.jump_sizes, self.slot, self.hit)


def _event_grid(event, event_time, exposure, at_risk) -> EventGrid:
    risk = np.flatnonzero(at_risk)
    times, counts, order, start = _kernels.breslow_index(event_time[event > 0], exposure[risk])
    if len(times):
        slot, hit = _kernels.jump_slots(times, event_time)
    else:
        slot, hit = np.zeros(len(event_time), dtype=np.intp), np.zeros(len(event_time), dtype=bool)
    grid = EventGrid(times=times, counts=counts, order=risk[order], start=start,
                     rank=_kernels.step_rank(times, exposure), slot=slot, hit=hit)
    for arr in vars(grid).values():
        arr.flags.writeable = False
    return grid


class Dataset:
    """Columnar view of a set of :class:`ObservedRecord`.

    All arrays are read-only after construction; subsetting returns copies.
    """

    def __init__(self, y1, delta1, y2, delta2, x):
        self.y1 = np.asarray(y1, dtype=float).copy()
        self.delta1 = np.asarray(delta1, dtype=float).copy()
        self.y2 = np.asarray(y2, dtype=float).copy()
        self.delta2 = np.asarray(delta2, dtype=float).copy()
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(len(self.y1), -1)
        self.x = x.copy()
        if not (len(self.y1) == len(self.delta1) == len(self.y2) == len(self.delta2) == len(self.x)):
            raise ValueError("column lengths differ")
        for arr in (self.y1, self.delta1, self.y2, self.delta2, self.x):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.y1)

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def sojourn(self) -> np.ndarray:
        """y2 - y1, clipped at 0 to absorb float noise."""
        return np.maximum(self.y2 - self.y1, 0.0)

    @cached_property
    def transitions(self) -> Transitions:
        d1, d2, soj = self.delta1, self.delta2, self.sojourn
        view = Transitions(
            event=np.vstack([d1, (1.0 - d1) * d2, d1 * d2]),
            event_time=np.vstack([self.y1, self.y2, soj]),
            exposure=np.vstack([self.y1, self.y1, soj]),
            at_risk=np.vstack([np.ones((2, self.n), dtype=bool), d1 == 1]),
        )
        for arr in vars(view).values():
            arr.flags.writeable = False
        return view

    @cached_property
    def event_count(self) -> np.ndarray:
        """delta1 + delta2 per subject as an index array: its posterior
        frailty shape is 1/theta plus this count.  Raises ValueError for
        indicators other than 0 and 1."""
        if not (np.isin(self.delta1, (0.0, 1.0)).all() and np.isin(self.delta2, (0.0, 1.0)).all()):
            raise ValueError("event indicators must be 0 or 1")
        count = (self.delta1 + self.delta2).astype(np.intp)
        count.flags.writeable = False
        return count

    @cached_property
    def event_grids(self) -> tuple[EventGrid, EventGrid, EventGrid]:
        """Each transition's :class:`EventGrid`, built once per dataset."""
        tr = self.transitions
        return tuple(_event_grid(*rows) for rows in
                     zip(tr.event, tr.event_time, tr.exposure, tr.at_risk))

    @classmethod
    def from_records(cls, records: Sequence[ObservedRecord]) -> "Dataset":
        recs = list(records)
        lengths = {len(np.atleast_1d(r.covariates)) for r in recs}
        if len(lengths) > 1:
            # keep majority length; validation reports the ragged rows
            raise DatasetValidationError(
                [(i, RULE_RAGGED) for i, r in enumerate(recs)
                 if len(np.atleast_1d(r.covariates)) != len(np.atleast_1d(recs[0].covariates))]
            )
        p = lengths.pop() if lengths else 0
        x = np.zeros((len(recs), p))
        for i, r in enumerate(recs):
            x[i] = np.atleast_1d(r.covariates)
        return cls(
            [r.y1 for r in recs],
            [r.delta1 for r in recs],
            [r.y2 for r in recs],
            [r.delta2 for r in recs],
            x,
        )

    def to_records(self) -> list[ObservedRecord]:
        return [
            ObservedRecord(self.y1[i], int(self.delta1[i]), self.y2[i],
                           int(self.delta2[i]), self.x[i])
            for i in range(self.n)
        ]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.y1[idx], self.delta1[idx], self.y2[idx],
                       self.delta2[idx], self.x[idx])


def validation_report(data: Union[Dataset, Sequence[ObservedRecord]]):
    """(row, rule) pairs for every violated observable-space constraint."""
    if not isinstance(data, Dataset):
        try:
            data = Dataset.from_records(data)
        except DatasetValidationError as err:
            return err.report
    report = []
    nonpos = (data.y1 <= 0) | (data.y2 <= 0) | ~np.isfinite(data.y1) | ~np.isfinite(data.y2)
    wedge = data.y1 > data.y2
    indicator = (data.delta1 == 0) & (data.y1 != data.y2)
    zero_sojourn = (data.delta1 == 1) & (data.delta2 == 1) & (data.y1 == data.y2)
    off_domain = ~np.isin(data.delta1, (0.0, 1.0)) | ~np.isin(data.delta2, (0.0, 1.0))
    for i in np.flatnonzero(nonpos):
        report.append((int(i), RULE_NONPOSITIVE))
    for i in np.flatnonzero(off_domain):
        report.append((int(i), RULE_INDICATOR_DOMAIN))
    for i in np.flatnonzero(~np.all(np.isfinite(data.x), axis=1)):
        report.append((int(i), RULE_NONFINITE_COVARIATE))
    for i in np.flatnonzero(wedge & ~nonpos):
        report.append((int(i), RULE_WEDGE))
    for i in np.flatnonzero(indicator & ~nonpos):
        report.append((int(i), RULE_INDICATOR))
    for i in np.flatnonzero(zero_sojourn & ~nonpos):
        report.append((int(i), RULE_ZERO_SOJOURN))
    report.sort()
    return report


def validate_dataset(data: Union[Dataset, Sequence[ObservedRecord]]) -> Dataset:
    """Return the dataset as a :class:`Dataset` iff every invariant holds."""
    report = validation_report(data)
    if report:
        raise DatasetValidationError(report)
    if not isinstance(data, Dataset):
        data = Dataset.from_records(data)
    return data


# ---------------------------------------------------------------------------
# Baseline cumulative hazards
# ---------------------------------------------------------------------------


class StepHazard:
    """Nondecreasing right-continuous step cumulative hazard.

    Lambda(t) = sum of jump_sizes at jump_times <= t; Lambda(0-) = 0.
    """

    def __init__(self, jump_times, jump_sizes):
        jt = np.asarray(jump_times, dtype=float).copy()
        js = np.asarray(jump_sizes, dtype=float).copy()
        if jt.shape != js.shape or jt.ndim != 1:
            raise ValueError("jump_times and jump_sizes must be 1-D and equal length")
        # each check must hold, so a NaN fails it
        if not (np.all(np.isfinite(jt)) and np.all(np.isfinite(js))):
            raise ValueError("jump_times and jump_sizes must be finite")
        if not np.all(np.diff(jt) > 0):
            raise ValueError("jump_times must be strictly increasing")
        if not np.all(js > 0):
            raise ValueError("jump_sizes must be positive")
        if len(jt) and not jt[0] > 0:
            raise ValueError("jump times must be positive")
        self.jump_times = jt
        self.jump_sizes = js
        self.padded_cum = np.concatenate(([0.0], np.cumsum(js)))
        for arr in (self.jump_times, self.jump_sizes, self.padded_cum):
            arr.flags.writeable = False

    @classmethod
    def empty(cls) -> "StepHazard":
        return cls(np.empty(0), np.empty(0))

    def cumulative(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = _kernels.step_cumulative(self.jump_times, self.padded_cum, t_arr)
        return out if np.ndim(t) else float(out[0])

    def hazard_at(self, t):
        """Jump size at exactly t; 0 elsewhere (the NPMLE event-term weight)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if len(self.jump_times) == 0:
            out = np.zeros_like(t_arr)
        else:
            out = _kernels.step_jump_at(self.jump_times, self.jump_sizes, t_arr)
        return out if np.ndim(t) else float(out[0])

    def __repr__(self):
        return f"StepHazard({len(self.jump_times)} jumps)"


class WeibullHazard:
    """Weibull baseline: lambda(s) = phi1 * phi2 * s**(phi2 - 1)."""

    def __init__(self, phi1: float, phi2: float):
        if phi1 <= 0 or phi2 <= 0:
            raise ValueError("Weibull parameters must be positive")
        self.phi1 = float(phi1)
        self.phi2 = float(phi2)

    def cumulative(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = self.phi1 * np.power(np.maximum(t_arr, 0.0), self.phi2)
        return out if np.ndim(t) else float(out[0])

    def hazard_at(self, t):
        """Density-form hazard (the event-term weight for parametric fits)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.phi1 * self.phi2 * np.power(t_arr, self.phi2 - 1.0)
        out = np.where(t_arr > 0, out, 0.0)
        return out if np.ndim(t) else float(out[0])

    def __repr__(self):
        return f"WeibullHazard(phi1={self.phi1:g}, phi2={self.phi2:g})"


Baseline = Union[StepHazard, WeibullHazard]


# ---------------------------------------------------------------------------
# Risk models: h_1, h_2, h_3 from covariates
# ---------------------------------------------------------------------------


class ZeroRisk:
    """h_g identically zero (no-covariate model)."""

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.zeros((len(x), 3))


class LinearRisk:
    """h_g(x) = x' beta_g with beta a (3, p) coefficient matrix."""

    def __init__(self, beta):
        self.beta = np.asarray(beta, dtype=float)
        if self.beta.ndim != 2 or self.beta.shape[0] != 3:
            raise ValueError("beta must have shape (3, p)")

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.beta.T


class FixedRisk:
    """Fixed risk functions, given as three callables on covariate rows."""

    def __init__(self, h1: Callable, h2: Callable, h3: Callable):
        self.fns = (h1, h2, h3)

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cols = [np.apply_along_axis(fn, 1, x) if x.shape[1] else np.zeros(len(x))
                for fn in self.fns]
        return np.column_stack(cols)


@dataclass
class ModelState:
    """psi = {Lambda01, Lambda02, Lambda03, theta} plus the risk functions.

    The transition-3 baseline is evaluated on sojourn time y2 - y1
    (semi-Markov).
    """

    lambda01: Baseline
    lambda02: Baseline
    lambda03: Baseline
    theta: float
    risk_model: object = field(default_factory=ZeroRisk)

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError("theta must be finite and positive")

    @property
    def baselines(self):
        return (self.lambda01, self.lambda02, self.lambda03)

    def risk_values(self, x: np.ndarray) -> np.ndarray:
        """(n, 3) matrix of h_g evaluations."""
        h = np.asarray(self.risk_model.values(np.atleast_2d(x)), dtype=float)
        if h.ndim != 2 or h.shape[1] != 3:
            raise ValueError("risk model must produce an (n, 3) array")
        return h
