"""Censoring-curve estimation and the bivariate Brier score.

The score for a predicted joint event-free probability pi_i(t) has three
IPCW-weighted regions: the non-terminal event observed by t (weight
1/G(Y1-)), the terminal event observed first and by t (weight 1/G(Y2-)),
and both events beyond t (weight 1/G(t)); subjects matching no region
contribute zero.  With the censoring survival G known, its expectation is
the MSE of the predictor plus an irreducible term (1/n) sum S_i (1 - S_i).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Dataset


# Grid rows that `bbs` scores at a time: one (rows, n) float buffer stays
# within L2 at n = 8,000
_BLOCK_ROWS = 16


class ZeroWeightError(ZeroDivisionError):
    """The censoring curve vanished at a point where a weight is needed."""


@dataclass(frozen=True)
class CensoringCurve:
    """Right-continuous product-limit estimate of G(t) = Pr(C > t)."""

    times: np.ndarray
    survival: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "survival", np.asarray(self.survival, dtype=float))

    def evaluate(self, t, left: bool = False):
        """G(t), or the left limit G(t-) when left=True."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        side = "left" if left else "right"
        idx = np.searchsorted(self.times, t_arr, side=side)
        padded = np.concatenate(([1.0], self.survival))
        out = padded[idx]
        return out if np.ndim(t) else float(out[0])


@dataclass(frozen=True)
class ExponentialCensoring:
    """Known exponential censoring survival, usable wherever a curve is."""

    rate: float

    def evaluate(self, t, left: bool = False):
        out = np.exp(-self.rate * np.atleast_1d(np.asarray(t, dtype=float)))
        return out if np.ndim(t) else float(out[0])


def reverse_km(dataset: Dataset) -> CensoringCurve:
    """Kaplan-Meier estimate of the censoring survival function.

    Censorings (delta2 = 0) at y2 are the events; observed terminal events
    are treated as censored for G and stay in the risk set at tied times.
    """
    if dataset.n == 0:
        raise ValueError("empty dataset")
    order = np.argsort(dataset.y2, kind="stable")
    times = dataset.y2[order]
    cens = 1.0 - dataset.delta2[order]

    uniq, start = np.unique(times, return_index=True)
    d = np.add.reduceat(cens, start)
    counts = np.diff(np.append(start, len(times)))
    at_risk = dataset.n - np.concatenate(([0], np.cumsum(counts)[:-1]))

    keep = d > 0
    if not np.any(keep):
        return CensoringCurve(times=np.empty(0), survival=np.empty(0))
    factors = 1.0 - d[keep] / at_risk[keep]
    return CensoringCurve(times=uniq[keep], survival=np.cumprod(factors))


def bbs(dataset: Dataset, predictions, censoring: CensoringCurve, t):
    """Bivariate Brier score averaged over subjects, at one time or a grid.

    A scalar `t` with the (n,) vector of pi_i(t) gives a float; an
    increasing 1-D grid with the (n, len(grid)) matrix gives the curve.
    Predictions must be finite probabilities in [0, 1] (ValueError
    otherwise).  Raises ZeroWeightError, naming the first such time, if G is
    zero at a point where a subject needs a weight.

    Each subject enters an observed-event region at its entry time (y1 in
    region 1, y2 in region 2, never otherwise) with weight G(entry-), and
    leaves the event-free region 3 at min(y1, y2); the grid is scored in
    blocks of rows, so no (len(grid), n) array is formed.
    """
    grid = np.atleast_1d(np.asarray(t, dtype=float))
    pi = np.asarray(predictions, dtype=float)
    if pi.shape != (dataset.n,) + np.shape(t):
        raise ValueError("predictions must hold one value per subject and time")
    # min and max propagate NaN, which fails both comparisons
    if pi.size and not (pi.min() >= 0.0 and pi.max() <= 1.0):
        raise ValueError("predictions must be finite probabilities in [0, 1]")
    pi = pi.reshape(dataset.n, len(grid)).T
    y1, d1 = dataset.y1, dataset.delta1
    y2, d2 = dataset.y2, dataset.delta2

    wedge = y1 <= y2
    entry = np.where((d1 == 1) & wedge, y1,
                     np.where((d1 == 0) & (d2 == 1) & wedge, y2, np.inf))
    leave = np.minimum(y1, y2)
    g_entry = censoring.evaluate(entry, left=True)
    gt = censoring.evaluate(grid)

    # t needs a zero weight once it reaches a zero-weight entry, or when G(t)
    # is zero while some subject is still event-free
    first_zero_entry = np.min(entry[g_entry <= 0], initial=np.inf)
    bad = (grid >= first_zero_entry) | ((gt <= 0) & (grid < np.max(leave, initial=-np.inf)))
    if np.any(bad):
        raise ZeroWeightError(
            f"censoring curve is zero at a weight point for t={grid[np.argmax(bad)]}"
        )
    # weights that no subject uses become 1, so no inf or NaN is ever formed
    g_entry = np.where((g_entry > 0) & (entry < np.inf), g_entry, 1.0)
    gt = np.where(gt > 0, gt, 1.0)

    values = np.empty(len(grid))
    rows = min(_BLOCK_ROWS, len(grid))
    seen = np.empty((rows, dataset.n))
    event_free = np.empty((rows, dataset.n))
    inside = np.empty((rows, dataset.n), dtype=bool)
    for start in range(0, len(grid), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(grid))
        col = grid[start:stop, None]
        p = pi[start:stop]
        a, b, m = seen[:stop - start], event_free[:stop - start], inside[:stop - start]
        # the indicator multiplies before the weight divides: an entry
        # outside every region adds exactly 0.0
        np.square(p, out=a)
        np.less_equal(entry, col, out=m)
        np.multiply(a, m, out=a)
        np.divide(a, g_entry, out=a)
        np.subtract(1.0, p, out=b)
        np.square(b, out=b)
        np.less(col, leave, out=m)
        np.multiply(b, m, out=b)
        np.divide(b, gt[start:stop, None], out=b)
        np.add(a, b, out=a)
        # C-ordered rows: each sums in the order of a 1-D mean over subjects
        values[start:stop] = a.mean(axis=1)
    return float(values[0]) if np.ndim(t) == 0 else values


def check_horizon(horizon: float) -> None:
    """Raise ValueError unless the score horizon is finite and positive."""
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")


@dataclass(frozen=True)
class BBSCurve:
    grid: np.ndarray
    values: np.ndarray
    integrated: float
    horizon: float


def integrated_bbs(
    dataset: Dataset,
    predict,
    censoring: CensoringCurve,
    horizon: float,
    n_points: int = 100,
    time_average: bool = True,
    grid=None,
) -> BBSCurve:
    """Trapezoidal time-average of the BBS over an even grid up to `horizon`.

    `predict(grid)` is called once, on the final grid, and must return the
    (n, len(grid)) matrix of pi_i(t), one column per grid time.  The default
    grid starts at horizon / n_points to skip the degenerate all-ones point;
    an explicit increasing `grid` overrides it.  If G hits zero inside the
    grid, the horizon is truncated to the last usable point with a warning.
    """
    check_horizon(horizon)
    if grid is None:
        grid = np.linspace(horizon / n_points, horizon, n_points)
    else:
        grid = np.asarray(grid, dtype=float)
        if len(grid) == 0 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
            raise ValueError("grid must be increasing and positive")
    g_vals = censoring.evaluate(grid)
    usable = g_vals > 0
    if not np.all(usable):
        if not np.any(usable):
            raise ZeroWeightError("censoring curve is zero over the whole grid")
        last = np.flatnonzero(usable)[-1]
        warnings.warn(
            f"censoring curve hits zero before the horizon; truncating to t={grid[last]:g}",
            stacklevel=2,
        )
        grid = grid[: last + 1]
    values = bbs(dataset, predict(grid), censoring, grid)
    if len(grid) == 1:
        integrated = float(values[0])
    else:
        integrated = float(np.trapezoid(values, grid))
        if time_average:
            integrated /= grid[-1] - grid[0]
    return BBSCurve(grid=grid, values=values, integrated=integrated, horizon=float(grid[-1]))
