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
    Raises ZeroWeightError, naming the first such time, if G is zero at a
    point where a subject needs a weight.
    """
    grid = np.atleast_1d(np.asarray(t, dtype=float))
    pi = np.asarray(predictions, dtype=float)
    if pi.shape != (dataset.n,) + np.shape(t):
        raise ValueError("predictions must hold one value per subject and time")
    pi = pi.reshape(dataset.n, len(grid)).T
    y1, d1 = dataset.y1, dataset.delta1
    y2, d2 = dataset.y2, dataset.delta2
    col = grid[:, None]

    region1 = (y1 <= col) & ((d1 == 1) & (y1 <= y2))
    region2 = (y1 <= col) & (y2 <= col) & ((d1 == 0) & (d2 == 1) & (y1 <= y2))
    region3 = (y1 > col) & (y2 > col)

    g1 = censoring.evaluate(y1, left=True)
    g2 = censoring.evaluate(y2, left=True)
    gt = censoring.evaluate(grid)

    bad = ((region1 & (g1 <= 0)).any(axis=1) | (region2 & (g2 <= 0)).any(axis=1)
           | (region3.any(axis=1) & (gt <= 0)))
    if np.any(bad):
        raise ZeroWeightError(
            f"censoring curve is zero at a weight point for t={grid[np.argmax(bad)]}"
        )

    # (T, n) in C order: each row sums in the order of a 1-D mean over subjects
    loss = np.zeros((len(grid), dataset.n))
    np.square(pi, out=loss, where=region1 | region2)
    np.divide(loss, g1, out=loss, where=region1)
    np.divide(loss, g2, out=loss, where=region2)
    np.subtract(1.0, pi, out=loss, where=region3)
    np.square(loss, out=loss, where=region3)
    np.divide(loss, gt[:, None], out=loss, where=region3)
    values = loss.mean(axis=1)
    return float(values[0]) if np.ndim(t) == 0 else values


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
    if horizon <= 0:
        raise ValueError("horizon must be positive")
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
