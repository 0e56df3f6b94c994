"""The scalar digamma kernel against scipy.special, and the log-gamma
differences at the posterior shapes.

`_kernels.psi` ports the Cephes routine that `scipy.special.psi` evaluates,
so each grid below must match to the last bit.  The grids follow the
branches of the algorithm.
"""

import math

import numpy as np
import pytest
from scipy.special import psi

from neuralscr import _kernels

RNG = np.random.default_rng(20260419)


def log_uniform(lo, hi, size):
    return np.exp(RNG.uniform(math.log(lo), math.log(hi), size))


def neighbours(x, steps=4):
    """x and the `steps` floats on either side of it."""
    out = [x]
    for direction in (0.0, math.inf):
        v = x
        for _ in range(steps):
            v = math.nextafter(v, direction)
            out.append(v)
    return out


GRIDS = {
    # the recurrence 1/x step into [1, 2]
    "(0, 1)": np.concatenate([RNG.uniform(0.0, 1.0, 20000), log_uniform(1e-300, 1e-3, 2000),
                              [5e-324, 1e-310]]),
    # the rational fit around the root directly
    "[1, 2]": np.concatenate([RNG.uniform(1.0, 2.0, 20000), neighbours(1.0), neighbours(2.0),
                              neighbours(1.4616321449683622)]),
    # the harmonic sum
    "integers 1..10": np.arange(1.0, 11.0),
    # shifts down into [1, 2] below 10, the asymptotic series above
    "(2, 13)": np.concatenate([RNG.uniform(2.0, 13.0, 20000), neighbours(10.0), neighbours(13.0),
                               neighbours(3.0), np.arange(2.5, 13.0, 1.0)]),
    # the asymptotic series
    "13 to 1e3": np.concatenate([log_uniform(13.0, 1e3, 20000), np.arange(14.0, 1000.0, 7.0),
                                 neighbours(1000.0)]),
    "1e3 to 1e8": np.concatenate([log_uniform(1e3, 1e8, 20000), neighbours(1e8)]),
    # no series past 1e17
    "above 1e8": np.concatenate([log_uniform(1e8, 1e308, 20000), neighbours(1e17),
                                 neighbours(2.556348e305), [1.7976931348623157e308]]),
}


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_psi_equals_scipy_bit_for_bit(grid):
    xs = np.asarray(GRIDS[grid], dtype=float)
    np.testing.assert_array_equal(bits([_kernels.psi(x) for x in xs.tolist()]), bits(psi(xs)))


def test_edge_values_follow_scipy():
    for x in (0.0, math.inf):
        assert _kernels.psi(x) == psi(x)
    assert math.isnan(_kernels.psi(math.nan))


def test_negative_arguments_are_rejected():
    with pytest.raises(ValueError):
        _kernels.psi(-0.5)


@pytest.mark.parametrize("theta", [1e-4, 0.013, 0.5, 1.0, 2.7, 100.0])
def test_gamma_shapes_are_the_posterior_shapes(theta):
    # a subject's posterior shape inv_t + delta1 + delta2, summed in that
    # order, is the shape its event count indexes
    inv_t = 1.0 / theta
    a, psi_a, log_rising = _kernels.gamma_shapes(inv_t)
    d1 = np.array([0.0, 1.0, 0.0, 1.0])
    d2 = np.array([0.0, 0.0, 1.0, 1.0])
    count = (d1 + d2).astype(np.intp)
    np.testing.assert_array_equal(bits(a[count]), bits(inv_t + d1 + d2))
    np.testing.assert_array_equal(bits(psi_a), bits(psi(a)))
    # lgamma(a) - lgamma(inv_t): Gamma(u + k) / Gamma(u) = u (u + 1) ... (u + k - 1)
    expected = [0.0, math.log(inv_t), math.log(inv_t) + math.log(inv_t + 1.0)]
    np.testing.assert_array_equal(bits(log_rising), bits(expected))
    assert bits([log_rising[0]])[0] == 0  # +0.0 exactly, not a rounding residue
