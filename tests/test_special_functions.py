"""The scalar digamma and log-gamma kernels against scipy.special.

`_kernels.psi` and `_kernels.lgamma` port the Cephes routines that
`scipy.special.psi` and `scipy.special.gammaln` evaluate, so each grid below
must match to the last bit.  The grids follow the branches of the two
algorithms.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln, psi

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
    # psi: the recurrence 1/x step into [1, 2]; lgamma: division up to [2, 3)
    "(0, 1)": np.concatenate([RNG.uniform(0.0, 1.0, 20000), log_uniform(1e-300, 1e-3, 2000),
                              [5e-324, 1e-310]]),
    # psi: the rational fit around the root directly; lgamma: one division
    "[1, 2]": np.concatenate([RNG.uniform(1.0, 2.0, 20000), neighbours(1.0), neighbours(2.0),
                              neighbours(1.4616321449683622)]),
    # psi: the harmonic sum; lgamma: the product of the shifted factors
    "integers 1..10": np.arange(1.0, 11.0),
    # psi: shifts down into [1, 2] below 10, the asymptotic series above;
    # lgamma: the rational fit on [2, 3) after the shift
    "(2, 13)": np.concatenate([RNG.uniform(2.0, 13.0, 20000), neighbours(10.0), neighbours(13.0),
                               neighbours(3.0), np.arange(2.5, 13.0, 1.0)]),
    # lgamma: Stirling with the five-term A series
    "13 to 1e3": np.concatenate([log_uniform(13.0, 1e3, 20000), np.arange(14.0, 1000.0, 7.0),
                                 neighbours(1000.0)]),
    # lgamma: Stirling with the three-term series
    "1e3 to 1e8": np.concatenate([log_uniform(1e3, 1e8, 20000), neighbours(1e8)]),
    # lgamma: Stirling alone, inf past MAXLGM; psi: no series past 1e17
    "above 1e8": np.concatenate([log_uniform(1e8, 1e308, 20000), neighbours(1e17),
                                 neighbours(2.556348e305), [1.7976931348623157e308]]),
}


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_psi_equals_scipy_bit_for_bit(grid):
    xs = np.asarray(GRIDS[grid], dtype=float)
    np.testing.assert_array_equal(bits([_kernels.psi(x) for x in xs.tolist()]), bits(psi(xs)))


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_lgamma_equals_scipy_bit_for_bit(grid):
    xs = np.asarray(GRIDS[grid], dtype=float)
    np.testing.assert_array_equal(bits([_kernels.lgamma(x) for x in xs.tolist()]),
                                  bits(gammaln(xs)))


def test_edge_values_follow_scipy():
    for x in (0.0, math.inf):
        assert _kernels.psi(x) == psi(x)
        assert _kernels.lgamma(x) == gammaln(x)
    assert math.isnan(_kernels.psi(math.nan)) and math.isnan(_kernels.lgamma(math.nan))


def test_negative_arguments_are_rejected():
    for f in (_kernels.psi, _kernels.lgamma):
        with pytest.raises(ValueError):
            f(-0.5)


@pytest.mark.parametrize("theta", [1e-4, 0.013, 0.5, 1.0, 2.7, 100.0])
def test_gamma_shapes_are_the_posterior_shapes(theta):
    # a subject's posterior shape inv_t + delta1 + delta2, summed in that
    # order, is the shape its event count indexes
    inv_t = 1.0 / theta
    a, psi_a, lgamma_a = _kernels.gamma_shapes(inv_t)
    d1 = np.array([0.0, 1.0, 0.0, 1.0])
    d2 = np.array([0.0, 0.0, 1.0, 1.0])
    count = (d1 + d2).astype(np.intp)
    np.testing.assert_array_equal(bits(a[count]), bits(inv_t + d1 + d2))
    np.testing.assert_array_equal(bits(psi_a), bits(psi(a)))
    np.testing.assert_array_equal(bits(lgamma_a), bits(gammaln(a)))
