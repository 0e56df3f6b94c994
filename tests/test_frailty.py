import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import psi

from neuralscr.core import ModelState, StepHazard, ZeroRisk
from neuralscr.frailty import digamma, posterior
from neuralscr.likelihood import complete_data_log_likelihood

from conftest import event_anchored_state, random_dataset


def lanczos_digamma_fd(x, step=1e-6):
    """Central finite difference of log Gamma (math.lgamma is Lanczos-based)."""
    return (math.lgamma(x + step) - math.lgamma(x - step)) / (2 * step)


class TestDigamma:
    def test_at_one_is_minus_euler(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-10)

    def test_at_four_via_harmonic_recurrence(self):
        expected = 1.0 + 0.5 + 1.0 / 3.0 - 0.5772156649015329
        assert digamma(4.0) == pytest.approx(expected, abs=1e-10)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(lanczos_digamma_fd(0.5), abs=1e-7)
        assert digamma(0.5) == pytest.approx(-1.9635100260214235, abs=1e-9)

    def test_against_finite_difference_oracle(self):
        rng = np.random.default_rng(3)
        xs = np.concatenate([rng.uniform(1e-3, 1.0, 50), rng.uniform(1.0, 80.0, 50)])
        for x in xs:
            assert digamma(float(x)) == pytest.approx(lanczos_digamma_fd(float(x)), abs=2e-4 * max(1, 1/x))

    def test_high_accuracy_for_moderate_args(self):
        # recurrence identity psi(x+1) = psi(x) + 1/x holds to ~1e-12
        rng = np.random.default_rng(4)
        for x in rng.uniform(1e-3, 50.0, 200):
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.0)

    def test_vectorized(self):
        xs = np.array([0.5, 1.0, 4.0])
        np.testing.assert_allclose(digamma(xs), [digamma(float(v)) for v in xs], rtol=1e-12)

    def test_rejects_any_nonpositive_entry_of_an_array(self):
        for bad in ([1.0, 0.0], [[2.0, 3.0], [-1e-300, 4.0]]):
            with pytest.raises(ValueError):
                digamma(np.array(bad))

    def test_maps_arrays_elementwise_as_scipy_does(self):
        xs = np.random.default_rng(5).uniform(1e-3, 40.0, size=(4, 6))
        out = digamma(xs)
        assert out.shape == xs.shape and out.dtype == np.float64
        np.testing.assert_array_equal(out, psi(xs))
        np.testing.assert_array_equal(digamma(list(xs[0])), psi(xs[0]))
        assert isinstance(digamma(xs[0, 0]), float) and digamma(xs[0, 0]) == psi(xs[0, 0])


class TestPosterior:
    def zero_state(self, theta):
        return ModelState(
            StepHazard.empty(), StepHazard.empty(), StepHazard.empty(),
            theta=theta, risk_model=ZeroRisk(),
        )

    def test_prior_preserved_without_information(self):
        from neuralscr.core import Dataset

        ds = Dataset([1.0], [0.0], [1.0], [0.0], np.zeros((1, 0)))
        post = posterior(ds, self.zero_state(0.5))
        assert post.a_tilde[0] == pytest.approx(2.0)
        assert post.b_tilde[0] == pytest.approx(2.0)
        assert post.mean[0] == pytest.approx(1.0)

    def test_both_events_arithmetic(self):
        # a~ = 1/theta + 2, b~ = 1/theta + 0.3 + 0.2 + 0.1
        from neuralscr.core import Dataset

        ds = Dataset([1.0], [1.0], [2.0], [1.0], np.zeros((1, 0)))
        state = ModelState(
            StepHazard([1.0], [0.3]), StepHazard([1.0], [0.2]), StepHazard([1.0], [0.1]),
            theta=0.5, risk_model=ZeroRisk(),
        )
        post = posterior(ds, state)
        assert post.a_tilde[0] == pytest.approx(4.0)
        assert post.b_tilde[0] == pytest.approx(2.6)
        assert post.mean[0] == pytest.approx(4.0 / 2.6)

    def test_log_mean_against_monte_carlo(self):
        rng = np.random.default_rng(11)
        draws = rng.gamma(shape=4.0, scale=1.0 / 2.6, size=1_000_000)
        mc = np.log(draws).mean()
        se = np.log(draws).std() / 1000.0
        analytic = digamma(4.0) - math.log(2.6)
        assert abs(analytic - mc) < 3 * se
        assert analytic == pytest.approx(0.3006, abs=2e-4)

    def test_jensen_inequality(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            ds = random_dataset(rng, n=30)
            state = event_anchored_state(rng, ds)
            post = posterior(ds, state)
            assert np.all(post.log_mean < np.log(post.mean))

    def test_moments_match_quadrature(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n=8)
        state = event_anchored_state(rng, ds)
        post = posterior(ds, state)
        for i in range(ds.n):
            sub = ds.subset([i])

            def unnorm(g):
                return math.exp(
                    complete_data_log_likelihood(sub, np.array([g]), state)
                )

            z, _ = quad(unnorm, 0, np.inf, limit=200)
            m1, _ = quad(lambda g: g * unnorm(g), 0, np.inf, limit=200)
            assert post.mean[i] == pytest.approx(m1 / z, rel=1e-8)
