import math

import numpy as np
import pytest
from scipy.integrate import quad

from neuralscr.core import (
    Dataset,
    ModelState,
    NonFiniteLikelihoodError,
    StepHazard,
    WeibullHazard,
    ZeroRisk,
)
from neuralscr.likelihood import (
    case_log_likelihood,
    complete_data_log_likelihood,
    evaluate_terms,
    joint_event_free_survival,
    observed_log_likelihood,
)

from conftest import event_anchored_state, random_dataset


def zero_state(theta=1.0):
    return ModelState(
        StepHazard.empty(), StepHazard.empty(), StepHazard.empty(),
        theta=theta, risk_model=ZeroRisk(),
    )


class TestCompleteData:
    def test_censored_subject_reduces_to_gamma_prior(self):
        # delta1 = delta2 = 0, gamma = 1, theta = 1, Lambda = 0: only the
        # prior density survives, log f(1) = -1
        ds = Dataset([1.0], [0.0], [1.0], [0.0], np.zeros((1, 0)))
        ll = complete_data_log_likelihood(ds, np.array([1.0]), zero_state())
        assert ll == pytest.approx(-1.0, abs=1e-12)

    def test_matches_case_oracle(self):
        rng = np.random.default_rng(17)
        checked = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
        total = 0
        while total < 1000:
            ds = random_dataset(rng, n=50)
            state = event_anchored_state(rng, ds)
            gammas = rng.gamma(2.0, 0.5, size=ds.n)
            records = ds.to_records()
            for i, record in enumerate(records):
                sub = ds.subset([i])
                whole = complete_data_log_likelihood(sub, gammas[[i]], state)
                case = case_log_likelihood(record, gammas[i], state)
                assert whole == pytest.approx(case, abs=1e-10)
                checked[(record.delta1, record.delta2)] += 1
                total += 1
        assert all(v > 0 for v in checked.values()), "all four cases must appear"

    def test_zero_jump_at_event_raises(self):
        ds = Dataset([1.0], [1.0], [2.0], [1.0], np.zeros((1, 0)))
        with pytest.raises(NonFiniteLikelihoodError):
            complete_data_log_likelihood(ds, np.array([1.0]), zero_state())

    def test_weibull_density_normalizes(self):
        # With Weibull baselines the per-subject complete-data likelihood is a
        # proper density over the observables given gamma; check by direct
        # simulation that the average log-density is finite and the density
        # integrates to ~1 over the first-transition time for case 4/2 data.
        theta = 0.5
        state = ModelState(
            WeibullHazard(0.2, 1.5), WeibullHazard(0.2, 1.5), WeibullHazard(0.2, 1.5),
            theta=theta, risk_model=ZeroRisk(),
        )
        gamma = 0.8

        # integrate the density of (first event at t via transition 2) over t
        def dens2(t):
            ds = Dataset([t], [0.0], [t], [1.0], np.zeros((1, 0)))
            ll = complete_data_log_likelihood(ds, np.array([gamma]), state)
            # strip the gamma prior factor to leave the data density
            prior = (
                -math.log(theta) / theta - math.lgamma(1 / theta)
                + (1 / theta - 1) * math.log(gamma) - gamma / theta
            )
            return math.exp(ll - prior)

        # transitions 1 and 2 are symmetric: each carries probability 1/2
        mass2, _ = quad(dens2, 0, np.inf, limit=300)
        assert mass2 == pytest.approx(0.5, rel=1e-6)


class TestCaseLikelihood:
    def test_case4_is_joint_survival(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=20)
        state = event_anchored_state(rng, ds, theta=1.0)
        from neuralscr.core import ObservedRecord

        record = ObservedRecord(1.3, 0, 1.3, 0, np.zeros(ds.p))
        gamma = 1.7
        h = state.risk_values(np.zeros((1, ds.p)))[0]
        expected_data_part = -gamma * (
            state.lambda01.cumulative(1.3) * math.exp(h[0])
            + state.lambda02.cumulative(1.3) * math.exp(h[1])
        )
        prior = (
            -math.log(1.0) - math.lgamma(1.0)
            + (1.0 - 1.0) * math.log(gamma) - gamma / 1.0
        )
        assert case_log_likelihood(record, gamma, state) == pytest.approx(
            prior + expected_data_part, abs=1e-12
        )

    def test_case2_adds_transition2_hazard(self):
        from neuralscr.core import ObservedRecord

        state = ModelState(
            StepHazard([2.0], [0.3]), StepHazard([2.0], [0.2]), StepHazard.empty(),
            theta=1.0, risk_model=ZeroRisk(),
        )
        gamma = 1.0
        rec22 = ObservedRecord(2.0, 0, 2.0, 1, np.zeros(0))
        rec20 = ObservedRecord(2.0, 0, 2.0, 0, np.zeros(0))
        diff = case_log_likelihood(rec22, gamma, state) - case_log_likelihood(rec20, gamma, state)
        assert diff == pytest.approx(math.log(gamma * 0.2), abs=1e-12)


class TestObservedLikelihood:
    def test_trivial_zero_contribution(self):
        ds = Dataset([1.0], [0.0], [1.0], [0.0], np.zeros((1, 0)))
        assert observed_log_likelihood(ds, zero_state()) == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def closed_form(ds, state):
        """Per subject: log u + ... + log(u + k - 1) for its k events at
        u = 1/theta, the rest of the marginal log likelihood as the program
        writes it."""
        terms = evaluate_terms(ds, state)
        u = 1.0 / state.theta
        count = (ds.delta1 + ds.delta2).astype(int)
        rising = np.array([math.fsum(math.log(u + j) for j in range(k)) for k in count])
        a = u + ds.delta1 + ds.delta2
        return (rising - u * math.log(state.theta) - a * np.log(u + terms.b_tilde_sum)
                + np.sum(terms.event_terms, axis=0))

    def test_small_theta_keeps_the_rising_factorial_digits(self):
        # at theta = 1e-4, lgamma(1/theta + k) - lgamma(1/theta) would
        # cancel about four digits of two log-gammas near 8e4
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, n=200)
        state = event_anchored_state(rng, ds, theta=1e-4)
        expected = float(np.sum(self.closed_form(ds, state)))
        assert observed_log_likelihood(ds, state) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("theta", [2.0, 50.0])
    def test_no_event_subjects_carry_no_log_gamma_residue(self, theta):
        rng = np.random.default_rng(32)
        ds = random_dataset(rng, n=120)
        state = event_anchored_state(rng, ds, theta=theta)
        quiet = ds.subset(np.flatnonzero(ds.delta1 + ds.delta2 == 0))
        assert quiet.n > 10
        assert observed_log_likelihood(quiet, state) == float(np.sum(self.closed_form(quiet, state)))

    def test_matches_gamma_quadrature(self):
        rng = np.random.default_rng(29)
        n_checked = 0
        while n_checked < 100:
            ds = random_dataset(rng, n=25)
            state = event_anchored_state(rng, ds)
            for i in range(ds.n):
                sub = ds.subset([i])
                direct = observed_log_likelihood(sub, state)

                def integrand(g):
                    return math.exp(
                        complete_data_log_likelihood(sub, np.array([g]), state) - direct
                    )

                val, err = quad(integrand, 0, np.inf, limit=300)
                assert val == pytest.approx(1.0, rel=1e-8)
                n_checked += 1
                if n_checked >= 100:
                    break


class TestJointSurvival:
    def test_one_at_time_zero(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n=4)
        state = event_anchored_state(rng, ds)
        pi = joint_event_free_survival(ds.x, 0.0, state)
        np.testing.assert_allclose(pi, 1.0)

    def test_closed_form_value(self):
        # theta=0.5, Lambda01 e^h1 = 0.3, Lambda02 e^h2 = 0.2 at t
        state = ModelState(
            StepHazard([0.5], [0.3]), StepHazard([0.5], [0.2]), StepHazard.empty(),
            theta=0.5, risk_model=ZeroRisk(),
        )
        pi = joint_event_free_survival(np.zeros(0), 1.0, state)
        assert pi == pytest.approx((1 + 0.5 * 0.5) ** -2.0, abs=1e-12)

    def test_nonincreasing_in_t(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, n=3)
        state = event_anchored_state(rng, ds)
        ts = np.linspace(0, 5, 60)
        pi = joint_event_free_survival(ds.x[0], ts, state)
        assert np.all(np.diff(pi) <= 1e-15)

    def test_matches_monte_carlo_frailty_average(self):
        rng = np.random.default_rng(13)
        theta = 0.5
        A = 0.5
        draws = rng.gamma(1 / theta, theta, size=1_000_000)
        vals = np.exp(-draws * A)
        mc, se = vals.mean(), vals.std() / 1000.0
        analytic = (1 + theta * A) ** (-1 / theta)
        assert abs(analytic - mc) < 3 * se

    def test_theta_zero_limit(self):
        state_small = ModelState(
            StepHazard([0.5], [0.3]), StepHazard([0.5], [0.2]), StepHazard.empty(),
            theta=1e-10, risk_model=ZeroRisk(),
        )
        pi = joint_event_free_survival(np.zeros(0), 1.0, state_small)
        assert pi == pytest.approx(math.exp(-0.5), abs=1e-6)
        # below the guard the limit formula is used exactly
        state_tiny = ModelState(
            StepHazard([0.5], [0.3]), StepHazard([0.5], [0.2]), StepHazard.empty(),
            theta=1e-13, risk_model=ZeroRisk(),
        )
        assert joint_event_free_survival(np.zeros(0), 1.0, state_tiny) == pytest.approx(
            math.exp(-0.5), abs=1e-12
        )


class TestParallelInvariance:
    def test_partitioned_sum_matches(self):
        # dataset-level likelihood equals the sum over any partition of subjects
        rng = np.random.default_rng(37)
        ds = random_dataset(rng, n=60)
        state = event_anchored_state(rng, ds)
        gamma = rng.gamma(2.0, 0.5, size=ds.n)
        whole = complete_data_log_likelihood(ds, gamma, state)
        parts = [np.arange(0, 20), np.arange(20, 45), np.arange(45, 60)]
        split = sum(
            complete_data_log_likelihood(ds.subset(idx), gamma[idx], state) for idx in parts
        )
        assert split == pytest.approx(whole, rel=1e-9)
