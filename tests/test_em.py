import math
import warnings

import numpy as np
import pytest

from neuralscr.core import Dataset, ModelState, StepHazard, ZeroRisk
from neuralscr.em import (
    EMConfig,
    FixedRiskSpec,
    LinearRiskSpec,
    NonFiniteQError,
    m_step,
    maximize_q4_theta,
    nelson_aalen_seed,
    q_function,
    run_em,
)
from neuralscr.frailty import FrailtyPosterior, posterior
from neuralscr.likelihood import complete_data_log_likelihood
from neuralscr.simulate import SimConfig, simulate

from conftest import event_anchored_state, random_dataset


def unit_posterior(n):
    return FrailtyPosterior(
        a_tilde=np.ones(n), b_tilde=np.ones(n),
        mean=np.ones(n), log_mean=np.zeros(n),
    )


class TestQFunction:
    def test_single_censored_subject(self):
        ds = Dataset([1.0], [0.0], [1.0], [0.0], np.zeros((1, 0)))
        state = ModelState(
            StepHazard.empty(), StepHazard.empty(), StepHazard.empty(),
            theta=1.0, risk_model=ZeroRisk(),
        )
        post = posterior(ds, state)
        qv = q_function(ds, post, state)
        assert qv.q1 == qv.q2 == qv.q3 == 0.0
        assert qv.q4 == pytest.approx(-post.mean[0], abs=1e-12)
        assert qv.total == pytest.approx(-1.0, abs=1e-12)

    def test_equals_moment_substituted_complete_likelihood(self):
        # Q = complete-data log likelihood with gamma -> E[gamma] in linear
        # terms and log gamma -> E[log gamma] in log terms
        rng = np.random.default_rng(23)
        for _ in range(10):
            ds = random_dataset(rng, n=40)
            state = event_anchored_state(rng, ds)
            post = posterior(ds, state)
            qv = q_function(ds, post, state)
            base = complete_data_log_likelihood(ds, post.mean, state)
            log_coeff = 1.0 / state.theta - 1.0 + ds.delta1 + ds.delta2
            oracle = base + float(np.sum(log_coeff * (post.log_mean - np.log(post.mean))))
            assert qv.total == pytest.approx(oracle, abs=1e-10 * max(1, abs(oracle)))

    def test_zero_jump_at_event_raises(self):
        ds = Dataset([1.0], [1.0], [2.0], [1.0], np.zeros((1, 0)))
        state = ModelState(
            StepHazard.empty(), StepHazard.empty(), StepHazard.empty(),
            theta=1.0, risk_model=ZeroRisk(),
        )
        with pytest.raises(NonFiniteQError):
            q_function(ds, unit_posterior(1), state)


def golden_section_max(fn, lo, hi, tol=1e-12):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


class TestMStep:
    def test_single_subject_breslow(self):
        ds = Dataset([1.0], [1.0], [2.0], [1.0], np.zeros((1, 0)))
        state = ModelState(
            StepHazard.empty(), StepHazard.empty(), StepHazard.empty(),
            theta=1.0, risk_model=ZeroRisk(),
        )
        b1, b2, b3 = m_step(ds, unit_posterior(1), state)
        assert b1.jump_times.tolist() == [1.0]
        assert b1.jump_sizes[0] == pytest.approx(1.0)

    def test_tie_aggregation(self):
        ds = Dataset([1.0, 1.0], [1.0, 1.0], [2.0, 3.0], [1.0, 1.0], np.zeros((2, 0)))
        state = ModelState(
            StepHazard.empty(), StepHazard.empty(), StepHazard.empty(),
            theta=1.0, risk_model=ZeroRisk(),
        )
        b1, _, _ = m_step(ds, unit_posterior(2), state)
        # numerator 2 events at t=1, risk set 2
        assert b1.jump_times.tolist() == [1.0]
        assert b1.jump_sizes[0] == pytest.approx(1.0)

    def test_jump_support_is_event_times(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=80)
        state = event_anchored_state(rng, ds)
        post = posterior(ds, state)
        b1, b2, b3 = m_step(ds, post, state)
        ev2 = (1 - ds.delta1) * ds.delta2
        ev3 = ds.delta1 * ds.delta2
        np.testing.assert_array_equal(b1.jump_times, np.unique(ds.y1[ds.delta1 == 1]))
        np.testing.assert_array_equal(b2.jump_times, np.unique(ds.y2[ev2 == 1]))
        np.testing.assert_array_equal(b3.jump_times, np.unique(ds.sojourn[ev3 == 1]))

    def test_maximizes_q_per_jump(self):
        # golden-section 1-D maximization over each jump agrees to 1e-8
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n=25)
        state = event_anchored_state(rng, ds)
        post = posterior(ds, state)
        b1, b2, b3 = m_step(ds, post, state)
        new_state = ModelState(b1, b2, b3, theta=state.theta, risk_model=state.risk_model)

        for g, hz in enumerate((b1, b2, b3)):
            for j in range(min(len(hz.jump_times), 4)):
                sizes = hz.jump_sizes.copy()

                def q_of(jump):
                    trial_sizes = sizes.copy()
                    trial_sizes[j] = jump
                    trial = StepHazard(hz.jump_times, trial_sizes)
                    baselines = [new_state.lambda01, new_state.lambda02, new_state.lambda03]
                    baselines[g] = trial
                    st = ModelState(*baselines, theta=state.theta, risk_model=state.risk_model)
                    return q_function(ds, post, st).total

                best = golden_section_max(q_of, 1e-6, max(5.0, 10 * sizes[j]))
                # the oracle's indifference zone is ~sqrt(eps |Q| / |Q''|),
                # about 2e-8 here; the stationarity test below carries the
                # sharp 1e-10 criterion
                assert best == pytest.approx(hz.jump_sizes[j], abs=2e-8, rel=1e-6)
                assert q_of(hz.jump_sizes[j]) >= q_of(best) - 1e-10

    def test_mstep_stationarity_scores(self):
        # the score of Q w.r.t. each jump vanishes at the update
        rng = np.random.default_rng(31)
        for _ in range(5):
            ds = random_dataset(rng, n=60)
            state = event_anchored_state(rng, ds)
            post = posterior(ds, state)
            b1, b2, b3 = m_step(ds, post, state)
            h = state.risk_values(ds.x)
            ev2 = (1 - ds.delta1) * ds.delta2
            ev3 = ds.delta1 * ds.delta2
            specs = [
                (b1, ds.y1[ds.delta1 == 1], ds.y1, post.mean * np.exp(h[:, 0])),
                (b2, ds.y2[ev2 == 1], ds.y1, post.mean * np.exp(h[:, 1])),
                (b3, ds.sojourn[ev3 == 1], ds.sojourn[ds.delta1 == 1],
                 (post.mean * np.exp(h[:, 2]))[ds.delta1 == 1]),
            ]
            for hz, ev_times, risk_times, weights in specs:
                for j, t in enumerate(hz.jump_times):
                    d = np.sum(ev_times == t)
                    denom = np.sum(weights[risk_times >= t])
                    score = d / hz.jump_sizes[j] - denom
                    assert abs(score) < 1e-10 * max(1.0, denom)

    def test_idempotent_with_fixed_posteriors(self):
        rng = np.random.default_rng(41)
        ds = random_dataset(rng, n=50)
        state = event_anchored_state(rng, ds)
        post = posterior(ds, state)
        first = m_step(ds, post, state)
        state2 = ModelState(*first, theta=state.theta, risk_model=state.risk_model)
        second = m_step(ds, post, state2)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.jump_times, b.jump_times)
            np.testing.assert_allclose(a.jump_sizes, b.jump_sizes, rtol=1e-15)


class TestNelsonAalen:
    def test_textbook_values(self):
        # transition-1 events at 1.0 and 2.0; third subject censored at 3.0
        ds = Dataset(
            [1.0, 2.0, 3.0], [1.0, 1.0, 0.0], [2.5, 2.8, 3.0], [1.0, 1.0, 0.0],
            np.zeros((3, 0)),
        )
        b1, b2, b3 = nelson_aalen_seed(ds)
        np.testing.assert_allclose(b1.jump_times, [1.0, 2.0])
        np.testing.assert_allclose(b1.jump_sizes, [1.0 / 3.0, 1.0 / 2.0])

    def test_no_transition3_events_gives_empty(self):
        ds = Dataset([1.0], [1.0], [2.0], [0.0], np.zeros((1, 0)))
        _, _, b3 = nelson_aalen_seed(ds)
        assert len(b3.jump_times) == 0
        assert b3.cumulative(5.0) == 0.0

    def test_equals_mstep_with_unit_frailty_zero_risk(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, n=70)
        state = ModelState(
            StepHazard.empty(), StepHazard.empty(), StepHazard.empty(),
            theta=1.0, risk_model=ZeroRisk(),
        )
        seeded = nelson_aalen_seed(ds)
        stepped = m_step(ds, unit_posterior(ds.n), state)
        for a, b in zip(seeded, stepped):
            np.testing.assert_array_equal(a.jump_times, b.jump_times)
            np.testing.assert_allclose(a.jump_sizes, b.jump_sizes, rtol=1e-15)


class TestRunEM:
    def test_monotone_loglik_fixed_h_theta(self):
        # E+M cycles with h and theta held fixed never decrease the observed
        # log likelihood (20 random datasets)
        rng = np.random.default_rng(101)
        for k in range(20):
            ds = random_dataset(rng, n=rng.integers(30, 90), censoring=rng.uniform(0.1, 0.6))
            spec = FixedRiskSpec(ZeroRisk(), update_theta=False, theta_init=float(rng.uniform(0.3, 2.0)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = run_em(ds, spec, EMConfig(max_iterations=25, tolerance=1e-12, seed=k))
            lls = np.array([r["obs_loglik"] for r in res.trace])
            assert np.all(np.diff(lls) >= -1e-10), f"dataset {k} not monotone"

    def test_monotone_with_theta_updates(self):
        rng = np.random.default_rng(55)
        ds = random_dataset(rng, n=120, censoring=0.3)
        spec = FixedRiskSpec(ZeroRisk(), update_theta=True, theta_init=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_em(ds, spec, EMConfig(max_iterations=60, tolerance=1e-12, seed=0))
        lls = np.array([r["obs_loglik"] for r in res.trace])
        assert np.all(np.diff(lls) >= -1e-10)

    def test_theta_seed_comes_from_parametric_fit(self, linear_sim_small):
        ds, _ = linear_sim_small
        from neuralscr.weibull import fit_parametric

        expected = fit_parametric(ds).theta
        spec = LinearRiskSpec()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_em(ds, spec, EMConfig(max_iterations=2, tolerance=1e-12, seed=0))
        assert res.theta_init == pytest.approx(expected, rel=1e-9)

    def test_trace_schema(self, linear_sim_small):
        ds, _ = linear_sim_small
        spec = FixedRiskSpec(ZeroRisk(), update_theta=True, theta_init=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_em(ds, spec, EMConfig(max_iterations=3, tolerance=1e-12, seed=0))
        rows = res.trace_rows()
        assert rows[0][0] == 1
        assert len(rows[0]) == 7
        qv = res.trace[-1]
        assert qv["q1"] + qv["q2"] + qv["q3"] + qv["q4"] == pytest.approx(
            sum(res.trace[-1][k] for k in ("q1", "q2", "q3", "q4"))
        )

    def test_one_baseline_lookup_and_one_risk_evaluation_per_iteration(self, monkeypatch):
        from neuralscr.core import LinearRisk

        calls = {"cumulative": 0, "hazard_at": 0, "values": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(StepHazard, "cumulative")
        counted(StepHazard, "hazard_at")
        counted(LinearRisk, "values")
        ds = random_dataset(np.random.default_rng(8), n=60, p=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_em(ds, LinearRiskSpec(theta_init=0.8),
                         EMConfig(max_iterations=4, tolerance=1e-300, seed=0))
        k = res.n_iterations
        assert k == 4
        # per iteration: the three baselines at the data once after the M-step
        # and h once after the N-step; the seeding evaluation adds one of each
        assert calls == {"cumulative": 3 * k + 3, "hazard_at": 3 * k + 3, "values": k + 1}

    def test_theta_recovery_linear_em(self):
        # desk-scale replication: simulated linear data, theta 0.5,
        # no censoring; fitted theta lands in [0.35, 0.65]
        ds, _ = simulate(SimConfig(n=2000, theta=0.5, risk_kind="linear", seed=5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_em(ds, LinearRiskSpec(), EMConfig(max_iterations=250, tolerance=1e-8, seed=0))
        assert 0.35 <= res.state.theta <= 0.65


class TestThetaUpdate:
    def test_q4_maximizer_matches_grid(self):
        rng = np.random.default_rng(61)
        post = FrailtyPosterior(
            a_tilde=rng.uniform(1, 5, 40), b_tilde=rng.uniform(1, 5, 40),
            mean=rng.uniform(0.4, 2.0, 40), log_mean=rng.normal(-0.2, 0.4, 40),
        )
        from neuralscr.em import q4_value

        best = maximize_q4_theta(post)
        grid = np.exp(np.linspace(math.log(1e-4), math.log(100), 4000))
        vals = [q4_value(math.log(t), post.mean, post.log_mean) for t in grid]
        assert q4_value(math.log(best), post.mean, post.log_mean) >= max(vals) - 1e-6
