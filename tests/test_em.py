import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from neuralscr import _kernels, em, likelihood
from neuralscr.core import (
    Dataset, EventGrid, LinearRisk, ModelState, StepHazard, ZeroRisk, validate_dataset,
)
from neuralscr.em import (
    EMConfig,
    FixedRiskSpec,
    LinearRiskSpec,
    NonFiniteQError,
    m_step,
    maximize_q4_theta,
    nelson_aalen_seed,
    q4_value,
    q_function,
    run_em,
)
from neuralscr.frailty import FrailtyPosterior, posterior
from neuralscr.likelihood import SubjectTerms, complete_data_log_likelihood
from neuralscr.neural import NeuralRiskSpec, TrainConfig
from neuralscr.simulate import SimConfig, simulate

from conftest import event_anchored_state, random_dataset, reference_breslow_jumps


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

    def test_linear_theta_seed_is_one_without_a_parametric_fit(self, monkeypatch,
                                                                linear_sim_small):
        from neuralscr import harness, weibull

        def refuse(*args, **kwargs):
            raise AssertionError("the linear fit ran a parametric fit")

        monkeypatch.setattr(weibull, "fit_parametric", refuse)
        ds, _ = linear_sim_small
        assert LinearRiskSpec().initial_theta(ds) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fitted = harness.fit_model(ds, "linear", EMConfig(max_iterations=2))
            seeded = harness.fit_model(ds, "linear", EMConfig(max_iterations=2), theta_init=0.3)
        assert fitted.theta_init == 1.0 and seeded.theta_init == 0.3

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

    @pytest.mark.parametrize("accelerated", [True, False])
    def test_one_baseline_lookup_and_one_risk_evaluation_per_iteration(self, monkeypatch,
                                                                       accelerated):
        calls = {"cumulative": 0, "hazard_at": 0, "grid.cumulative": 0, "grid.hazard_at": 0,
                 "values": 0, "breslow_index": 0, "event_log_terms": 0, "points": 0}

        def counted(owner, name, key=None):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[key or name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(StepHazard, "cumulative")
        counted(StepHazard, "hazard_at")
        counted(EventGrid, "cumulative", "grid.cumulative")
        counted(EventGrid, "hazard_at", "grid.hazard_at")
        counted(LinearRisk, "values")
        counted(_kernels, "breslow_index")
        counted(likelihood, "event_log_terms")
        counted(em, "evaluate_grid_terms", "points")
        ds = random_dataset(np.random.default_rng(8), n=60, p=2)
        if accelerated:
            spec = LinearRiskSpec(theta_init=0.8)
        else:
            spec = FixedRiskSpec(LinearRisk(np.full((3, 2), 0.3)), update_theta=True,
                                 theta_init=0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_em(ds, spec, EMConfig(max_iterations=4, tolerance=1e-300, seed=0))
        k = res.n_iterations
        assert k == 4
        # per pass: the three baselines at the data once after the M-step and
        # h once after the N-step; the seeding evaluation adds one of each,
        # and so does each point SQUAREM extrapolates to (the linear fit's
        # third pass starts from one).  The lookups go through the event
        # grids, which are indexed once per dataset (one breslow_index per
        # transition), not once per pass; the observed and expected log
        # likelihoods share one event-term pass.
        e = calls["points"] - 1
        assert e == (1 if accelerated else 0)
        assert calls == {"cumulative": 0, "hazard_at": 0,
                         "grid.cumulative": 3 * (k + 1 + e), "grid.hazard_at": 3 * (k + 1 + e),
                         "values": k + 1 + e, "breslow_index": 3, "event_log_terms": k,
                         "points": 1 + e}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_em(ds, spec, EMConfig(max_iterations=2, tolerance=1e-300, seed=0))
        assert calls["breslow_index"] == 3

    @pytest.mark.parametrize("kind, pairs", [("linear", 0), ("neural", 0), ("parametric", 3)])
    def test_only_the_parametric_kind_runs_the_optimizer(self, monkeypatch, kind, pairs):
        # the neural spec seeds theta from a linear-risk EM fit and the linear
        # spec starts at 1.0, so neither calls scipy's minimize; the
        # parametric kind keeps its three L-BFGS-B + BFGS restarts
        import scipy.optimize

        from neuralscr import harness

        methods = []
        original = scipy.optimize.minimize

        def counted(*args, **kwargs):
            methods.append(kwargs["method"])
            return original(*args, **kwargs)

        # weibull imports minimize from scipy.optimize at call time
        monkeypatch.setattr(scipy.optimize, "minimize", counted)
        ds = random_dataset(np.random.default_rng(9), n=60, p=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            harness.fit_model(ds, kind, EMConfig(max_iterations=1, n_step_epochs_per_iteration=1))
        assert methods == ["L-BFGS-B", "BFGS"] * pairs

    def test_theta_recovery_linear_em(self):
        # desk-scale replication: simulated linear data, theta 0.5,
        # no censoring; fitted theta lands in [0.35, 0.65]
        ds, _ = simulate(SimConfig(n=2000, theta=0.5, risk_kind="linear", seed=5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_em(ds, LinearRiskSpec(), EMConfig(max_iterations=250, tolerance=1e-8, seed=0))
        assert 0.35 <= res.state.theta <= 0.65

    @pytest.mark.parametrize("theta", [0.1, 0.5, 2.0, 4.0])
    def test_constant_seed_converges_far_from_the_truth(self, theta):
        # the linear fit starts at theta = 1 whatever the truth
        from neuralscr import harness

        ds, _ = simulate(SimConfig(n=500, theta=theta, risk_kind="linear", seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", em.NonConvergenceWarning)
            fitted = harness.fit_model(ds, "linear", seed=1)
        assert fitted.converged and fitted.theta_init == 1.0
        lls = np.array([row[1] for row in fitted.trace_rows])
        assert np.all(np.diff(lls) >= -1e-10 * np.abs(lls[:-1]))


class TestNewtonStop:
    def test_a_converged_transition_takes_no_step(self, monkeypatch):
        # after a fit run to a tight tolerance and the E- and M-steps of one
        # more pass, each transition's first Newton decrement is below
        # rounding: it solves once, evaluates Q_g once and tries no step,
        # let alone a halved one
        ds, _ = simulate(SimConfig(n=300, theta=0.8, risk_kind="linear",
                                   censoring_target=0.3, seed=5))
        spec = LinearRiskSpec()
        state = quiet_run_em(ds, spec, EMConfig(tolerance=1e-10)).state
        terms = likelihood.evaluate_terms(ds, state)
        post = em.e_step(ds, terms, state.theta)
        b1, b2, b3 = em.breslow_baselines(ds, post.mean[:, None] * terms.eh)
        state = replace(state, lambda01=b1, lambda02=b2, lambda03=b3)
        calls = {"solve": 0, "exp": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(np.linalg, "solve")
        counted(np, "exp")
        risk, _ = spec.update(ds, terms.with_baselines(ds, state), post, state, EMConfig(), 1)
        assert calls["solve"] <= 3 and calls["exp"] <= 3
        assert np.max(np.abs(risk.beta - state.risk_model.beta)) <= 1e-8

    def test_a_non_ascent_direction_leaves_beta_unchanged(self):
        # a ridge of -100 makes the Newton matrix negative definite, so every
        # Newton direction descends and the loop stops before its first step
        ds = random_dataset(np.random.default_rng(8), n=60)
        rng = np.random.default_rng(3)
        state = event_anchored_state(rng, ds, theta=0.7)
        terms = likelihood.evaluate_terms(ds, state)
        post = em.e_step(ds, terms, state.theta)
        spec = LinearRiskSpec(ridge=-100.0)
        x = ds.x
        for g in range(3):
            w = post.mean * terms.lam[g] * terms.eh[:, g]
            grad = x.T @ (ds.transitions.event[g] - w)
            hess = (x * w[:, None]).T @ x - 100.0 * np.eye(ds.p)
            assert grad @ np.linalg.solve(hess, grad) < 0
        risk, _ = spec.update(ds, terms, post, state, EMConfig(), 1)
        np.testing.assert_array_equal(risk.beta, state.risk_model.beta)


class TestStopReason:
    @pytest.mark.parametrize("neural", [False, True])
    def test_capped_and_converged_fits(self, neural):
        ds = random_dataset(np.random.default_rng(12), n=60)
        if neural:
            spec = NeuralRiskSpec(TrainConfig(dropout_fraction=0.0, hidden_layers=1, nodes=4,
                                              seed=1), theta_init=0.7)
        else:
            spec = LinearRiskSpec(theta_init=0.7)
        with pytest.warns(em.NonConvergenceWarning):
            capped = run_em(ds, spec, EMConfig(max_iterations=3, tolerance=1e-300,
                                               n_step_epochs_per_iteration=2))
        assert capped.stop_reason == "cap" and not capped.converged
        assert capped.n_iterations == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error", em.NonConvergenceWarning)
            done = run_em(ds, spec, EMConfig(max_iterations=400, tolerance=1e-4,
                                             n_step_epochs_per_iteration=2))
        assert done.stop_reason == "tolerance" and done.converged
        assert done.n_iterations < 400
        for res in (capped, done):
            iters = [row["iter"] for row in res.trace]
            assert res.n_iterations >= len(res.trace)
            assert iters == sorted(set(iters)) and iters[-1] <= res.n_iterations


@st.composite
def linear_datasets(draw):
    """Small illness-death datasets from the linear-risk gamma-frailty model
    (theta 0.5, coefficients in [-1, 1], about 30% censored)."""
    return linear_dataset(draw(st.integers(40, 120)), draw(st.integers(1, 2)),
                          draw(st.integers(0, 2**32 - 1)))


def linear_dataset(n, p, seed):
    """One draw of :func:`linear_datasets`."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    rate = rng.gamma(2.0, 0.5, size=(n, 1)) * np.exp(x @ rng.uniform(-1, 1, size=(3, p)).T)
    t1, t2_direct, soj = (rng.exponential(1.0 / rate[:, g]) for g in range(3))
    prog = t1 < t2_direct
    t_death = np.where(prog, t1 + soj, t2_direct)
    c = rng.exponential(3.0, size=n)
    y2 = np.minimum(t_death, c)
    t_prog = np.where(prog, t1, np.inf)
    return validate_dataset(Dataset(np.minimum(t_prog, y2), (t_prog <= y2).astype(float), y2,
                                    (t_death <= c).astype(float), x))


def plain_em(ds, spec, config):
    """Plain EM, the reference for the accelerated loop: one E -> M -> N pass
    per iteration through the per-call term evaluation, stopped by the
    tolerance after every pass.  Returns the final state and the log
    likelihood after each pass."""
    state = ModelState(*nelson_aalen_seed(ds), theta=spec.initial_theta(ds),
                       risk_model=spec.initial_risk_model(ds, np.random.default_rng(config.seed)))
    lls = []
    for iteration in range(1, config.max_iterations + 1):
        terms = likelihood.evaluate_terms(ds, state)
        post = em.e_step(ds, terms, state.theta)
        b1, b2, b3 = em.breslow_baselines(ds, post.mean[:, None] * terms.eh)
        state = replace(state, lambda01=b1, lambda02=b2, lambda03=b3)
        risk, theta = spec.update(ds, likelihood.evaluate_terms(ds, state), post, state, config,
                                  iteration)
        state = replace(state, risk_model=risk, theta=theta)
        lls.append(likelihood.observed_log_likelihood(ds, state))
        if len(lls) > 1 and abs(lls[-1] - lls[-2]) <= config.tolerance * max(1.0, abs(lls[-2])):
            break
    return state, lls


def quiet_run_em(ds, spec, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_em(ds, spec, config)


class TestSquarem:
    """The accelerated linear fit against plain EM."""

    @settings(max_examples=40, deadline=None)
    @given(ds=linear_datasets())
    # transition 3's coefficients diverge, and its Breslow risk sums once
    # cancelled: pass 76 lost 2.3e-4 of log likelihood
    @example(ds=linear_dataset(40, 2, 4338486))
    def test_trace_log_likelihood_never_falls(self, ds):
        res = quiet_run_em(ds, LinearRiskSpec(theta_init=0.7),
                           EMConfig(max_iterations=300, tolerance=1e-8))
        lls = np.array([row["obs_loglik"] for row in res.trace])
        assert np.all(np.diff(lls) >= -1e-10 * np.abs(lls[:-1]))

    @settings(max_examples=30, deadline=None)
    @given(ds=linear_datasets(), cap=st.integers(1, 6))
    def test_passes_never_exceed_the_cap(self, ds, cap):
        res = quiet_run_em(ds, LinearRiskSpec(theta_init=0.7),
                           EMConfig(max_iterations=cap, tolerance=1e-300))
        iters = [row["iter"] for row in res.trace]
        assert res.n_iterations == cap
        assert iters == sorted(set(iters)) and iters[-1] <= cap

    @settings(max_examples=20, deadline=None)
    @given(ds=linear_datasets())
    def test_ends_no_lower_than_plain_em(self, ds):
        spec = LinearRiskSpec(theta_init=0.7)
        config = EMConfig(max_iterations=500, tolerance=1e-6)
        res = quiet_run_em(ds, spec, config)
        _, lls = plain_em(ds, spec, config)
        final = res.trace[-1]["obs_loglik"]
        assert final >= lls[-1] - config.tolerance * max(1.0, abs(lls[-1]))

    def test_a_rejected_extrapolation_keeps_x2(self, monkeypatch):
        # every extrapolated point fails, so each cycle ends at its second
        # plain pass, and the kept passes are plain EM's, one for one
        def reject(*args):
            raise FloatingPointError("extrapolation rejected")

        monkeypatch.setattr(em, "_state_at", reject)
        ds = random_dataset(np.random.default_rng(8), n=60)
        spec = LinearRiskSpec(theta_init=0.7)
        res = quiet_run_em(ds, spec, EMConfig(max_iterations=12, tolerance=1e-300))
        state, lls = plain_em(ds, spec, EMConfig(max_iterations=len(res.trace), tolerance=1e-300))
        assert [row["obs_loglik"] for row in res.trace] == lls
        assert res.n_iterations == 12 and len(res.trace) < 12
        np.testing.assert_array_equal(res.state.risk_model.beta, state.risk_model.beta)
        assert res.state.theta == state.theta


class TestThetaUpdate:
    def test_q4_maximizer_matches_grid(self):
        rng = np.random.default_rng(61)
        post = FrailtyPosterior(
            a_tilde=rng.uniform(1, 5, 40), b_tilde=rng.uniform(1, 5, 40),
            mean=rng.uniform(0.4, 2.0, 40), log_mean=rng.normal(-0.2, 0.4, 40),
        )
        best = maximize_q4_theta(post)
        grid = np.exp(np.linspace(math.log(1e-4), math.log(100), 4000))
        vals = [q4_value(math.log(t), post.mean, post.log_mean) for t in grid]
        assert q4_value(math.log(best), post.mean, post.log_mean) >= max(vals) - 1e-6

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 400), log_theta=st.floats(-12.0, 7.0),
           scale=st.floats(1e-3, 1e3), consistent=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_search_equals_scipy_bounded_minimize_scalar(self, n, log_theta, scale, consistent,
                                                         seed):
        # posteriors from the E-step's formulas at a random theta, or
        # arbitrary moments, which also put the maximum on a bound
        rng = np.random.default_rng(seed)
        if consistent:
            inv_t = math.exp(-log_theta)
            a, psi_a, _ = _kernels.gamma_shapes(inv_t)
            count = rng.integers(0, 3, n)
            b = inv_t + rng.exponential(scale, n)
            post = FrailtyPosterior(a_tilde=a[count], b_tilde=b, mean=a[count] / b,
                                    log_mean=psi_a[count] - np.log(b))
        else:
            post = FrailtyPosterior(a_tilde=np.ones(n), b_tilde=np.ones(n),
                                    mean=scale * rng.uniform(0.01, 1.0, n),
                                    log_mean=rng.normal(log_theta / 4.0, 1.0, n))
        res = minimize_scalar(lambda xi: -q4_value(xi, post.mean, post.log_mean),
                              bounds=em.LOG_THETA_BOUNDS, method="bounded",
                              options={"xatol": 1e-10})
        assert maximize_q4_theta(post) == float(math.exp(res.x))

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-50.0, 50.0), width=st.floats(1e-6, 100.0), centre=st.floats(-60.0, 160.0),
           amp=st.floats(0.0, 5.0), freq=st.floats(0.0, 20.0),
           xatol=st.sampled_from([1e-10, 1e-5, 1e-2]), maxfun=st.sampled_from([2, 5, 500]))
    def test_bounded_minimum_takes_scipys_steps(self, lo, width, centre, amp, freq, xatol,
                                                maxfun):
        # every evaluation point, the cap on their number included, is scipy's
        def recorder(points):
            def f(x):
                points.append(float(x))
                return (float(x) - centre) ** 2 + amp * math.sin(freq * float(x))
            return f

        ours, scipys = [], []
        best = em.bounded_minimum(recorder(ours), lo, lo + width, xatol=xatol, maxfun=maxfun)
        res = minimize_scalar(recorder(scipys), bounds=(lo, lo + width), method="bounded",
                              options={"xatol": xatol, "maxiter": maxfun})
        assert ours == scipys
        assert best == res.x


@st.composite
def tied_datasets(draw, max_n=30):
    """Valid censored illness-death data on a coarse time grid (ties among
    event and exposure times); `progression=False` leaves transitions 1
    and 3 without events."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    progression = draw(st.booleans())
    t1 = rng.integers(1, 9, n) * 0.25
    soj = rng.integers(1, 6, n) * 0.25
    t2_direct = rng.integers(1, 9, n) * 0.25
    c = rng.integers(1, 11, n) * 0.25
    prog = (t1 < t2_direct) & progression
    t_death = np.where(prog, t1 + soj, t2_direct)
    y2 = np.minimum(t_death, c)
    d2 = (t_death <= c).astype(float)
    y1 = np.minimum(np.where(prog, t1, np.inf), y2)
    d1 = (prog & (t1 <= y2)).astype(float)
    return validate_dataset(Dataset(y1, d1, y2, d2, rng.standard_normal((n, 2))))


def reference_breslow_baselines(dataset, weights):
    """The M-step through per-call sorting and searching."""
    tr = dataset.transitions
    out = []
    for g in range(3):
        ev_times = tr.event_time[g][tr.event[g] > 0]
        if len(ev_times) == 0:
            out.append(StepHazard.empty())
            continue
        risk = tr.at_risk[g]
        out.append(StepHazard(*reference_breslow_jumps(
            ev_times, tr.exposure[g][risk], weights[risk, g])))
    return tuple(out)


def reference_linear_update(self, dataset, terms, posteriors, state, config, iteration):
    """The linear N-step re-evaluating Q_g, e^{x'b} and the posterior sums
    at every use."""
    x = dataset.x
    beta = np.array(state.risk_model.beta, dtype=float)
    lam = terms.lam
    evs = dataset.transitions.event

    def q_part(g, b):
        with np.errstate(over="ignore"):
            val = np.sum(evs[g] * (x @ b)) - np.sum(posteriors.mean * lam[g] * np.exp(x @ b))
        return val if np.isfinite(val) else -np.inf

    for g in range(3):
        for _ in range(self.newton_steps):
            w = posteriors.mean * lam[g] * np.exp(x @ beta[g])
            grad = x.T @ (evs[g] - w)
            hess = (x * w[:, None]).T @ x + self.ridge * np.eye(dataset.p)
            step = np.linalg.solve(hess, grad)
            current = q_part(g, beta[g])
            if grad @ step <= 1e-12 * max(1.0, abs(current)):
                break
            for _ in range(30):
                if q_part(g, beta[g] + step) >= current:
                    break
                step *= 0.5
            else:
                break
            beta[g] += step
    res = minimize_scalar(lambda xi: -q4_value(xi, posteriors.mean, posteriors.log_mean),
                          bounds=em.LOG_THETA_BOUNDS, method="bounded", options={"xatol": 1e-10})
    return LinearRisk(beta), float(math.exp(res.x))


def reference_lookups(self, dataset, state):
    return replace(self, **likelihood._baseline_lookups(dataset, state))


class TestEventGrids:
    @settings(max_examples=100, deadline=None)
    @given(ds=tied_datasets(), seed=st.integers(0, 2**32 - 1))
    def test_grid_lookups_equal_the_per_call_ones(self, ds, seed):
        weights = np.random.default_rng(seed).uniform(0.1, 3.0, size=(ds.n, 3))
        tr = ds.transitions
        for g, (grid, hz, ref) in enumerate(zip(ds.event_grids,
                                                em.breslow_baselines(ds, weights),
                                                reference_breslow_baselines(ds, weights))):
            np.testing.assert_array_equal(hz.jump_times, ref.jump_times)
            np.testing.assert_array_equal(hz.jump_sizes, ref.jump_sizes)
            np.testing.assert_array_equal(grid.cumulative(hz), hz.cumulative(tr.exposure[g]))
            np.testing.assert_array_equal(grid.hazard_at(hz), hz.hazard_at(tr.event_time[g]))

    def test_grid_rejects_a_baseline_off_its_event_times(self):
        ds = random_dataset(np.random.default_rng(3), n=40)
        grid = ds.event_grids[0]
        shifted = StepHazard(grid.times + 1e-3, np.ones(len(grid.times)))
        with pytest.raises(ValueError):
            grid.cumulative(shifted)
        with pytest.raises(ValueError):
            grid.hazard_at(shifted)

    def test_grids_are_cached_and_read_only(self):
        ds = random_dataset(np.random.default_rng(4), n=40)
        assert ds.event_grids is ds.event_grids
        with pytest.raises(ValueError):
            ds.event_grids[2].rank[0] = 1

    @staticmethod
    def fit(ds, spec, k):
        config = EMConfig(max_iterations=k, tolerance=1e-300, n_step_epochs_per_iteration=3, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                res = run_em(ds, spec, config)
            except (ArithmeticError, ValueError) as err:
                return type(err).__name__
        rm = res.state.risk_model
        params = [rm.beta] if hasattr(rm, "beta") else [
            a for net in rm.networks for a in net.weights + net.biases]
        return (res.trace_rows(), res.state.theta,
                [b.jump_sizes for b in res.state.baselines], params)

    @settings(max_examples=25, deadline=None)
    @given(ds=tied_datasets(), neural=st.booleans(), k=st.integers(1, 4))
    @example(ds=random_dataset(np.random.default_rng(8), n=60), neural=True, k=3)
    def test_run_em_equals_the_per_call_reference(self, ds, neural, k):
        # the reference sorts and searches in every M-step and lookup, and
        # its linear N-step re-evaluates what the line search already has
        if neural:
            spec = NeuralRiskSpec(TrainConfig(dropout_fraction=0.1, hidden_layers=1, nodes=4,
                                              seed=2), theta_init=0.7)
        else:
            spec = LinearRiskSpec(theta_init=0.7)
        fast = self.fit(ds, spec, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(em, "breslow_baselines", reference_breslow_baselines)
            mp.setattr(em, "evaluate_grid_terms", likelihood.evaluate_terms)
            mp.setattr(SubjectTerms, "with_baselines", reference_lookups)
            mp.setattr(LinearRiskSpec, "update", reference_linear_update)
            slow = self.fit(ds, spec, k)
        self.assert_same(fast, slow)

    @staticmethod
    def assert_same(fast, slow):
        if isinstance(slow, str):
            assert fast == slow
            return
        assert fast[0] == slow[0]
        assert fast[1] == slow[1]
        for a, b in zip(fast[2] + fast[3], slow[2] + slow[3]):
            np.testing.assert_array_equal(a, b)
