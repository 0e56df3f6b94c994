"""Acceptance suite: one test per criterion, printed pass/fail lines.

Scales and tolerances are pinned here; nothing is deferred to later
calibration.  Heavy fits use the package's standard study configuration
(32x2 relu sub-networks, l2 1e-3, no dropout, learning rate 1e-3, 80 EM
iterations x 10 epochs) with theta seeded from the parametric fit.
"""

import math
import time
import warnings

import numpy as np
from scipy.integrate import quad

from neuralscr.core import ZeroRisk
from neuralscr.em import EMConfig, FixedRiskSpec, m_step, run_em
from neuralscr.frailty import posterior
from neuralscr.harness import cv, fit_model, replicate_study
from neuralscr.likelihood import (
    complete_data_log_likelihood,
    evaluate_terms,
    observed_log_likelihood,
)
from neuralscr.metrics import ExponentialCensoring, bbs
from neuralscr.neural import TrainConfig, loss_gradients
from neuralscr.simulate import SimConfig, risk_values, simulate, true_survival

from conftest import event_anchored_state, random_dataset, worst_gradient_error
from test_neural import neural_state

warnings.filterwarnings("ignore")

ACCEPT_SEED = 20240808

STUDY_EM = EMConfig(max_iterations=80, tolerance=1e-6, n_step_epochs_per_iteration=10,
                    seed=ACCEPT_SEED)
STUDY_TRAIN = TrainConfig(nodes=32, hidden_layers=2, l2_rate=1e-3,
                          dropout_fraction=0.0, learning_rate=1e-3, seed=ACCEPT_SEED)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def fit_both(dataset, seed, em_config=STUDY_EM, train_config=STUDY_TRAIN):
    par = fit_model(dataset, "parametric", seed=seed)
    nn = fit_model(dataset, "neural", em_config=em_config, train_config=train_config,
                   seed=seed, theta_init=par.theta)
    return par, nn


class TestCriterion1BBSValidation:
    def test_table1_settings(self):
        t0 = time.time()
        rows = replicate_study(
            "bbs-validation", replicates=200, seed=ACCEPT_SEED, n=1000, settings=[1, 3],
        )
        elapsed = time.time() - t0
        by_setting = {r["setting"]: r for r in rows}
        s1 = by_setting[1]["true_ibbs_mean"]
        s3 = by_setting[3]["calculated_ibbs_mean"]
        ok1 = abs(s1 - 0.0187) <= 0.002
        ok3 = abs(s3 - 0.0219) <= 0.002
        ok_time = elapsed < 600
        ok = report(
            "criterion 1 (Table-1 iBBS)",
            ok1 and ok3 and ok_time,
            f"setting1 true iBBS {s1:.4f} (target 0.0187 +/- 0.002), "
            f"setting3 calculated iBBS {s3:.4f} (target 0.0219 +/- 0.002), "
            f"runtime {elapsed:.0f}s (< 600s)",
        )
        assert ok


class TestCriterion2ThetaRecovery:
    def test_frailty_variance_means(self):
        reps = 50
        par_thetas = np.empty(reps)
        nn_thetas = np.empty(reps)
        for r in range(reps):
            ds, _ = simulate(SimConfig(n=2000, theta=0.5, risk_kind="linear",
                                       seed=ACCEPT_SEED + 1000 + r))
            par, nn = fit_both(ds, seed=ACCEPT_SEED + r)
            par_thetas[r] = par.theta
            nn_thetas[r] = nn.theta
        pm, nm = par_thetas.mean(), nn_thetas.mean()
        ok_par = 0.44 <= pm <= 0.54
        ok_nn = 0.40 <= nm <= 0.60
        ok = report(
            "criterion 2 (theta recovery)",
            ok_par and ok_nn,
            f"parametric mean theta {pm:.3f} (SD {par_thetas.std(ddof=1):.3f}, "
            f"target [0.44, 0.54]); neural mean theta {nm:.3f} "
            f"(SD {nn_thetas.std(ddof=1):.3f}, target [0.40, 0.60])",
        )
        assert ok


class TestCriterion3MISEOrdering:
    def test_mise_ordering(self):
        seeds = range(10)
        par_above_1 = 0
        nn_below_half = 0
        par_worst = []
        nn_worst = []
        for s in seeds:
            ds, _ = simulate(SimConfig(n=1000, theta=0.5, risk_kind="nonmonotonic",
                                       seed=ACCEPT_SEED + 2000 + s))
            par, nn = fit_both(ds, seed=ACCEPT_SEED + 100 + s)
            h_true = risk_values("nonmonotonic", ds.x)
            par_mise = [float(np.mean((par.h_values(ds.x)[:, g] - h_true[:, g]) ** 2))
                        for g in range(3)]
            nn_mise = [float(np.mean((nn.h_values(ds.x)[:, g] - h_true[:, g]) ** 2))
                       for g in range(3)]
            par_worst.append(max(par_mise))
            nn_worst.append(max(nn_mise))
            if min(par_mise) > 1.0:
                par_above_1 += 1
            if max(nn_mise) < 0.5:
                nn_below_half += 1

        linear_ok = True
        lin_vals = []
        for s in range(3):
            ds, _ = simulate(SimConfig(n=1000, theta=0.5, risk_kind="linear",
                                       seed=ACCEPT_SEED + 3000 + s))
            par = fit_model(ds, "parametric", seed=s)
            h_true = risk_values("linear", ds.x)
            vals = [float(np.mean((par.h_values(ds.x)[:, g] - h_true[:, g]) ** 2))
                    for g in range(3)]
            lin_vals.append(max(vals))
            linear_ok = linear_ok and max(vals) < 0.05

        ok_par = par_above_1 >= 8
        ok_nn = nn_below_half >= 8
        ok = report(
            "criterion 3 (MISE ordering)",
            ok_par and ok_nn and linear_ok,
            f"parametric MISE > 1.0 in {par_above_1}/10 seeds "
            f"(median worst {np.median(par_worst):.2f}); "
            f"neural MISE < 0.5 in {nn_below_half}/10 seeds "
            f"(median worst {np.median(nn_worst):.2f}); "
            f"linear-data parametric MISE {max(lin_vals):.3f} (< 0.05)",
        )
        assert ok


class TestCriterion4BaselineEnvelope:
    def test_envelope_brackets_truth(self):
        reps = 20
        curves = {0: [], 1: [], 2: []}
        event_pools = {0: [], 1: [], 2: []}
        for r in range(reps):
            ds, _ = simulate(SimConfig(n=2000, theta=0.5, risk_kind="nonmonotonic",
                                       censoring_target=0.25,
                                       seed=ACCEPT_SEED + 4000 + r))
            _, nn = fit_both(ds, seed=ACCEPT_SEED + 200 + r)
            ev2 = (1 - ds.delta1) * ds.delta2
            ev3 = ds.delta1 * ds.delta2
            event_pools[0].append(ds.y1[ds.delta1 == 1])
            event_pools[1].append(ds.y2[ev2 == 1])
            event_pools[2].append(ds.sojourn[ev3 == 1])
            for g, hz in enumerate(nn.baselines()):
                curves[g].append(hz)

        truth_fns = (lambda t: 2.0 * t**2.25, lambda t: 2.0 * t**2.25,
                     lambda t: 0.75 * t**2.0)
        total = 0
        covered = 0
        per_transition = []
        for g in range(3):
            t80 = np.quantile(np.concatenate(event_pools[g]), 0.8)
            grid = np.linspace(t80 / 100, t80, 100)
            vals = np.vstack([hz.cumulative(grid) for hz in curves[g]])
            lo = np.percentile(vals, 2.5, axis=0)
            hi = np.percentile(vals, 97.5, axis=0)
            truth = truth_fns[g](grid)
            inside = (truth >= lo) & (truth <= hi)
            covered += int(inside.sum())
            total += len(grid)
            per_transition.append(float(inside.mean()))
        coverage = covered / total
        ok = report(
            "criterion 4 (baseline envelope)",
            coverage >= 0.85,
            f"truth inside the 2.5-97.5 envelope at {coverage:.1%} of grid points "
            f"(per transition: {[f'{c:.0%}' for c in per_transition]}, target >= 85%)",
        )
        assert ok


class TestCriterion5PropertySuite:
    def test_a_gradients(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(3):
            ds = random_dataset(rng, n=10)
            state = neural_state(rng, ds, nodes=4)
            post = posterior(ds, state)
            cfg = TrainConfig(l2_rate=1e-3, dropout_fraction=0.0)
            _, dW, dB, dxi = loss_gradients(ds, post, state, cfg)
            from neuralscr import _kernels
            from neuralscr.neural import _loss_inputs

            risk = state.risk_model
            x, ev, lam, const = _loss_inputs(ds, evaluate_terms(ds, state), post)

            def f(W, B, xi_):
                return _kernels.q_loss_eval(W, B, x, ev, lam,
                                            post.mean, post.log_mean, const, xi_, 1e-3)

            worst = max(worst, worst_gradient_error(f, risk.W, risk.B, math.log(state.theta),
                                                    dW, dB, dxi))
        ok = report("criterion 5a (gradient check)", worst < 1e-4,
                    f"worst relative error {worst:.2e} (< 1e-4)")
        assert ok

    def test_b_em_monotonicity(self):
        rng = np.random.default_rng(7)
        worst = np.inf
        for k in range(20):
            ds = random_dataset(rng, n=int(rng.integers(30, 90)),
                                censoring=float(rng.uniform(0.1, 0.6)))
            spec = FixedRiskSpec(ZeroRisk(), update_theta=False,
                                 theta_init=float(rng.uniform(0.3, 2.0)))
            res = run_em(ds, spec, EMConfig(max_iterations=25, tolerance=1e-12, seed=k))
            lls = np.array([row["obs_loglik"] for row in res.trace])
            if len(lls) > 1:
                worst = min(worst, float(np.min(np.diff(lls))))
        ok = report("criterion 5b (EM monotonicity)", worst >= -1e-10,
                    f"smallest log-likelihood increment {worst:.2e} (>= -1e-10)")
        assert ok

    def test_c_mstep_stationarity(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(10):
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
                    worst = max(worst, abs(score) / max(1.0, denom))
        ok = report("criterion 5c (M-step stationarity)", worst < 1e-10,
                    f"worst normalized score {worst:.2e} (< 1e-10)")
        assert ok

    def test_d_complete_vs_case(self):
        from neuralscr.likelihood import case_log_likelihood

        rng = np.random.default_rng(11)
        worst = 0.0
        checked = 0
        while checked < 1000:
            ds = random_dataset(rng, n=50)
            state = event_anchored_state(rng, ds)
            gammas = rng.gamma(2.0, 0.5, size=ds.n)
            for i, record in enumerate(ds.to_records()):
                whole = complete_data_log_likelihood(ds.subset([i]), gammas[[i]], state)
                case = case_log_likelihood(record, gammas[i], state)
                worst = max(worst, abs(whole - case))
                checked += 1
        ok = report("criterion 5d (complete vs case likelihood)", worst < 1e-10,
                    f"worst |difference| over {checked} subjects {worst:.2e} (< 1e-10)")
        assert ok

    def test_e_observed_vs_quadrature(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        checked = 0
        while checked < 100:
            ds = random_dataset(rng, n=25)
            state = event_anchored_state(rng, ds)
            for i in range(ds.n):
                sub = ds.subset([i])
                direct = observed_log_likelihood(sub, state)
                val, _ = quad(
                    lambda g: math.exp(
                        complete_data_log_likelihood(sub, np.array([g]), state) - direct
                    ),
                    0, np.inf, limit=300,
                )
                worst = max(worst, abs(val - 1.0))
                checked += 1
                if checked >= 100:
                    break
        ok = report("criterion 5e (observed vs quadrature)", worst < 1e-8,
                    f"worst relative mismatch over 100 subjects {worst:.2e} (< 1e-8)")
        assert ok

    def test_f_posterior_moments_monte_carlo(self):
        rng = np.random.default_rng(15)
        ds = random_dataset(rng, n=6)
        state = event_anchored_state(rng, ds)
        post = posterior(ds, state)
        ok_all = True
        for i in range(ds.n):
            draws = rng.gamma(post.a_tilde[i], 1.0 / post.b_tilde[i], size=1_000_000)
            se_m = draws.std() / 1000.0
            logs = np.log(draws)
            se_l = logs.std() / 1000.0
            ok_all = ok_all and abs(draws.mean() - post.mean[i]) < 3 * se_m
            ok_all = ok_all and abs(logs.mean() - post.log_mean[i]) < 3 * se_l
        ok = report("criterion 5f (posterior moments vs Monte Carlo)", ok_all,
                    "per-subject mean and log-mean within 3 SE of 1e6-draw averages")
        assert ok

    def test_g_bbs_decomposition(self):
        cfg = SimConfig(n=400, theta=0.5, weibulls=((0.2, 1.5),) * 3,
                        risk_kind="none", censoring_rate=0.4, seed=0)
        t = 1.0
        S = true_survival(cfg, np.zeros(0), t)
        pi_val = min(S + 0.1, 1.0)
        target = (S - pi_val) ** 2 + S * (1 - S)
        g_true = ExponentialCensoring(0.4)
        vals = np.empty(500)
        for r in range(500):
            ds, _ = simulate(cfg.replace_seed(5000 + r))
            vals[r] = bbs(ds, np.full(ds.n, pi_val), g_true, t)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        ok = report(
            "criterion 5g (BBS decomposition)",
            abs(vals.mean() - target) < 3 * se,
            f"Monte Carlo mean {vals.mean():.4f} vs MSE + irreducible {target:.4f} "
            f"(3 SE = {3 * se:.4f})",
        )
        assert ok

    def test_h_simulator_validity(self):
        from neuralscr.core import validate_dataset

        ok_all = True
        for s in range(5):
            for kind in ("none", "linear", "nonlinear", "nonmonotonic"):
                ds, _ = simulate(SimConfig(n=400, theta=0.7, risk_kind=kind,
                                           censoring_target=0.3, seed=s))
                validate_dataset(ds)
                mask = ds.delta1 == 0
                ok_all = ok_all and bool(np.all(ds.y1[mask] == ds.y2[mask]))
        ok = report("criterion 5h (simulator validity)", ok_all,
                    "all outputs validate; delta1 = 0 implies y1 = y2")
        assert ok


class TestCriterion6PredictiveDirection:
    def test_neural_beats_parametric_cv(self):
        seeds = range(10)
        wins = 0
        details = []
        for s in seeds:
            ds, _ = simulate(SimConfig(n=1000, theta=0.5, risk_kind="nonmonotonic",
                                       censoring_target=0.25,
                                       seed=ACCEPT_SEED + 6000 + s))
            horizon = float(np.quantile(ds.y2, 0.8))
            nn = cv(ds, "neural", folds=5, horizon=horizon, seed=ACCEPT_SEED + s,
                    em_config=STUDY_EM, train_config=STUDY_TRAIN)
            par = cv(ds, "parametric", folds=5, horizon=horizon, seed=ACCEPT_SEED + s)
            details.append((nn.mean_ibbs, par.mean_ibbs))
            if nn.mean_ibbs < par.mean_ibbs:
                wins += 1
        ok = report(
            "criterion 6 (predictive direction)",
            wins >= 8,
            f"neural mean iBBS below parametric in {wins}/10 seeds "
            f"(example: neural {details[0][0]:.4f} vs parametric {details[0][1]:.4f})",
        )
        assert ok
