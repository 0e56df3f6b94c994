import importlib

import numpy as np
import pytest

from neuralscr.core import validate_dataset
from neuralscr.em import nelson_aalen_seed
from neuralscr.simulate import (
    SimConfig,
    censoring_rate,
    risk_values,
    simulate,
    true_survival,
)

# the package exports a function of the same name
simulate_module = importlib.import_module("neuralscr.simulate")


def bbs_style_config(n, censoring_target=0.0, seed=0):
    return SimConfig(
        n=n, theta=0.5, weibulls=(((0.2, 1.5),) * 3),
        risk_kind="none", censoring_target=censoring_target, seed=seed,
    )


class TestSimulate:
    def test_outputs_validate_and_wedge(self):
        for seed in range(5):
            cfg = SimConfig(n=500, theta=0.7, risk_kind="linear",
                            censoring_target=0.3, seed=seed)
            ds, truth = simulate(cfg)
            validate_dataset(ds)  # raises on violation
            assert np.all(ds.y1 <= ds.y2)
            # delta1 = 0 implies y1 = y2
            mask = ds.delta1 == 0
            np.testing.assert_array_equal(ds.y1[mask], ds.y2[mask])

    def test_symmetric_competing_first_transition(self):
        # equal transition-1/2 hazards: progression wins the race half the time
        cfg = bbs_style_config(100_000, seed=1)
        ds, truth = simulate(cfg)
        first_is_prog = np.isfinite(truth.t1_true) & (truth.t1_true < truth.t2_true)
        # among subjects, P(T1* < T2*) should be ~0.5
        assert abs(np.mean(truth.t1_true < truth.t2_true) - 0.5) < 0.01

    def test_no_censoring_all_terminal_observed(self):
        cfg = SimConfig(n=2000, theta=0.5, risk_kind="linear", seed=3)
        ds, _ = simulate(cfg)
        assert np.all(ds.delta2 == 1)

    def test_censoring_calibration_hits_target(self):
        cfg = SimConfig(n=10_000, theta=0.5, risk_kind="linear",
                        censoring_target=0.5, seed=5)
        ds, _ = simulate(cfg)
        assert abs(np.mean(ds.delta2 == 0) - 0.5) < 0.03

    def test_censoring_calibration_quarter(self):
        cfg = SimConfig(n=10_000, theta=0.5, risk_kind="nonmonotonic",
                        censoring_target=0.25, seed=6)
        ds, _ = simulate(cfg)
        assert abs(np.mean(ds.delta2 == 0) - 0.25) < 0.03

    def test_calibrated_rate_is_pinned(self, monkeypatch):
        # the benchmark design; the rate does not depend on n or the seed
        monkeypatch.setattr(simulate_module, "_RATE_CACHE", {})  # calibrate afresh
        cfg = SimConfig(n=10, theta=0.5, risk_kind="nonmonotonic",
                        censoring_target=0.25, seed=3)
        assert censoring_rate(cfg) == 0.3599297590233568
        assert simulate_module._RATE_CACHE == {
            (0.5, cfg.weibulls, "nonmonotonic", 2, "normal", 0.25): 0.3599297590233568
        }

    def test_explicit_rate_wins(self):
        cfg = SimConfig(n=100, theta=0.5, risk_kind="none",
                        censoring_target=0.5, censoring_rate=1e-9, seed=0)
        assert censoring_rate(cfg) == pytest.approx(1e-9)

    def test_deterministic_given_seed(self):
        cfg = SimConfig(n=200, theta=0.5, risk_kind="nonlinear", seed=11)
        a, _ = simulate(cfg)
        b, _ = simulate(cfg)
        np.testing.assert_array_equal(a.y1, b.y1)
        np.testing.assert_array_equal(a.x, b.x)

    def test_nelson_aalen_tracks_truth_at_unit_frailty(self):
        # tiny frailty, no covariates: Nelson-Aalen on simulated data tracks
        # the true cumulative hazard over the bulk of the distribution
        cfg = SimConfig(
            n=200_000, theta=1e-3, weibulls=((0.2, 1.5),) * 3,
            risk_kind="none", seed=13,
        )
        ds, _ = simulate(cfg)
        b1, _, _ = nelson_aalen_seed(ds)
        t90 = np.quantile(ds.y1, 0.9)
        grid = np.linspace(0.05, t90, 50)
        est = b1.cumulative(grid)
        truth = 0.2 * grid**1.5
        assert np.max(np.abs(est - truth)) < 0.05

    def test_risk_functions(self):
        x = np.array([[1.0, 2.0], [-0.5, 0.25]])
        np.testing.assert_allclose(risk_values("linear", x)[:, 0], [3.0, -0.25])
        np.testing.assert_allclose(risk_values("nonlinear", x)[:, 1], [9.0, -0.109375])
        np.testing.assert_allclose(
            risk_values("nonmonotonic", x)[:, 2], np.log(np.abs([3.0, -0.25]) + 1)
        )

    def test_uniform_covariate_variant(self):
        cfg = SimConfig(n=5000, theta=0.5, risk_kind="linear", p=1,
                        covariate_dist="uniform", seed=17)
        ds, truth = simulate(cfg)
        assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
        np.testing.assert_allclose(truth.h[:, 0], ds.x[:, 0])


class TestTrueSurvival:
    def test_one_at_zero(self):
        cfg = SimConfig(n=10, theta=0.5, risk_kind="linear", seed=0)
        assert true_survival(cfg, np.zeros(2), 0.0) == pytest.approx(1.0)

    def test_marginal_closed_form(self):
        cfg = bbs_style_config(10)
        # A(t) = 2 * 0.2 * t^1.5; at t with A = 0.5 the marginal is 0.64
        t = (0.5 / 0.4) ** (1 / 1.5)
        assert true_survival(cfg, np.zeros(0), t) == pytest.approx(0.64, abs=1e-12)

    def test_conditional_form(self):
        cfg = bbs_style_config(10)
        t = 1.0
        A = 0.4
        assert true_survival(cfg, np.zeros(0), t, marginal=False, gamma=2.0) == pytest.approx(
            np.exp(-2.0 * A), rel=1e-12
        )

    def test_matches_empirical_event_free_fraction(self):
        cfg = SimConfig(n=1_000_000, theta=0.5, weibulls=((0.2, 1.5),) * 3,
                        risk_kind="none", seed=23)
        ds, _ = simulate(cfg)
        for t in (0.25, 0.5, 1.0):
            frac = np.mean((ds.y1 > t) & (ds.y2 > t))
            pi = true_survival(cfg, np.zeros(0), t)
            se = np.sqrt(pi * (1 - pi) / cfg.n)
            assert abs(frac - pi) < 3 * se + 1e-9

    def test_cause_fractions_match_subhazard_ratio(self):
        # transition-1 scale twice transition-2: progression-first fraction 2/3
        cfg = SimConfig(
            n=400_000, theta=0.5,
            weibulls=((0.4, 1.5), (0.2, 1.5), (0.2, 1.5)),
            risk_kind="none", seed=29,
        )
        ds, truth = simulate(cfg)
        frac = np.mean(truth.t1_true < truth.t2_true)
        assert abs(frac - 2.0 / 3.0) < 0.01
