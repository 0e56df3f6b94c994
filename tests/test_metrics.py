import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralscr.core import Dataset
from neuralscr.metrics import (
    _BLOCK_ROWS,
    CensoringCurve,
    ExponentialCensoring,
    ZeroWeightError,
    bbs,
    integrated_bbs,
    reverse_km,
)
from neuralscr.simulate import SimConfig, simulate, true_survival


def no_censoring_curve():
    return CensoringCurve(times=np.empty(0), survival=np.empty(0))


def km_oracle(times, events):
    """Plain product-limit estimator for the *event* distribution."""
    order = np.argsort(times, kind="stable")
    t, e = times[order], events[order]
    surv = {}
    at_risk = len(t)
    s = 1.0
    i = 0
    while i < len(t):
        j = i
        d = 0
        while j < len(t) and t[j] == t[i]:
            d += e[j]
            j += 1
        if d > 0:
            s *= 1 - d / at_risk
            surv[t[i]] = s
        at_risk -= j - i
        i = j
    return surv


class TestReverseKM:
    def test_no_censoring_gives_identity(self):
        ds = Dataset([1.0, 2.0], [1.0, 0.0], [1.5, 2.0], [1.0, 1.0], np.zeros((2, 0)))
        curve = reverse_km(ds)
        assert curve.evaluate(10.0) == 1.0

    def test_single_censored_subject(self):
        ds = Dataset([2.0], [0.0], [2.0], [0.0], np.zeros((1, 0)))
        curve = reverse_km(ds)
        assert curve.evaluate(1.999) == 1.0
        assert curve.evaluate(2.0) == 0.0
        assert curve.evaluate(2.0, left=True) == 1.0

    def test_tracks_exponential_censoring(self):
        cfg = SimConfig(n=10_000, theta=0.5, risk_kind="linear",
                        censoring_rate=0.8, seed=3)
        ds, _ = simulate(cfg)
        curve = reverse_km(ds)
        t80 = np.quantile(ds.y2, 0.8)
        grid = np.linspace(0.01, t80, 60)
        est = curve.evaluate(grid)
        assert np.max(np.abs(est - np.exp(-0.8 * grid))) < 0.03

    def test_duality_with_standard_km(self):
        # flipping the censoring indicator turns reverse KM into plain KM
        rng = np.random.default_rng(7)
        n = 60
        times = rng.exponential(1.0, n)
        cens = (rng.random(n) < 0.4).astype(float)
        ds = Dataset(times, np.zeros(n), times, 1.0 - cens, np.zeros((n, 0)))
        # here delta2=0 marks a "censoring event" at times where cens=1
        curve = reverse_km(ds)
        oracle = km_oracle(times, cens)
        for t, s in oracle.items():
            assert curve.evaluate(t) == pytest.approx(s, rel=1e-12)


class TestBBS:
    def test_zero_loss_at_certain_predictions(self):
        # both events before t with pi = 0, and an event-free subject with
        # pi = 1, both contribute nothing
        ds = Dataset([0.5, 3.0], [1.0, 0.0], [0.8, 3.0], [1.0, 0.0], np.zeros((2, 0)))
        val = bbs(ds, np.array([0.0, 1.0]), no_censoring_curve(), 1.0)
        assert val == 0.0

    def test_maximal_penalty(self):
        ds = Dataset([0.5], [1.0], [0.8], [1.0], np.zeros((1, 0)))
        assert bbs(ds, np.array([1.0]), no_censoring_curve(), 1.0) == pytest.approx(1.0)

    def test_event_free_penalty(self):
        ds = Dataset([5.0], [0.0], [5.0], [0.0], np.zeros((1, 0)))
        assert bbs(ds, np.array([0.25]), no_censoring_curve(), 1.0) == pytest.approx(0.75**2)

    def test_censored_before_t_contributes_zero(self):
        ds = Dataset([0.5], [0.0], [0.5], [0.0], np.zeros((1, 0)))
        assert bbs(ds, np.array([0.9]), no_censoring_curve(), 1.0) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        cfg = SimConfig(n=300, theta=0.5, risk_kind="linear", censoring_target=0.3, seed=2)
        ds, _ = simulate(cfg)
        curve = reverse_km(ds)
        for t in (0.1, 0.3, 0.6):
            assert bbs(ds, rng.random(ds.n), curve, t) >= 0.0

    def test_zero_weight_raises(self):
        # a curve fitted elsewhere (e.g. training folds) can vanish before a
        # test subject's event time; the weight is then undefined
        ds = Dataset([3.0], [1.0], [3.5], [1.0], np.zeros((1, 0)))
        external = CensoringCurve(times=np.array([2.0]), survival=np.array([0.0]))
        with pytest.raises(ZeroWeightError):
            bbs(ds, np.array([0.5]), external, 4.0)

    def test_self_estimated_curve_never_vanishes_before_own_events(self):
        # the event subject keeps the reverse-KM risk set alive through its
        # own weight point, so in-sample weights are always positive
        rng = np.random.default_rng(12)
        cfg = SimConfig(n=500, theta=0.5, risk_kind="linear", censoring_target=0.5, seed=8)
        ds, _ = simulate(cfg)
        curve = reverse_km(ds)
        for t in np.linspace(0.05, float(np.max(ds.y2)), 25):
            bbs(ds, rng.random(ds.n), curve, float(t))  # must not raise

    def test_expectation_decomposition_monte_carlo(self):
        # E[BBS(t)] = MSE(t) + (1/n) sum S(1-S) with the true G plugged in;
        # deliberately biased predictor pi = S + 0.1
        cfg = SimConfig(n=400, theta=0.5, weibulls=((0.2, 1.5),) * 3,
                        risk_kind="none", censoring_rate=0.4, seed=0)
        t = 1.0
        S = true_survival(cfg, np.zeros(0), t)
        pi_val = min(S + 0.1, 1.0)
        mse = (S - pi_val) ** 2
        irreducible = S * (1 - S)
        g_true = ExponentialCensoring(0.4)
        reps = 500
        vals = np.empty(reps)
        for r in range(reps):
            ds, _ = simulate(cfg.replace_seed(1000 + r))
            vals[r] = bbs(ds, np.full(ds.n, pi_val), g_true, t)
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - (mse + irreducible)) < 3 * se


def tied_censored_dataset(seed, n, decimals):
    """Random upper-wedge data with times rounded to `decimals`, so that
    event, censoring and grid times tie."""
    rng = np.random.default_rng(seed)
    y2 = np.round(rng.exponential(1.0, n), decimals) + 10.0 ** -decimals
    delta1 = (rng.random(n) < 0.4).astype(float)
    y1 = np.where(delta1 == 1, np.round(y2 * rng.random(n), decimals), y2)
    delta2 = (rng.random(n) < 0.6).astype(float)
    return Dataset(y1, delta1, y2, delta2, np.zeros((n, 0))), rng


def bbs_at_one_time(ds, pi, curve, t):
    """The per-time score, one subject mask per region, as a reference."""
    region1 = (ds.y1 <= t) & (ds.delta1 == 1) & (ds.y1 <= ds.y2)
    region2 = (ds.y1 <= t) & (ds.y2 <= t) & (ds.delta1 == 0) & (ds.delta2 == 1) & (ds.y1 <= ds.y2)
    region3 = (ds.y1 > t) & (ds.y2 > t)
    total = np.zeros(ds.n)
    total[region1] = pi[region1] ** 2 / curve.evaluate(ds.y1[region1], left=True)
    total[region2] = pi[region2] ** 2 / curve.evaluate(ds.y2[region2], left=True)
    total[region3] = (1.0 - pi[region3]) ** 2 / curve.evaluate(t)
    return float(np.mean(total))


class TestBBSGrid:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), decimals=st.integers(0, 2))
    def test_grid_equals_per_time_scores_bit_for_bit(self, seed, n, decimals):
        ds, rng = tied_censored_dataset(seed, n, decimals)
        curve = reverse_km(ds)
        grid = np.unique(np.concatenate([ds.y1, ds.y2, np.round(rng.exponential(1.0, 5), 2)]))
        grid = grid[(grid > 0) & (curve.evaluate(grid) > 0)]
        preds = rng.random((n, len(grid)))
        values = bbs(ds, preds, curve, grid)
        assert values.shape == grid.shape
        for j, t in enumerate(grid):
            assert values[j] == bbs(ds, preds[:, j], curve, float(t))
            assert values[j] == bbs_at_one_time(ds, preds[:, j], curve, float(t))

    def test_scalar_time_returns_a_float(self):
        ds, rng = tied_censored_dataset(3, 20, 1)
        assert isinstance(bbs(ds, rng.random(20), reverse_km(ds), 0.5), float)

    def test_rejects_a_matrix_of_the_wrong_shape(self):
        ds, rng = tied_censored_dataset(4, 10, 1)
        with pytest.raises(ValueError, match="one value per subject and time"):
            bbs(ds, rng.random((10, 2)), reverse_km(ds), np.array([0.2, 0.4, 0.6]))
        with pytest.raises(ValueError, match="one value per subject and time"):
            bbs(ds, rng.random(10), reverse_km(ds), np.array([0.2]))

    def test_zero_weight_names_the_first_bad_time(self):
        # the event at y1 = 3 needs G(3-), which the external curve puts at 0;
        # t = 1 needs no weight there, t = 4 and t = 5 do
        ds = Dataset([3.0], [1.0], [3.5], [1.0], np.zeros((1, 0)))
        external = CensoringCurve(times=np.array([2.0]), survival=np.array([0.0]))
        with pytest.raises(ZeroWeightError, match=r"t=4\.0"):
            bbs(ds, np.full((1, 3), 0.5), external, np.array([1.0, 4.0, 5.0]))


class TestBBSBlocks:
    @pytest.mark.parametrize("length", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                        2 * _BLOCK_ROWS + 3])
    def test_every_block_split_equals_per_time_scores_bit_for_bit(self, length):
        ds, rng = tied_censored_dataset(length, 60, 1)
        curve = reverse_km(ds)
        grid = np.linspace(0.02, 0.9 * float(np.max(ds.y2)), length)
        grid = grid[curve.evaluate(grid) > 0]
        assert len(grid) == length
        preds = rng.random((ds.n, length))
        values = bbs(ds, preds, curve, grid)
        for j, t in enumerate(grid):
            assert values[j] == bbs_at_one_time(ds, preds[:, j], curve, float(t))

    def test_zero_weight_in_a_later_block_names_its_time(self):
        # the event at y1 = 3 needs G(3-) = 0, which only grid rows past the
        # first block reach
        ds = Dataset([3.0, 9.0], [1.0, 0.0], [3.5, 9.0], [1.0, 0.0], np.zeros((2, 0)))
        external = CensoringCurve(times=np.array([2.0]), survival=np.array([0.0]))
        grid = np.arange(1, 2 * _BLOCK_ROWS + 4) * 0.1
        grid[_BLOCK_ROWS + 2:] += 3.0
        first_bad = grid[_BLOCK_ROWS + 2]
        with pytest.raises(ZeroWeightError, match=rf"t={first_bad}$"):
            bbs(ds, np.full((2, len(grid)), 0.5), external, grid)

    def test_event_free_subject_needs_g_at_t(self):
        # G(t) = 0 from t = 2 while the subject stays event-free to 5
        ds = Dataset([5.0], [0.0], [5.0], [0.0], np.zeros((1, 0)))
        external = CensoringCurve(times=np.array([2.0]), survival=np.array([0.0]))
        with pytest.raises(ZeroWeightError, match=r"t=2\.5"):
            bbs(ds, np.full((1, 3), 0.5), external, np.array([1.0, 2.5, 4.0]))

    @pytest.mark.parametrize("y1, delta1, y2, delta2, grid", [
        # G(2.8-) is subnormal, but the grid ends before the entry at 2.8
        ([0.5, 2.8, 1.0], [1.0, 1.0, 0.0], [0.8, 3.0, 1.0], [1.0, 1.0, 1.0],
         [0.2, 0.6, 1.2, 2.0, 2.4]),
        # G(t) is subnormal past 2.5, after every subject has left region 3
        ([0.5, 1.0, 2.0], [1.0, 0.0, 0.0], [0.8, 1.0, 2.0], [1.0, 1.0, 0.0],
         [0.2, 0.6, 1.2, 2.0, 2.6, 2.9]),
    ], ids=["entry-weight", "grid-weight"])
    def test_subnormal_weight_at_unused_points_stays_finite(self, y1, delta1, y2, delta2,
                                                            grid):
        ds = Dataset(y1, delta1, y2, delta2, np.zeros((3, 0)))
        external = CensoringCurve(times=np.array([1.5, 2.5]), survival=np.array([0.5, 5e-324]))
        grid = np.array(grid)
        preds = np.random.default_rng(0).random((3, len(grid)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = bbs(ds, preds, external, grid)
        assert np.all(np.isfinite(values))
        for j, t in enumerate(grid):
            assert values[j] == bbs_at_one_time(ds, preds[:, j], external, float(t))

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5, np.inf])
    def test_rejects_predictions_outside_zero_one(self, bad):
        ds, rng = tied_censored_dataset(6, 10, 1)
        preds = rng.random((10, 3))
        preds[4, 1] = bad
        with pytest.raises(ValueError, match=r"finite probabilities in \[0, 1\]"):
            bbs(ds, preds, reverse_km(ds), np.array([0.2, 0.4, 0.6]))

    def test_allocates_less_than_one_score_matrix(self):
        cfg = SimConfig(n=8_000, theta=0.5, risk_kind="linear", censoring_target=0.25, seed=1)
        ds, _ = simulate(cfg)
        curve = reverse_km(ds)
        grid = np.linspace(0.01, 1.0, 100)
        preds = np.random.default_rng(1).random((ds.n, len(grid)))
        tracemalloc.start()
        try:
            bbs(ds, preds, curve, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < preds.nbytes


class TestIntegratedBBS:
    def test_constant_curve_time_average(self):
        # a constant BBS(t) = c integrates to c under time-averaging
        ds = Dataset([5.0, 5.0], [0.0, 0.0], [5.0, 5.0], [0.0, 0.0], np.zeros((2, 0)))
        curve = integrated_bbs(
            ds, lambda t: np.full((2, len(t)), 0.5), no_censoring_curve(), horizon=1.0
        )
        assert curve.integrated == pytest.approx(0.25)
        assert len(curve.grid) == 100
        assert curve.grid[0] == pytest.approx(0.01)

    def test_raw_integral_option(self):
        ds = Dataset([5.0], [0.0], [5.0], [0.0], np.zeros((1, 0)))
        avg = integrated_bbs(ds, lambda t: np.full((1, len(t)), 0.5), no_censoring_curve(),
                             horizon=2.0, time_average=True)
        raw = integrated_bbs(ds, lambda t: np.full((1, len(t)), 0.5), no_censoring_curve(),
                             horizon=2.0, time_average=False)
        assert raw.integrated == pytest.approx(avg.integrated * (raw.grid[-1] - raw.grid[0]))

    def test_truncates_when_g_hits_zero(self):
        ds = Dataset(
            [0.5, 2.0], [0.0, 0.0], [0.5, 2.0], [0.0, 0.0], np.zeros((2, 0))
        )
        curve = reverse_km(ds)  # hits zero at t = 2
        with pytest.warns(UserWarning, match="truncating"):
            out = integrated_bbs(ds, lambda t: np.full((2, len(t)), 0.5), curve, horizon=3.0)
        assert out.horizon < 3.0

    def test_predict_is_called_once_on_the_final_grid(self):
        ds, rng = tied_censored_dataset(5, 40, 2)
        calls = []

        def predict(grid):
            calls.append(np.array(grid))
            return np.full((ds.n, len(grid)), 0.5)

        out = integrated_bbs(ds, predict, reverse_km(ds), horizon=1.0, n_points=25)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], out.grid)
        assert len(out.grid) == 25

    def test_predict_is_called_once_when_truncating(self):
        ds = Dataset([0.5, 2.0], [0.0, 0.0], [0.5, 2.0], [0.0, 0.0], np.zeros((2, 0)))
        calls = []

        def predict(grid):
            calls.append(np.array(grid))
            return np.full((2, len(grid)), 0.5)

        with pytest.warns(UserWarning, match="truncating"):
            out = integrated_bbs(ds, predict, reverse_km(ds), horizon=3.0)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], out.grid)
        assert out.grid[-1] < 2.0

    @pytest.mark.parametrize("horizon", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_a_horizon_that_is_not_finite_and_positive(self, horizon):
        ds = Dataset([5.0], [0.0], [5.0], [0.0], np.zeros((1, 0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="horizon must be finite and positive"):
                integrated_bbs(ds, lambda t: np.full((1, len(t)), 0.5),
                               no_censoring_curve(), horizon=horizon)

    def test_scoring_emits_no_runtime_warning(self):
        # an external G that reaches zero at 2.5: the late subject's
        # G(y1-) = G(y2-) = 0, but no region of the grid up to 2 uses them
        ds = Dataset([0.5, 3.0, 1.0], [1.0, 0.0, 0.0], [0.8, 3.0, 1.0], [1.0, 0.0, 1.0],
                     np.zeros((3, 0)))
        external = CensoringCurve(times=np.array([1.5, 2.5]), survival=np.array([0.5, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = integrated_bbs(ds, lambda grid: np.full((3, len(grid)), 0.5), external,
                                   horizon=2.0)
        assert np.all(np.isfinite(curve.values)) and curve.horizon == 2.0
