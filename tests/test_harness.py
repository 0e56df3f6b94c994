import warnings

import numpy as np
import pytest

from neuralscr import harness
from neuralscr.em import EMConfig
from neuralscr.harness import (
    FoldTooSmallError,
    bbs_study_config,
    bootstrap_baselines,
    cv,
    fit_model,
    replicate_study,
)
from neuralscr.neural import TrainConfig
from neuralscr.serialize import read_table_csv, write_table_csv
from neuralscr.simulate import SimConfig, simulate
from neuralscr.weibull import MissingExtraError

FAST_EM = EMConfig(max_iterations=8, tolerance=1e-4, n_step_epochs_per_iteration=5, seed=0)
FAST_TRAIN = TrainConfig(nodes=8, hidden_layers=1, l2_rate=1e-3,
                         dropout_fraction=0.0, learning_rate=3e-3, seed=0)


@pytest.fixture(scope="module")
def small_data():
    ds, _ = simulate(SimConfig(n=150, theta=0.5, risk_kind="linear",
                               censoring_target=0.25, seed=7))
    return ds


class TestCV:
    def test_partition_covers_everything_once(self, small_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = cv(small_data, "parametric", folds=2, horizon=0.5, seed=3)
        joined = np.concatenate(res.fold_test_indices)
        assert len(joined) == small_data.n
        assert len(np.unique(joined)) == small_data.n

    def test_small_dataset_partition(self):
        ds, _ = simulate(SimConfig(n=10, theta=0.5, risk_kind="none", seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = cv(ds, "linear", folds=2, horizon=0.3, seed=0, em_config=FAST_EM)
        sets = [set(s.tolist()) for s in res.fold_test_indices]
        assert sets[0] | sets[1] == set(range(10))
        assert not sets[0] & sets[1]

    def test_deterministic_under_seed(self, small_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = cv(small_data, "parametric", folds=3, horizon=0.5, seed=11)
            b = cv(small_data, "parametric", folds=3, horizon=0.5, seed=11)
        assert a.mean_ibbs == b.mean_ibbs
        for sa, sb in zip(a.fold_test_indices, b.fold_test_indices):
            np.testing.assert_array_equal(sa, sb)

    def test_too_few_subjects(self):
        ds, _ = simulate(SimConfig(n=3, theta=0.5, risk_kind="none", seed=1))
        with pytest.raises(FoldTooSmallError):
            cv(ds, "parametric", folds=5, horizon=0.3)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan, 0.0, -1.0])
    def test_bad_horizon_is_rejected_before_any_fit(self, small_data, monkeypatch, horizon):
        fits = []
        monkeypatch.setattr("neuralscr.harness.fit_model", lambda *a, **k: fits.append(a))
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            cv(small_data, "parametric", folds=2, horizon=horizon)
        assert fits == []

    def test_neural_cv_runs(self, small_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = cv(small_data, "neural", folds=2, horizon=0.5, seed=1,
                     em_config=FAST_EM, train_config=FAST_TRAIN, theta_init=0.5)
        assert np.isfinite(res.mean_ibbs)
        assert len(res.fold_ibbs) == 2


class TestBootstrap:
    def test_single_resample_collapses_band(self, small_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bootstrap_baselines(small_data, "parametric", resamples=1, seed=5)
        np.testing.assert_allclose(res.lower, res.mean)
        np.testing.assert_allclose(res.upper, res.mean)

    def test_deterministic(self, small_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = bootstrap_baselines(small_data, "parametric", resamples=3, seed=9)
            b = bootstrap_baselines(small_data, "parametric", resamples=3, seed=9)
        np.testing.assert_array_equal(a.curves, b.curves)

    def test_band_orders(self, small_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bootstrap_baselines(small_data, "linear", resamples=4, seed=2,
                                      em_config=FAST_EM)
        assert np.all(res.lower <= res.upper + 1e-12)
        assert res.grids.shape == (3, 100)

    @staticmethod
    def failing_fits(monkeypatch, error, failing):
        """Make the resample fits numbered in `failing` raise `error`."""
        real, calls = harness.fit_model, []

        def fit(*args, **kwargs):
            calls.append(None)
            if len(calls) in failing:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "fit_model", fit)

    def test_numeric_failures_count_under_the_20_percent_rule(self, small_data, monkeypatch):
        self.failing_fits(monkeypatch, FloatingPointError("overflow"), {2})
        with pytest.warns(UserWarning, match="resample 1 failed: overflow"):
            res = bootstrap_baselines(small_data, "linear", resamples=5, seed=2,
                                      em_config=FAST_EM)
        assert res.n_failed == 1
        assert res.curves.shape[0] == 4
        self.failing_fits(monkeypatch, FloatingPointError("overflow"), {1, 4})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(RuntimeError, match="2/5 bootstrap refits failed"):
                bootstrap_baselines(small_data, "linear", resamples=5, seed=2,
                                    em_config=FAST_EM)

    @pytest.mark.parametrize("error", [TypeError("a bug"),
                                       MissingExtraError("pip install 'neuralscr[parametric]'")])
    def test_other_errors_propagate(self, small_data, monkeypatch, error):
        self.failing_fits(monkeypatch, error, {1})
        with pytest.raises(type(error)):
            bootstrap_baselines(small_data, "parametric", resamples=5, seed=2)

    def test_parametric_band_coverage_smoke(self):
        # truth Lambda01 = 2 t^2.25 within the band at most grid points
        ds, _ = simulate(SimConfig(n=2000, theta=0.5, risk_kind="linear", seed=31))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bootstrap_baselines(ds, "parametric", resamples=20, seed=3)
        grid = res.grids[0]
        truth = 2.0 * grid**2.25
        inside = (truth >= res.lower[0]) & (truth <= res.upper[0])
        assert inside.mean() >= 0.90


class TestReplicateStudy:
    def test_bbs_validation_schema_roundtrip(self, tmp_path):
        rows = replicate_study("bbs-validation", replicates=3, seed=1, n=200,
                               settings=[1])
        assert rows[0]["setting"] == 1
        assert rows[0]["covariates"] == "no"
        path = tmp_path / "study.csv"
        write_table_csv(rows, path)
        back = read_table_csv(path)
        assert float(back[0]["true_ibbs_mean"]) == pytest.approx(rows[0]["true_ibbs_mean"])
        assert int(back[0]["replicates"]) == 3

    def test_bbs_validation_censoring_setting(self):
        rows = replicate_study("bbs-validation", replicates=2, seed=2, n=300,
                               settings=[3])
        row = rows[0]
        assert row["censoring"] == "yes"
        assert row["true_ibbs_mean"] > 0
        assert row["calculated_ibbs_mean"] > 0

    def test_study_config(self):
        cfg = bbs_study_config(covariates=True, censoring=False, n=100, seed=3)
        assert cfg.p == 1
        assert cfg.covariate_dist == "uniform"
        assert cfg.weibulls[0][1] == 1.5

    def test_unknown_study(self):
        with pytest.raises(ValueError):
            replicate_study("nope", replicates=1)

    def test_neural_em_validation_tiny(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = replicate_study(
                "neural-em-validation", replicates=1, seed=3, n=120,
                em_config=FAST_EM, train_config=FAST_TRAIN,
                risk_kinds=("linear",), thetas=(0.5,), censoring_targets=(0.0,),
            )
        assert len(rows) == 1
        row = rows[0]
        for col in ("theta_parametric_mean", "theta_neural_mean",
                    "ibbs_truth_mean", "ibbs_parametric_mean", "ibbs_neural_mean",
                    "mise_parametric_h1", "mise_neural_h3"):
            assert col in row
        path = tmp_path / "nn.csv"
        write_table_csv(rows, path)
        assert read_table_csv(path)[0]["risk"] == "linear"


class TestFitModel:
    def test_kinds(self, small_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            par = fit_model(small_data, "parametric", seed=0)
            lin = fit_model(small_data, "linear", em_config=FAST_EM)
        assert par.kind == "parametric"
        assert np.isfinite(par.theta)
        assert lin.trace_rows is not None
        pi = lin.predict(small_data.x[:3], 0.4)
        assert pi.shape == (3,)
        assert np.all((0 < pi) & (pi <= 1))

    def test_unknown_kind(self, small_data):
        with pytest.raises(ValueError):
            fit_model(small_data, "cox")
