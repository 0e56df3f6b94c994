import numpy as np
import pytest

from neuralscr.core import (
    Dataset,
    DatasetValidationError,
    ModelState,
    ObservedRecord,
    StepHazard,
    WeibullHazard,
    validate_dataset,
    validation_report,
)

from conftest import random_step_hazard


def rec(y1, d1, y2, d2, x=(0.1,)):
    return ObservedRecord(y1, d1, y2, d2, np.asarray(x))


class TestValidation:
    def test_accepts_both_events(self):
        ds = validate_dataset([rec(1.0, 1, 2.0, 1)])
        assert ds.n == 1

    def test_accepts_neither_event(self):
        # censored before anything happened: y1 = y2, both indicators 0
        ds = validate_dataset([rec(2.0, 0, 2.0, 0)])
        assert ds.delta1[0] == 0 and ds.delta2[0] == 0

    def test_wedge_violation(self):
        with pytest.raises(DatasetValidationError) as err:
            validate_dataset([rec(3.0, 1, 2.0, 1)])
        assert err.value.report == [(0, "WedgeViolation")]

    def test_indicator_inconsistency(self):
        report = validation_report([rec(1.0, 0, 2.0, 1)])
        assert (0, "IndicatorInconsistency") in report

    def test_nonpositive_time(self):
        report = validation_report([rec(-1.0, 0, -1.0, 0)])
        assert (0, "NonPositiveTime") in report

    def test_zero_sojourn_rejected(self):
        report = validation_report([rec(2.0, 1, 2.0, 1)])
        assert (0, "ZeroSojourn") in report

    def test_zero_sojourn_allowed_when_censored(self):
        # progression observed then censored at the same time is fine
        ds = validate_dataset([rec(2.0, 1, 2.0, 0)])
        assert ds.n == 1

    def test_ragged_covariates(self):
        records = [rec(1.0, 1, 2.0, 1, x=(0.1,)), rec(1.0, 1, 2.0, 1, x=(0.1, 0.2))]
        with pytest.raises(DatasetValidationError) as err:
            validate_dataset(records)
        assert any(rule == "RaggedCovariates" for _, rule in err.value.report)

    def test_report_lists_every_bad_row(self):
        records = [
            rec(1.0, 1, 2.0, 1),
            rec(3.0, 1, 2.0, 1),
            rec(1.0, 0, 2.0, 0),
        ]
        report = validation_report(records)
        assert report == [(1, "WedgeViolation"), (2, "IndicatorInconsistency")]

    @pytest.mark.parametrize("record, rule", [
        (rec(1.0, 2, 2.0, 1), "IndicatorOutsideZeroOne"),
        (rec(2.0, 0, 2.0, 0.5), "IndicatorOutsideZeroOne"),
        (rec(1.0, -1, 2.0, 0), "IndicatorOutsideZeroOne"),
        (rec(2.0, 0, 2.0, float("nan")), "IndicatorOutsideZeroOne"),
        (rec(1.0, 1, 2.0, 1, x=(float("nan"),)), "NonFiniteCovariate"),
        (rec(1.0, 1, 2.0, 1, x=(0.3, float("inf"))), "NonFiniteCovariate"),
    ])
    def test_rejects_what_the_model_cannot_fit(self, record, rule):
        report = validation_report([rec(1.0, 1, 2.0, 1, x=(0.1,) * len(record.covariates)),
                                    record])
        assert (1, rule) in report and all(i == 1 for i, _ in report)
        with pytest.raises(DatasetValidationError):
            validate_dataset([record])

    def test_transitions_view(self):
        ds = validate_dataset([rec(1.0, 1, 3.0, 1), rec(2.0, 0, 2.0, 1), rec(1.5, 1, 2.0, 0)])
        tr = ds.transitions
        np.testing.assert_array_equal(tr.event, [[1, 0, 1], [0, 1, 0], [1, 0, 0]])
        np.testing.assert_array_equal(tr.event_time, [[1.0, 2.0, 1.5], [3.0, 2.0, 2.0],
                                                      [2.0, 0.0, 0.5]])
        np.testing.assert_array_equal(tr.exposure, [[1.0, 2.0, 1.5], [1.0, 2.0, 1.5],
                                                    [2.0, 0.0, 0.5]])
        np.testing.assert_array_equal(tr.at_risk, [[1, 1, 1], [1, 1, 1], [1, 0, 1]])
        assert ds.transitions is tr
        with pytest.raises(ValueError):
            tr.event[0, 0] = 0.0

    def test_dataset_roundtrip(self):
        records = [rec(1.0, 1, 2.0, 1), rec(2.0, 0, 2.0, 0)]
        ds = validate_dataset(records)
        back = ds.to_records()
        assert back[0].y1 == 1.0 and back[1].delta2 == 0

    def test_event_count_indexes_the_posterior_shapes(self):
        ds = validate_dataset([rec(1.0, 1, 2.0, 1), rec(2.0, 0, 2.0, 0), rec(1.0, 1, 2.0, 0),
                               rec(2.0, 0, 2.0, 1)])
        np.testing.assert_array_equal(ds.event_count, [2, 0, 1, 1])
        assert ds.event_count.dtype == np.intp and not ds.event_count.flags.writeable

    def test_event_count_rejects_indicators_off_zero_one(self):
        ds = Dataset([1.0, 2.0], [1.0, 0.5], [2.0, 2.0], [1.0, 0.0], [[0.1], [0.2]])
        with pytest.raises(ValueError, match="0 or 1"):
            ds.event_count


class TestStepHazard:
    def test_empty(self):
        hz = StepHazard.empty()
        assert hz.cumulative(1.0) == 0.0
        assert hz.hazard_at(1.0) == 0.0

    def test_cumulative_between_jumps(self):
        hz = StepHazard([1.0, 2.0], [0.5, 0.25])
        assert hz.cumulative(0.5) == 0.0
        assert hz.cumulative(1.0) == 0.5  # right-continuous at the jump
        assert hz.cumulative(1.5) == 0.5
        assert hz.cumulative(2.0) == 0.75
        assert hz.cumulative(10.0) == 0.75

    def test_jump_lookup(self):
        hz = StepHazard([1.0, 2.0], [0.5, 0.25])
        np.testing.assert_allclose(hz.hazard_at(np.array([1.0, 1.5, 2.0])), [0.5, 0.0, 0.25])

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            StepHazard([2.0, 1.0], [0.1, 0.1])
        with pytest.raises(ValueError):
            StepHazard([1.0], [0.0])
        with pytest.raises(ValueError):
            StepHazard([0.0], [0.1])

    @pytest.mark.parametrize("times, sizes", [
        ([0.5, np.nan], [np.nan, 0.2]),
        ([0.5, np.nan], [0.1, 0.2]),
        ([np.nan, 0.5], [0.1, 0.2]),
        ([np.nan], [0.1]),
        ([0.5, 1.0], [0.1, np.nan]),
        ([0.5, np.inf], [0.1, 0.2]),
        ([0.5, 1.0], [0.1, np.inf]),
        ([-np.inf, 1.0], [0.1, 0.2]),
    ])
    def test_rejects_nonfinite_jumps(self, times, sizes):
        # the checks must hold, so a NaN that compares False fails them too
        with pytest.raises(ValueError):
            StepHazard(times, sizes)

    def test_monotone_right_continuous_property(self):
        # random jump sets: Lambda nondecreasing, right-continuous, 0 before support
        rng = np.random.default_rng(7)
        for _ in range(50):
            hz = random_step_hazard(rng)
            ts = np.sort(rng.uniform(0, 4.0, size=40))
            vals = hz.cumulative(ts)
            assert np.all(np.diff(vals) >= 0)
            assert hz.cumulative(hz.jump_times[0] - 1e-12) == 0.0
            at = hz.cumulative(hz.jump_times)
            just_after = hz.cumulative(hz.jump_times + 1e-12)
            np.testing.assert_allclose(at, just_after)

    def test_immutable(self):
        hz = StepHazard([1.0], [0.5])
        with pytest.raises(ValueError):
            hz.jump_times[0] = 2.0


class TestModelState:
    @pytest.mark.parametrize("theta", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_theta_that_is_not_finite_and_positive(self, theta):
        hz = StepHazard([1.0], [0.5])
        with pytest.raises(ValueError):
            ModelState(hz, hz, hz, theta=theta)

    def test_accepts_a_positive_theta(self):
        hz = StepHazard([1.0], [0.5])
        assert ModelState(hz, hz, hz, theta=1e-300).theta == 1e-300


class TestWeibullHazard:
    def test_cumulative_and_density(self):
        hz = WeibullHazard(0.2, 1.5)
        assert hz.cumulative(2.0) == pytest.approx(0.2 * 2.0**1.5)
        assert hz.hazard_at(2.0) == pytest.approx(0.2 * 1.5 * 2.0**0.5)
        assert hz.hazard_at(0.0) == 0.0

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            WeibullHazard(-1.0, 1.0)
