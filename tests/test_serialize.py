import json

import numpy as np
import pytest

from neuralscr.core import Dataset, LinearRisk, ModelState, StepHazard
from neuralscr.metrics import BBSCurve
from neuralscr.neural import NeuralRisk, init_network
from neuralscr.serialize import (
    load_model,
    read_dataset_csv,
    read_predictions_csv,
    read_table_csv,
    save_model,
    state_from_json,
    state_to_json,
    write_bbs_csv,
    write_bbs_summary,
    write_dataset_csv,
    write_predictions_csv,
    write_table_csv,
    write_trace_csv,
    write_truth_csv,
)
from neuralscr.simulate import SimConfig, simulate
from neuralscr.weibull import ParametricModel


class TestDatasetCSV:
    def test_roundtrip_exact(self, tmp_path):
        ds, truth = simulate(SimConfig(n=50, theta=0.5, risk_kind="linear",
                                       censoring_target=0.3, seed=1))
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.y1, ds.y1)
        np.testing.assert_array_equal(back.delta1, ds.delta1)
        np.testing.assert_array_equal(back.y2, ds.y2)
        np.testing.assert_array_equal(back.x, ds.x)

    def test_header_format(self, tmp_path):
        ds = Dataset([1.0], [1.0], [2.0], [1.0], np.array([[0.5, -0.25]]))
        path = tmp_path / "d.csv"
        write_dataset_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "y1,delta1,y2,delta2,x1,x2"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    def test_exact_bytes(self, tmp_path):
        ds = Dataset([1.0, 0.1], [1.0, 0.0], [2.0, 0.1], [1.0, 0.0],
                     np.array([[0.5, -0.25], [1e-300, -0.0]]))
        path = tmp_path / "d.csv"
        write_dataset_csv(ds, path)
        assert path.read_bytes() == (b"y1,delta1,y2,delta2,x1,x2\r\n1.0,1,2.0,1,0.5,-0.25\r\n"
                                     b"0.1,0,0.1,0,1e-300,-0.0\r\n")

    def test_roundtrip_is_byte_identical(self, tmp_path):
        # more rows than one write chunk
        ds, truth = simulate(SimConfig(n=9000, theta=0.5, risk_kind="linear",
                                       censoring_target=0.3, seed=2))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(ds, first)
        write_dataset_csv(read_dataset_csv(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_bytes().splitlines()) == 9001

    def test_truth_csv_header(self, tmp_path):
        ds, truth = simulate(SimConfig(n=5, theta=0.5, risk_kind="linear", seed=2))
        path = tmp_path / "truth.csv"
        write_truth_csv(truth, path)
        assert path.read_text().splitlines()[0] == "gamma,h1,h2,h3,t1_true,t2_true,c"


class TestModelJSON:
    def test_state_roundtrip_neural(self, tmp_path):
        rng = np.random.default_rng(3)
        nets = [init_network(2, 2, 4, rng) for _ in range(3)]
        state = ModelState(
            StepHazard([0.5, 1.0], [0.1, 0.2]),
            StepHazard([0.7], [0.3]),
            StepHazard.empty(),
            theta=0.8,
            risk_model=NeuralRisk(nets),
        )
        doc = state_to_json(state)
        assert doc["risk_model"]["kind"] == "neural"
        assert doc["risk_model"]["xi"] == pytest.approx(np.log(0.8))
        assert doc["baselines"][0]["transition"] == 1
        layer0 = doc["risk_model"]["sub_networks"][0][0]
        assert layer0["activation"] == "relu"
        assert doc["risk_model"]["sub_networks"][0][-1]["activation"] == "linear"

        back = state_from_json(doc)
        x = rng.normal(size=(7, 2))
        np.testing.assert_allclose(back.risk_values(x), state.risk_values(x), rtol=1e-12)
        np.testing.assert_allclose(back.lambda01.cumulative(1.5), 0.3)

    def test_state_roundtrip_linear(self, tmp_path):
        state = ModelState(
            StepHazard([1.0], [0.5]), StepHazard([1.0], [0.5]), StepHazard([1.0], [0.5]),
            theta=1.2, risk_model=LinearRisk(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])),
        )
        path = tmp_path / "m.json"
        save_model(state, path)
        back = load_model(path)
        assert isinstance(back, ModelState)
        np.testing.assert_allclose(back.risk_model.beta, state.risk_model.beta)

    def test_parametric_roundtrip_and_sniffing(self, tmp_path):
        model = ParametricModel(
            phi=np.array([[2.0, 2.25], [1.9, 2.2], [0.75, 2.0]]),
            beta=np.ones((3, 2)), theta=0.5,
        )
        path = tmp_path / "p.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"phi", "beta", "theta"}
        back = load_model(path)
        assert isinstance(back, ParametricModel)
        np.testing.assert_allclose(back.phi, model.phi)


class TestRunArtifacts:
    def test_trace_csv(self, tmp_path):
        rows = [(1, -100.0, 0.5, -40.0, -30.0, -20.0, -10.0)]
        path = tmp_path / "trace.csv"
        write_trace_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,obs_loglik,theta,q1,q2,q3,q4"
        assert lines[1].startswith("1,-100.0,0.5")

    def test_predictions_roundtrip(self, tmp_path):
        times = [0.5, 1.0]
        preds = np.array([[0.9, 0.8], [0.7, 0.5]])
        path = tmp_path / "preds.csv"
        write_predictions_csv(times, preds, path)
        t_back, p_back = read_predictions_csv(path)
        np.testing.assert_allclose(t_back, times)
        np.testing.assert_allclose(p_back, preds)

    def test_predictions_exact_bytes(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions_csv([0.5, 1.0], np.array([[0.9, 0.8], [0.7, 0.5]]), path)
        assert path.read_bytes() == (b"subject,t,pi\r\n0,0.5,0.9\r\n0,1.0,0.8\r\n"
                                     b"1,0.5,0.7\r\n1,1.0,0.5\r\n")

    def test_predictions_equal_the_per_row_format(self, tmp_path):
        # several write chunks, and floats whose repr is long or odd
        rng = np.random.default_rng(11)
        times = np.array([1e-300, 0.1, 1.0 / 3.0, 2.0, 1e22, 5e-324, 7.0])
        preds = rng.random((1300, 7))
        preds[::97] = [0.0, 1.0, 1e-17, 0.5, 1.0 - 2**-53, 5e-324, 0.25]
        path = tmp_path / "preds.csv"
        write_predictions_csv(times, preds, path)
        rows = "".join(f"{i},{t!r},{v!r}\r\n" for i in range(len(preds))
                       for t, v in zip(times.tolist(), preds[i].tolist()))
        assert path.read_bytes() == ("subject,t,pi\r\n" + rows).encode()

    def test_predictions_roundtrip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        times = np.sort(rng.exponential(size=7))
        preds = rng.random((1500, 7))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_predictions_csv(times, preds, first)
        t_back, p_back = read_predictions_csv(first)
        np.testing.assert_array_equal(t_back, times)
        np.testing.assert_array_equal(p_back, preds)
        write_predictions_csv(t_back, p_back, second)
        assert first.read_bytes() == second.read_bytes()

    def test_predictions_rows_in_any_order(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("subject,t,pi\n1,1.0,0.5\n0,0.5,0.9\n1,0.5,0.7\n0,1.0,0.8\n")
        times, preds = read_predictions_csv(path)
        np.testing.assert_array_equal(times, [0.5, 1.0])
        np.testing.assert_array_equal(preds, [[0.9, 0.8], [0.7, 0.5]])

    @pytest.mark.parametrize("rows, message", [
        ("0,0.5,0.9\n1,0.5,0.8\n-1,0.5,0.1\n", "non-negative integers"),
        ("0,0.5,0.9\n1,0.5,0.8\n1.5,0.5,0.1\n", "non-negative integers"),
        ("0,0.5,0.9\n1,0.5,0.8\nnan,0.5,0.1\n", "non-negative integers"),
        ("0,0.5,0.9\n1,0.5,0.8\n1,0.5,0.1\n", "repeats"),
        ("0,0.5,0.9\n1,0.5,0.8\n1,1.0,0.1\n", "missing"),
        ("0,0.5,0.9\n7,0.5,0.8\n", "missing"),
        ("", "missing"),
        ("0,0.5,-0.5\n", "probabilities"),
        ("0,0.5,nan\n", "finite"),
    ])
    def test_predictions_reader_rejects_bad_rows(self, tmp_path, rows, message):
        path = tmp_path / "preds.csv"
        path.write_text("subject,t,pi\n" + rows)
        with pytest.raises(ValueError, match=message):
            read_predictions_csv(path)

    @pytest.mark.parametrize("bad_time", ["inf", "nan", "-0.5"])
    def test_predictions_reader_rejects_bad_times(self, tmp_path, bad_time):
        path = tmp_path / "preds.csv"
        path.write_text(f"subject,t,pi\n0,0.5,0.9\n1,0.5,0.8\n0,{bad_time},0.7\n1,{bad_time},0.6\n")
        with pytest.raises(ValueError, match="times must be finite and positive"):
            read_predictions_csv(path)

    def test_predictions_writer_needs_one_column_per_time(self, tmp_path):
        with pytest.raises(ValueError, match="one column per time"):
            write_predictions_csv([0.5], np.ones((3, 2)), tmp_path / "p.csv")

    def test_bbs_outputs(self, tmp_path):
        curve = BBSCurve(
            grid=np.array([0.5, 1.0]), values=np.array([0.1, 0.2]),
            integrated=0.15, horizon=1.0,
        )
        write_bbs_csv(curve, tmp_path / "bbs.csv")
        assert (tmp_path / "bbs.csv").read_text().splitlines()[0] == "t,bbs"
        write_bbs_summary(curve, 2, tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc == {"ibbs": 0.15, "horizon": 1.0, "n_points": 2}

    def test_table_roundtrip(self, tmp_path):
        rows = [{"setting": 1, "true_ibbs_mean": 0.0187}]
        path = tmp_path / "table.csv"
        write_table_csv(rows, path)
        back = read_table_csv(path)
        assert back[0]["setting"] == "1"
        assert float(back[0]["true_ibbs_mean"]) == pytest.approx(0.0187)
