import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import neuralscr
from neuralscr.cli import _train_config, build_parser, main
from neuralscr.serialize import read_dataset_csv, read_table_csv, write_dataset_csv
from neuralscr.simulate import SimConfig, simulate


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = main([
        "simulate", "--n", "120", "--theta", "0.5", "--risk-kind", "linear",
        "--censoring-target", "0.25", "--seed", "4",
        "--out", str(path), "--truth", str(tmp_path / "truth.csv"),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def neural_model(tmp_path_factory):
    """A small fitted neural model (p = 2) and the dataset it was fitted to."""
    tmp = tmp_path_factory.mktemp("neural_model")
    data, model = tmp / "data.csv", tmp / "model.json"
    ds, _ = simulate(SimConfig(n=120, theta=0.5, risk_kind="linear",
                               censoring_target=0.25, seed=4))
    write_dataset_csv(ds, data)
    assert main(["fit", "--data", str(data), "--model", "neural", "--out", str(model),
                 "--em-iterations", "2", "--epochs", "2", "--nodes", "4", "--layers", "1",
                 "--theta-init", "0.5", "--seed", "0"]) == 0
    return data, json.loads(model.read_text())


def setting(path, value):
    """A corruption that sets the JSON field at `path` to `value`."""
    def corrupt(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return corrupt


class TestSimulateCommand:
    def test_writes_dataset_and_truth(self, data_csv, tmp_path):
        ds = read_dataset_csv(data_csv)
        assert ds.n == 120 and ds.p == 2
        truth_lines = (tmp_path / "truth.csv").read_text().splitlines()
        assert truth_lines[0] == "gamma,h1,h2,h3,t1_true,t2_true,c"
        assert len(truth_lines) == 121

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n": 30, "theta": 0.5, "risk_kind": "none", "seed": 1}))
        out = tmp_path / "d.csv"
        assert main(["simulate", "--config", str(cfg), "--n", "45", "--out", str(out)]) == 0
        assert read_dataset_csv(out).n == 45


class TestFitPredictEvaluate:
    def test_parametric_pipeline(self, data_csv, tmp_path):
        model = tmp_path / "model.json"
        assert main(["fit", "--data", str(data_csv), "--model", "parametric",
                     "--out", str(model), "--seed", "0"]) == 0
        doc = json.loads(model.read_text())
        assert "phi" in doc

        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model), "--data", str(data_csv),
                     "--times", "0.1,0.3,0.5", "--out", str(preds)]) == 0

        bbs_out = tmp_path / "bbs.csv"
        summary = tmp_path / "summary.json"
        assert main(["evaluate", "--data", str(data_csv), "--preds", str(preds),
                     "--horizon", "0.5", "--out", str(bbs_out),
                     "--summary", str(summary)]) == 0
        lines = bbs_out.read_text().splitlines()
        assert lines[0] == "t,bbs"
        assert len(lines) == 4
        doc = json.loads(summary.read_text())
        assert doc["n_points"] == 3
        assert 0 <= doc["ibbs"] < 1

    def test_linear_fit_with_trace(self, data_csv, tmp_path):
        model = tmp_path / "model.json"
        trace = tmp_path / "trace.csv"
        assert main(["fit", "--data", str(data_csv), "--model", "linear",
                     "--out", str(model), "--trace", str(trace),
                     "--em-iterations", "5", "--seed", "0"]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,obs_loglik,theta,q1,q2,q3,q4"
        assert len(lines) >= 2

    def test_neural_fit_tiny(self, data_csv, tmp_path):
        model = tmp_path / "model.json"
        assert main(["fit", "--data", str(data_csv), "--model", "neural",
                     "--out", str(model), "--em-iterations", "3", "--epochs", "4",
                     "--nodes", "4", "--layers", "1", "--theta-init", "0.5",
                     "--seed", "0"]) == 0
        doc = json.loads(model.read_text())
        assert doc["risk_model"]["kind"] == "neural"
        assert len(doc["baselines"]) == 3


def run_python(script: str) -> str:
    """Run `script` in a fresh interpreter that imports this checkout's
    package; returns its stdout, after checking that it exited 0."""
    src = str(Path(neuralscr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestColdProcess:
    def test_only_a_parametric_fit_loads_scipy(self, neural_model, tmp_path):
        # the E-step's special functions and the theta search are local, and
        # the neural theta seed is a linear EM fit, so a fresh process that
        # simulates, fits linear and neural models, predicts and scores never
        # imports scipy; the Weibull fit imports it when called
        data, doc = neural_model
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        sim, preds = tmp_path / "sim.csv", tmp_path / "preds.csv"
        commands = [
            ["simulate", "--n", "40", "--seed", "2", "--out", str(sim)],
            ["fit", "--data", str(sim), "--model", "linear", "--em-iterations", "5",
             "--seed", "0", "--out", str(tmp_path / "linear.json")],
            ["fit", "--data", str(sim), "--model", "neural", "--em-iterations", "2",
             "--epochs", "2", "--nodes", "4", "--layers", "1", "--seed", "0",
             "--out", str(tmp_path / "neural.json")],
            ["predict", "--model", str(tmp_path / "linear.json"), "--data", str(sim),
             "--times", "0.2,0.5", "--out", str(tmp_path / "linear_preds.csv")],
            ["predict", "--model", str(model), "--data", str(data), "--times", "0.2,0.5",
             "--out", str(preds)],
            ["evaluate", "--data", str(data), "--preds", str(preds),
             "--horizon", "0.5", "--out", str(tmp_path / "bbs.csv")],
        ]
        parametric = ["fit", "--data", str(sim), "--model", "parametric", "--seed", "0",
                      "--out", str(tmp_path / "parametric.json")]
        script = (
            "import contextlib, io, sys, warnings\n"
            "import neuralscr.cli\n"
            "warnings.simplefilter('ignore')\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert neuralscr.cli.main(argv) == 0, argv\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = neuralscr.cli.main({parametric!r})\n"
            "print(loaded, code)\n"
        )
        assert run_python(script).strip() == "[] 0"
        assert (tmp_path / "parametric.json").exists()
        assert (tmp_path / "neural.json").exists()

    def test_without_scipy_only_the_weibull_fits_fail(self, tmp_path):
        # a finder that refuses scipy stands in for an install without the
        # parametric extra, so nothing is uninstalled: every command that
        # fits a Weibull model exits 2 and names the extra, and EM fits run
        sim = tmp_path / "sim.csv"
        fit = ["fit", "--data", str(sim), "--seed", "0", "--out", str(tmp_path / "m.json")]
        commands = [
            ["simulate", "--n", "40", "--seed", "2", "--out", str(sim)],
            fit + ["--model", "parametric"],
            ["bootstrap", "--data", str(sim), "--model", "parametric", "--resamples", "2",
             "--seed", "0"],
            ["replicate-study", "--study", "neural-em-validation", "--replicates", "1",
             "--n", "40", "--seed", "0", "--out", str(tmp_path / "study.csv")],
            fit + ["--model", "neural", "--em-iterations", "2", "--epochs", "2",
                   "--nodes", "4", "--layers", "1"],
            fit + ["--model", "linear", "--em-iterations", "5"],
        ]
        script = (
            "import contextlib, io, sys, warnings\n"
            "class RefuseScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
            "sys.meta_path.insert(0, RefuseScipy())\n"
            "import neuralscr.cli\n"
            "warnings.simplefilter('ignore')\n"
            f"for argv in {commands!r}:\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
            "        code = neuralscr.cli.main(argv)\n"
            "    print(argv[0], argv[argv.index('--model') + 1] if '--model' in argv else '-',\n"
            "          code, 'neuralscr[parametric]' in err.getvalue())\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        )
        assert run_python(script).splitlines() == [
            "simulate - 0 False",
            "fit parametric 2 True",
            "bootstrap parametric 2 True",
            "replicate-study - 2 True",
            "fit neural 0 False",
            "fit linear 0 False",
            "False",
        ]


class TestCVAndStudy:
    def test_cv_command(self, data_csv, tmp_path):
        out = tmp_path / "cv.csv"
        assert main(["cv", "--data", str(data_csv), "--model", "parametric",
                     "--folds", "2", "--horizon", "0.5", "--seed", "1",
                     "--out", str(out)]) == 0
        rows = read_table_csv(out)
        assert rows[-2]["fold"] == "mean"

    def test_bootstrap_command(self, data_csv, tmp_path):
        out = tmp_path / "boot.csv"
        assert main(["bootstrap", "--data", str(data_csv), "--model", "parametric",
                     "--resamples", "2", "--seed", "1", "--out", str(out)]) == 0
        rows = read_table_csv(out)
        assert {r["transition"] for r in rows} == {"1", "2", "3"}

    def test_replicate_study_command(self, tmp_path):
        out = tmp_path / "study.csv"
        assert main(["replicate-study", "--study", "bbs-validation",
                     "--replicates", "2", "--n", "150", "--settings", "1",
                     "--seed", "2", "--out", str(out)]) == 0
        rows = read_table_csv(out)
        assert len(rows) == 1


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y1,delta1,y2,delta2,x1\n3.0,1,2.0,1,0.5\n")
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(bad), "--model", "parametric",
                     "--out", str(model)]) == 2

    def test_indicator_outside_zero_one_is_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y1,delta1,y2,delta2,x1\n1.0,2,1.5,1,0.5\n2.0,0,2.0,0,0.1\n")
        assert main(["fit", "--data", str(bad), "--model", "linear",
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_missing_config_is_2(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "d.csv")]) == 2

    def test_numeric_error_is_3(self, tmp_path):
        # every subject censored at 0.001: the reverse-KM curve is zero over
        # the whole evaluation grid, so the weights are undefined
        data = tmp_path / "all_censored.csv"
        rows = ["y1,delta1,y2,delta2,x1"] + ["0.001,0,0.001,0,0.5"] * 10
        data.write_text("\n".join(rows) + "\n")
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(self._degenerate_model(tmp_path)),
                     "--data", str(data), "--times", "1.0",
                     "--out", str(preds)]) == 0
        code = main(["evaluate", "--data", str(data), "--preds", str(preds),
                     "--horizon", "1.0", "--out", str(tmp_path / "bbs.csv")])
        assert code == 3

    @pytest.mark.parametrize("rows, message", [
        ("0,0.5,0.9\n1,0.5,0.8\n-1,0.5,0.1\n", "non-negative integers"),
        ("0,0.5,0.9\n1.5,0.5,0.8\n1,0.5,0.1\n", "non-negative integers"),
        ("0,0.5,0.9\n1,0.5,0.8\n1,0.5,0.1\n", "repeats a (subject, t) pair"),
    ])
    def test_bad_prediction_subjects_are_2(self, tmp_path, capsys, rows, message):
        data = tmp_path / "data.csv"
        data.write_text("y1,delta1,y2,delta2,x1\n0.4,1,0.8,1,0.1\n1.0,0,1.0,0,0.2\n")
        preds = tmp_path / "preds.csv"
        preds.write_text("subject,t,pi\n" + rows)
        code = main(["evaluate", "--data", str(data), "--preds", str(preds),
                     "--horizon", "0.5", "--out", str(tmp_path / "bbs.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        ("0,0.5,5.0\n1,0.5,-3\n", "probabilities in [0, 1]"),
        ("0,0.5,0.9\n1,0.5,1.5\n", "probabilities in [0, 1]"),
        ("0,0.5,nan\n1,0.5,0.8\n", "must be finite"),
        ("0,0.5,0.9\n1,0.5,inf\n", "must be finite"),
    ])
    def test_non_probability_predictions_are_2(self, tmp_path, capsys, rows, message):
        data = tmp_path / "data.csv"
        data.write_text("y1,delta1,y2,delta2,x1\n0.4,1,0.8,1,0.1\n1.0,0,1.0,0,0.2\n")
        preds = tmp_path / "preds.csv"
        preds.write_text("subject,t,pi\n" + rows)
        code = main(["evaluate", "--data", str(data), "--preds", str(preds),
                     "--horizon", "0.5", "--out", str(tmp_path / "bbs.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad_time", ["inf", "nan", "-0.5"])
    def test_bad_prediction_times_are_2(self, tmp_path, capsys, bad_time):
        data = tmp_path / "data.csv"
        data.write_text("y1,delta1,y2,delta2,x1\n0.4,1,0.8,1,0.1\n1.0,0,1.0,0,0.2\n")
        preds = tmp_path / "preds.csv"
        preds.write_text("subject,t,pi\n0,0.5,0.9\n1,0.5,0.8\n"
                         f"0,{bad_time},0.7\n1,{bad_time},0.6\n")
        summary = tmp_path / "summary.json"
        code = main(["evaluate", "--data", str(data), "--preds", str(preds),
                     "--out", str(tmp_path / "bbs.csv"), "--summary", str(summary)])
        assert code == 2
        assert "times must be finite and positive" in capsys.readouterr().err
        assert not summary.exists()

    @pytest.mark.parametrize("horizon, message", [
        ("inf", "horizon must be finite and positive, got inf"),
        ("nan", "horizon must be finite and positive, got nan"),
        ("0", "horizon must be finite and positive, got 0"),
        ("0.2", "horizon 0.2 is before the first prediction time 0.5"),
    ])
    def test_bad_evaluate_horizon_is_2(self, tmp_path, capsys, horizon, message):
        data = tmp_path / "data.csv"
        data.write_text("y1,delta1,y2,delta2,x1\n0.4,1,0.8,1,0.1\n1.0,0,1.0,0,0.2\n")
        preds = tmp_path / "preds.csv"
        preds.write_text("subject,t,pi\n0,0.5,0.9\n1,0.5,0.8\n")
        code = main(["evaluate", "--data", str(data), "--preds", str(preds),
                     "--horizon", horizon, "--out", str(tmp_path / "bbs.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_cv_bad_horizon_is_2(self, data_csv, capsys):
        assert main(["cv", "--data", str(data_csv), "--model", "parametric",
                     "--folds", "2", "--horizon", "inf"]) == 2
        assert "horizon must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc.pop("theta"), "has no 'theta' field"),
        (lambda doc: doc["risk_model"].pop("sub_networks"), "has no 'sub_networks' field"),
        (lambda doc: doc["baselines"].pop(), "transitions 1, 2 and 3"),
        (setting(("baselines", 0, "jump_sizes", 0), math.nan), "jump_sizes must be finite"),
        (setting(("theta",), math.inf), "theta must be finite and positive"),
        (setting(("theta",), 0.0), "theta must be finite and positive"),
        (setting(("baselines", 1, "jump_sizes", 0), -0.1), "jump_sizes must be positive"),
        (lambda doc: doc["baselines"][1]["jump_times"].reverse(), "strictly increasing"),
        (lambda doc: doc["risk_model"]["sub_networks"][1][0]["W"].pop(),
         "sub-network 2 layer 0 has W (3, 2) and b (4,)"),
        (lambda doc: doc["risk_model"]["sub_networks"][2][1]["W"][0].pop(),
         "sub-network 3 layer 1 has W (1, 3) and b (1,); expected W (k, 4)"),
        (setting(("risk_model", "sub_networks", 0, 1, "b"), [0.5]), "output bias"),
    ], ids=["no-theta", "no-sub-networks", "two-baselines", "nan-jump", "inf-theta",
            "zero-theta", "negative-jump", "unordered-jumps", "bias-shape", "unchained-layer",
            "output-bias"])
    def test_corrupt_model_json_is_2(self, neural_model, tmp_path, capsys, corrupt, message):
        data, doc = neural_model
        doc = json.loads(json.dumps(doc))
        corrupt(doc)
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        code = main(["predict", "--model", str(model), "--data", str(data),
                     "--times", "0.5", "--out", str(tmp_path / "preds.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_predict_names_both_covariate_counts(self, neural_model, tmp_path, capsys):
        _, doc = neural_model
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        wide = tmp_path / "wide.csv"
        ds, _ = simulate(SimConfig(n=30, theta=0.5, risk_kind="none", p=3, seed=2))
        write_dataset_csv(ds, wide)
        code = main(["predict", "--model", str(model), "--data", str(wide),
                     "--times", "0.5", "--out", str(tmp_path / "preds.csv")])
        assert code == 2
        assert "the model takes p = 2 covariates, the data has p = 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, code", [
        ("--em-iterations", "0", 2),
        ("--em-tolerance", "0", 2),
        ("--nodes", "0", 2),
        ("--layers", "0", 2),
        ("--epochs", "0", 2),
        ("--epochs", "-1", 2),
        ("--dropout", "0", 0),
    ])
    def test_explicit_zero_is_not_the_default(self, data_csv, tmp_path, flag, value, code):
        argv = ["fit", "--data", str(data_csv), "--model", "neural",
                "--out", str(tmp_path / "m.json"), "--em-iterations", "2", "--epochs", "2",
                "--nodes", "4", "--layers", "1", "--theta-init", "0.5", flag, value]
        assert main(argv) == code
        if flag == "--dropout":
            assert _train_config(build_parser().parse_args(argv), {}).dropout_fraction == 0.0

    @staticmethod
    def _degenerate_model(tmp_path):
        path = tmp_path / "deg.json"
        path.write_text(json.dumps({
            "theta": 1.0,
            "baselines": [
                {"transition": 1, "jump_times": [0.1], "jump_sizes": [0.2]},
                {"transition": 2, "jump_times": [0.1], "jump_sizes": [0.2]},
                {"transition": 3, "jump_times": [], "jump_sizes": []},
            ],
            "risk_model": {"kind": "zero"},
        }))
        return path
