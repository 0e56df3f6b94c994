"""Tests of the benchmark's own code: its references, its span arithmetic and
its output.  Run with ``python -m pytest perfbench``."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import reference, run, tracing, workloads  # noqa: E402
from neuralscr import metrics  # noqa: E402
from neuralscr.core import Dataset, LinearRisk, ModelState, StepHazard  # noqa: E402
from neuralscr.likelihood import joint_event_free_survival  # noqa: E402
from neuralscr.neural import NeuralRisk, RiskNetwork  # noqa: E402

# Four subjects: progression at 1 then death at 3; death at 2 without
# progression; censored at 1.5; censored at 4.
Y1 = np.array([1.0, 2.0, 1.5, 4.0])
D1 = np.array([1.0, 0.0, 0.0, 0.0])
Y2 = np.array([3.0, 2.0, 1.5, 4.0])
D2 = np.array([1.0, 1.0, 0.0, 0.0])
PI = np.array([0.2, 0.4, 0.5, 0.9])


def test_censoring_km_by_hand():
    # censorings at 1.5 (4 at risk) and at 4 (1 at risk)
    g = reference.CensoringKM.fit(Y2, D2)
    assert g(np.array([1.0, 1.5, 3.9, 4.0])).tolist() == [1.0, 0.75, 0.75, 0.0]
    assert g(np.array([1.5, 2.0]), left=True).tolist() == [1.0, 0.75]


def test_bbs_by_hand():
    # at t = 2.5: subject 1 in region 1 (0.2^2 / G(1-) = 0.04), subject 2 in
    # region 2 (0.4^2 / G(2-) = 0.16 / 0.75), subject 3 censored before t
    # (no region), subject 4 event-free (0.1^2 / G(2.5) = 0.01 / 0.75)
    g = reference.CensoringKM.fit(Y2, D2)
    value = reference.bbs_curve(Y1, D1, Y2, D2, PI[:, None], [2.5], g)[0]
    expected = (0.04 + 0.16 / 0.75 + 0.01 / 0.75) / 4
    assert value == pytest.approx(expected, abs=1e-15)
    dataset = Dataset(Y1, D1, Y2, D2, np.zeros((4, 0)))
    assert metrics.bbs(dataset, PI, metrics.reverse_km(dataset), 2.5) == pytest.approx(expected, abs=1e-15)


def test_integrated_is_the_time_averaged_trapezoid():
    assert reference.integrated([1.0, 3.0, 2.0], [1.0, 2.0, 4.0]) == pytest.approx((2.0 + 5.0) / 3.0)
    assert reference.integrated([0.3], [1.0]) == 0.3


def hand_params(networks=None, beta=None):
    jumps = ((np.array([1.0]), np.array([0.2])), (np.array([2.0]), np.array([0.3])),
             (np.array([0.5]), np.array([0.1])))
    return reference.ModelParams(0.5, jumps, networks, beta)


def hand_state(risk_model):
    return ModelState(StepHazard([1.0], [0.2]), StepHazard([2.0], [0.3]), StepHazard([0.5], [0.1]),
                      theta=0.5, risk_model=risk_model)


def test_linear_prediction_by_hand():
    # zero coefficients: A(2.5) = 0.2 + 0.3, A(1.5) = 0.2, A(0.5) = 0
    params = hand_params(beta=np.zeros((3, 1)))
    pi = reference.joint_survival(params, np.array([[0.7]]), [0.5, 1.5, 2.5])[0]
    expected = [1.0, 1.1**-2, 1.25**-2]
    assert pi == pytest.approx(expected, abs=1e-15)
    program = joint_event_free_survival([0.7], np.array([0.5, 1.5, 2.5]), hand_state(LinearRisk(np.zeros((3, 1)))))
    assert program == pytest.approx(expected, abs=1e-15)


def test_neural_prediction_by_hand():
    # hidden relu([x, 0.5 - x]), output 2 h1 + h2: F(1) = 2, F(0) = 0.5, so h = 1.5
    layers = [(np.array([[1.0], [-1.0]]), np.array([0.0, 0.5])), (np.array([[2.0, 1.0]]), np.array([0.0]))]
    params = hand_params(networks=(layers, layers, layers))
    assert reference.log_risks(params, np.array([[1.0]]))[0].tolist() == [1.5, 1.5, 1.5]
    a = math.exp(1.5) * 0.5
    pi = reference.joint_survival(params, np.array([[1.0]]), [2.5])[0, 0]
    assert pi == pytest.approx((1 + 0.5 * a) ** -2, abs=1e-15)
    net = RiskNetwork([w for w, _ in layers], [b for _, b in layers])
    program = joint_event_free_survival([1.0], 2.5, hand_state(NeuralRisk([net, net, net])))
    assert program == pytest.approx(pi, abs=1e-14)
    state = hand_state(NeuralRisk([net, net, net]))
    assert reference.params_from_state(state).networks[0][0][0].tolist() == [[1.0], [-1.0]]


def test_prediction_problems_flag_range_and_order():
    assert reference.prediction_problems(np.array([[1.0, 0.5, 0.5]]), "x") == []
    assert len(reference.prediction_problems(np.array([[0.5, 0.6]]), "x")) == 1
    assert len(reference.prediction_problems(np.array([[1.2, 0.6]]), "x")) == 1


def span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, ("round", 0))


def test_self_times_subtract_the_union_of_children():
    spans = [
        span("phase.fit", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),      # overlaps a: the union [1, 6] is covered once
        span("c", 2.0, 3.0, 1),
        span("d", 9.0, 12.0, 0),     # runs past its parent: clipped at 10
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_records_spans_only_inside_a_phase_and_restores():
    from neuralscr import core, em, frailty, likelihood

    original = likelihood.evaluate_terms
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        assert em.evaluate_terms is frailty.evaluate_terms is likelihood.evaluate_terms
        assert em.evaluate_terms is not original
        dataset = Dataset(Y1, D1, Y2, D2, np.zeros((4, 0)))
        state = hand_state(LinearRisk(np.zeros((3, 0))))
        frailty.posterior(dataset, state)
        assert tracer.spans == []
        tracer.unit = ("round", 0)
        with tracer.phase("fit"):
            em.posterior(dataset, state)
    finally:
        tracer.uninstall()
    assert likelihood.evaluate_terms is original and em.evaluate_terms is original
    assert core.StepHazard.cumulative.__name__ == "cumulative"
    assert [s.name for s in tracer.spans[:3]] == ["phase.fit", "frailty.posterior",
                                                 "likelihood.evaluate_terms"]
    totals = tracer.unit_totals()[("round", 0)]
    assert totals["frailty.posterior_calls"] == 1
    assert totals["core.StepHazard.cumulative_calls"] == 3
    assert tracer.self_time_excess() <= 1e-12
    # the self times of a phase and everything inside it add up to its wall time
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(totals["phase.fit_s"], rel=1e-9)


SMALL = {
    "fit-neural": workloads.FitNeural.Sizes(n_train=400, n_heldout=600, em_iterations=3),
    "fit-linear": workloads.FitLinear.Sizes(replicates=2, n_train=1500, n_heldout=500),
    "score-cli": workloads.ScoreCli.Sizes(n_train=400, n_heldout=600, em_iterations=2, times=5),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_output_lists_every_declared_metric(workload, trace, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    # --blas-threads 0 leaves the test process's environment alone
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--blas-threads", "0"], sizes=SMALL[workload])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = doc["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m, line in zip(declared, lines[:-1]):
        name, value, unit = line.split()
        assert (name, unit) == (m["name"], m["unit"])
        assert result["metrics"][name] == {"value": float(value), "unit": unit}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
