"""File formats: dataset/trace/prediction CSVs and model snapshot JSON.

Dataset CSV: header ``y1,delta1,y2,delta2,x1,...,xp``, times as decimal
strings, indicators as 0/1.  Model snapshots are JSON: step-baseline models
carry theta, per-transition jump arrays, and the risk-model payload (neural
layer objects or linear coefficients); parametric models carry phi, beta,
theta.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from typing import Union

import numpy as np

from .core import Dataset, LinearRisk, ModelState, StepHazard, ZeroRisk
from .neural import NeuralRisk, RiskNetwork
from .weibull import ParametricModel


def _fmt(v) -> str:
    return repr(float(v))


# lines formatted per chunk, so the Python strings of a large file never
# coexist in memory
_CHUNK_ROWS = 4096


def _write_rows(fh, header, line, *columns) -> None:
    """Write a csv-style header and one `line.format(...)` row per entry of
    the equal-length 1-D columns; floats go through repr, as `_fmt` does."""
    fh.write(",".join(header) + "\r\n")
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = (c[start:start + _CHUNK_ROWS].tolist() for c in columns)
        fh.write("".join(map(line.format, *chunk)))


def _read_rows(path, header, what) -> np.ndarray:
    """Check the header of a numeric CSV and return its rows as an array."""
    with open(path, newline="") as fh:
        found = next(csv.reader(fh))
        if found[: len(header)] != header:
            raise ValueError(f"{what} CSV must start with columns {header}")
        with warnings.catch_warnings():  # a header-only file is empty, not an error
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    return rows.reshape(-1, len(found))


# ---------------------------------------------------------------------------
# dataset CSV
# ---------------------------------------------------------------------------


def write_dataset_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        _write_rows(
            fh, ["y1", "delta1", "y2", "delta2"] + [f"x{j + 1}" for j in range(dataset.p)],
            "{!r},{},{!r},{}" + ",{!r}" * dataset.p + "\r\n",
            dataset.y1, dataset.delta1.astype(int), dataset.y2, dataset.delta2.astype(int),
            *dataset.x.T,
        )


def read_dataset_csv(path) -> Dataset:
    rows = _read_rows(path, ["y1", "delta1", "y2", "delta2"], "dataset")
    return Dataset(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4:])


def write_truth_csv(truth, path) -> None:
    with open(path, "w", newline="") as fh:
        _write_rows(
            fh, ["gamma", "h1", "h2", "h3", "t1_true", "t2_true", "c"], "{!r}," * 6 + "{!r}\r\n",
            truth.gamma, *truth.h.T, truth.t1_true, truth.t2_true, truth.c,
        )


# ---------------------------------------------------------------------------
# model snapshots
# ---------------------------------------------------------------------------


def _network_to_json(net: RiskNetwork) -> list:
    layers = []
    n_layers = len(net.weights)
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        layers.append(
            {
                "W": w.tolist(),
                "b": b.tolist(),
                "activation": "relu" if l < n_layers - 1 else "linear",
            }
        )
    return layers


# Snapshots are checked as they load, in time linear in their size: a missing
# field, a non-finite number or a mis-shaped layer raises ValueError, where it
# would otherwise surface as a KeyError or as non-finite predictions.  Sign
# and order rules are left to StepHazard, RiskNetwork, NeuralRisk and
# ModelState.


def _field(doc, key, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"model JSON: {where} has no {key!r} field")
    return doc[key]


def _finite_array(value, ndim: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"model JSON: {what} must be numeric") from None
    if arr.ndim != ndim:
        raise ValueError(f"model JSON: {what} must be a {ndim}-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"model JSON: {what} must be finite")
    return arr


def _theta(doc) -> float:
    theta = _field(doc, "theta", "the model")
    if not isinstance(theta, (int, float)) or not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"model JSON: theta must be finite and positive, got {theta!r}")
    return float(theta)


def _network_from_json(layers, what: str) -> RiskNetwork:
    if not isinstance(layers, list) or not layers:
        raise ValueError(f"model JSON: {what} must be a nonempty list of layers")
    weights, biases = [], []
    for l, layer in enumerate(layers):
        where = f"{what} layer {l}"
        weights.append(_finite_array(_field(layer, "W", where), 2, f"{where} W"))
        biases.append(_finite_array(_field(layer, "b", where), 1, f"{where} b"))
    try:
        return RiskNetwork(weights, biases)
    except ValueError as err:
        raise ValueError(f"model JSON: {what} {err}") from None


def state_to_json(state: ModelState) -> dict:
    baselines = []
    for g, hz in enumerate(state.baselines, start=1):
        if not isinstance(hz, StepHazard):
            raise TypeError("state snapshots expect step baselines; "
                            "use parametric_to_json for Weibull models")
        baselines.append(
            {
                "transition": g,
                "jump_times": hz.jump_times.tolist(),
                "jump_sizes": hz.jump_sizes.tolist(),
            }
        )
    risk = state.risk_model
    if isinstance(risk, NeuralRisk):
        risk_json = {
            "kind": "neural",
            "sub_networks": [_network_to_json(net) for net in risk.networks],
            "xi": float(np.log(state.theta)),
        }
    elif isinstance(risk, LinearRisk):
        risk_json = {"kind": "linear", "coefficients": risk.beta.tolist()}
    elif isinstance(risk, ZeroRisk):
        risk_json = {"kind": "zero"}
    else:
        raise TypeError(f"cannot serialize risk model {type(risk).__name__}")
    return {"theta": state.theta, "baselines": baselines, "risk_model": risk_json}


def state_from_json(doc: dict) -> ModelState:
    theta = _theta(doc)
    entries = _field(doc, "baselines", "the model")
    three = isinstance(entries, list) and len(entries) == 3
    hazards = {}
    for entry in entries if three else ():
        g = _field(entry, "transition", "a baseline")
        what = f"transition {g} baseline"
        hazards[g] = StepHazard(
            _finite_array(_field(entry, "jump_times", what), 1, f"{what} jump_times"),
            _finite_array(_field(entry, "jump_sizes", what), 1, f"{what} jump_sizes"),
        )
    if set(hazards) != {1, 2, 3}:
        raise ValueError("model JSON: baselines must hold transitions 1, 2 and 3 once each")
    risk_doc = _field(doc, "risk_model", "the model")
    kind = _field(risk_doc, "kind", "risk_model")
    if kind == "neural":
        nets = _field(risk_doc, "sub_networks", "risk_model")
        if not isinstance(nets, list) or len(nets) != 3:
            raise ValueError("model JSON: risk_model needs three sub_networks")
        risk = NeuralRisk([_network_from_json(layers, f"sub-network {g}")
                           for g, layers in enumerate(nets, start=1)])
    elif kind == "linear":
        risk = LinearRisk(_finite_array(_field(risk_doc, "coefficients", "risk_model"), 2,
                                        "risk_model coefficients"))
    elif kind == "zero":
        risk = ZeroRisk()
    else:
        raise ValueError(f"unknown risk model kind {kind!r}")
    return ModelState(
        lambda01=hazards[1], lambda02=hazards[2], lambda03=hazards[3],
        theta=theta, risk_model=risk,
    )


def parametric_to_json(model: ParametricModel) -> dict:
    return {
        "phi": model.phi.tolist(),
        "beta": model.beta.tolist(),
        "theta": model.theta,
    }


def parametric_from_json(doc: dict) -> ParametricModel:
    phi = _finite_array(_field(doc, "phi", "the model"), 2, "phi")
    if phi.shape != (3, 2) or np.any(phi <= 0):
        raise ValueError("model JSON: phi must be a (3, 2) array of positive Weibull parameters")
    return ParametricModel(
        phi=phi,
        beta=_finite_array(_field(doc, "beta", "the model"), 2, "beta"),
        theta=_theta(doc),
    )


def save_model(model: Union[ModelState, ParametricModel], path) -> None:
    doc = (
        parametric_to_json(model)
        if isinstance(model, ParametricModel)
        else state_to_json(model)
    )
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> Union[ModelState, ParametricModel]:
    """Load either snapshot flavor, sniffing on the `phi` key; a snapshot
    that is not a well-formed model raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("model JSON must be an object")
    if "phi" in doc:
        return parametric_from_json(doc)
    return state_from_json(doc)


# ---------------------------------------------------------------------------
# run artifacts
# ---------------------------------------------------------------------------


def write_trace_csv(trace_rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "obs_loglik", "theta", "q1", "q2", "q3", "q4"])
        for row in trace_rows:
            writer.writerow([row[0]] + [_fmt(v) for v in row[1:]])


def write_predictions_csv(times, predictions, path) -> None:
    """Long-format predictions: one (subject, t, pi) row per pair."""
    predictions = np.atleast_2d(np.asarray(predictions, dtype=float))
    times = np.asarray(times, dtype=float)
    n, k = predictions.shape
    if len(times) != k:
        raise ValueError("predictions must hold one column per time")
    # one subject's k lines in one format call: each time's repr is taken once
    # per file and the subject id once per subject
    subject_lines = "".join(f"{{0}},{t!r},{{{j}!r}}\r\n"
                            for j, t in enumerate(times.tolist(), start=1))
    per_chunk = max(1, _CHUNK_ROWS // max(k, 1))
    with open(path, "w", newline="") as fh:
        fh.write("subject,t,pi\r\n")
        for start in range(0, n, per_chunk):
            rows = predictions[start:start + per_chunk].tolist()
            fh.write("".join([subject_lines.format(str(i), *row)
                              for i, row in enumerate(rows, start)]))


def read_predictions_csv(path):
    """Return (times, (n, k) prediction matrix) from the long format."""
    rows = _read_rows(path, ["subject", "t", "pi"], "predictions")
    if rows.shape[1] != 3:
        raise ValueError("predictions CSV must have columns subject,t,pi")
    subject, t, pi = rows.T
    if not np.all(np.isfinite(subject) & (subject >= 0) & (subject == np.floor(subject))):
        raise ValueError("predictions CSV subject ids must be non-negative integers")
    if not np.all(np.isfinite(t) & (t > 0)):
        raise ValueError("predictions CSV times must be finite and positive")
    if not np.all(np.isfinite(pi)):
        raise ValueError("predictions CSV pi values must be finite")
    if not np.all((pi >= 0.0) & (pi <= 1.0)):
        raise ValueError("predictions CSV pi values must be probabilities in [0, 1]")
    # n subjects at k times take n * k rows, so an id past the row count
    # means pairs are missing
    if len(subject) == 0 or subject.max() >= len(subject):
        raise ValueError("predictions CSV is missing (subject, t) pairs")
    ids = subject.astype(np.intp)
    times, col = np.unique(t, return_inverse=True)
    cells = np.sort(ids * len(times) + col)
    if np.any(cells[1:] == cells[:-1]):
        raise ValueError("predictions CSV repeats a (subject, t) pair")
    preds = np.full((ids.max() + 1, len(times)), np.nan)
    preds[ids, col] = pi
    if np.any(np.isnan(preds)):
        raise ValueError("predictions CSV is missing (subject, t) pairs")
    return times, preds


def write_bbs_csv(curve, path) -> None:
    with open(path, "w", newline="") as fh:
        _write_rows(fh, ["t", "bbs"], "{!r},{!r}\r\n", curve.grid, curve.values)


def write_bbs_summary(curve, n_points: int, path) -> None:
    with open(path, "w") as fh:
        json.dump(
            {"ibbs": curve.integrated, "horizon": curve.horizon, "n_points": n_points},
            fh,
        )


def write_table_csv(rows: list[dict], path) -> None:
    """Generic results table; column order follows the first row."""
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (_fmt(v) if isinstance(v, float) else v) for k, v in row.items()})


def read_table_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]
