"""Spans and counts at neuralscr's layer boundaries, recorded from outside.

The traced run replaces each function listed in ``LAYERS`` with a wrapper
that records a span (name, start, end, parent) while a benchmark phase is
open.  The wrapper is installed wherever callers look the name up: the
defining module, every neuralscr module that imported the function by name
(``em``, ``frailty`` and ``neural`` import ``evaluate_terms`` and
``posterior`` that way), and the class for methods.  Spans stay in memory until the
run ends.  A layer's self time is its span minus the part its child spans
cover.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _loss_and_grads_gflop(args, kwargs, result) -> float:
    """Matmul floating-point operations of one forward/backward pass, computed
    from the array shapes: per sub-network and layer, 2*m*din*dout for the
    forward product and for dW, and again for dA below the first layer, with
    m = n + 1 rows (the batch plus the zero-covariate reference row)."""
    dims, x = args[2], args[3]
    rows = x.shape[0] + 1
    flops = 0
    for layer, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        flops += (4 if layer == 0 else 6) * rows * int(din) * int(dout)
    return 3 * flops / 1e9


def _nstep_is_noop(args, kwargs, result) -> float:
    """1 when the N-step's lowest recorded loss is its epoch-0 loss, so it
    hands back the parameters it started from."""
    trace = np.asarray(result[2].loss_trace, dtype=float)
    if not np.any(np.isfinite(trace)):
        return 0.0
    return float(np.nanargmin(np.where(np.isfinite(trace), trace, np.nan)) == 0)


def _file_mb(args, kwargs, result) -> float:
    return os.path.getsize(args[2]) / 1e6


@dataclass(frozen=True)
class Layer:
    """A function to wrap: ``module`` and ``attr`` locate it (``attr`` may be
    ``Class.method``); ``name`` prefixes its metrics, or ``label`` makes the
    name from the call's arguments.  ``span=False`` only counts calls, under
    ``name`` itself.  ``extra`` maps a metric to a function of (args, kwargs,
    result) whose values are summed."""

    module: str
    attr: str
    name: str
    span: bool = True
    extra: tuple = ()
    label: Optional[Callable] = None


LAYERS = (
    Layer("_kernels", "loss_and_grads", "kernels.loss_and_grads",
          extra=(("kernels.loss_and_grads_gflop", _loss_and_grads_gflop),)),
    Layer("_kernels", "uniform_block", "kernels.uniform_block"),
    Layer("_kernels", "q_loss_eval", "kernels.q_loss_eval"),
    Layer("_kernels", "breslow_jumps", "kernels.breslow_jumps"),
    Layer("_kernels", "net_forward", "kernels.net_forward"),
    Layer("neural", "train_step", "neural.train_step",
          extra=(("neural.nstep_noop_calls", _nstep_is_noop),)),
    Layer("neural", "NeuralRisk.values", "neural.NeuralRisk.values"),
    Layer("frailty", "posterior", "frailty.posterior"),
    Layer("em", "m_step", "em.m_step"),
    Layer("em", "q_function", "em.q_function"),
    Layer("em", "maximize_q4_theta", "em.maximize_q4_theta"),
    Layer("em", "LinearRiskSpec.update", "em.linear_update"),
    Layer("em", "run_em", "em.run_em"),
    Layer("likelihood", "evaluate_terms", "likelihood.evaluate_terms"),
    Layer("likelihood", "observed_log_likelihood", "likelihood.observed_log_likelihood"),
    Layer("likelihood", "joint_event_free_survival", "likelihood.joint_event_free_survival"),
    Layer("core", "StepHazard.cumulative", "core.StepHazard.cumulative"),
    Layer("core", "StepHazard.hazard_at", "core.StepHazard.hazard_at"),
    Layer("core", "validate_dataset", "core.validate_dataset"),
    Layer("weibull", "fit_parametric", "weibull.fit_parametric"),
    Layer("weibull", "_loglik_and_grad", "weibull.objective_evals", span=False),
    Layer("metrics", "bbs", "metrics.bbs"),
    Layer("metrics", "reverse_km", "metrics.reverse_km"),
    Layer("metrics", "integrated_bbs", "metrics.integrated_bbs"),
    Layer("serialize", "write_predictions_csv", "serialize.write_predictions_csv",
          extra=(("serialize.predictions_csv_mb", _file_mb),)),
    Layer("serialize", "read_predictions_csv", "serialize.read_predictions_csv"),
    Layer("serialize", "read_dataset_csv", "serialize.read_dataset_csv"),
    Layer("serialize", "write_dataset_csv", "serialize.write_dataset_csv"),
    Layer("serialize", "save_model", "serialize.save_model"),
    Layer("serialize", "load_model", "serialize.load_model"),
    # argument parsing and dispatch, named after the subcommand
    Layer("cli", "main", "cli", label=lambda args, kwargs: f"cli.{args[0][0]}"),
    Layer("harness", "fit_model", "harness.fit_model"),
    Layer("simulate", "simulate", "simulate.simulate"),
    Layer("simulate", "censoring_rate", "simulate.censoring_rate"),
)

# Metrics summed over several spans.
GROUPS = {"core.StepHazard_s": ("core.StepHazard.cumulative", "core.StepHazard.hazard_at")}

# Layers that run while inputs are made; their metrics come from the set-up
# repeats, every other layer's from the measured rounds.
SETUP_LAYERS = ("simulate.", "serialize.write_dataset_csv", "phase.setup")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    unit: tuple


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the union of its direct children's
    intervals, clipped to the span."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


class NullTracer:
    """Untraced runs: phases are plain blocks and nothing is recorded."""

    unit = None

    @contextmanager
    def phase(self, name: str):
        yield

    def install(self):
        return []

    def uninstall(self):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(float)   # (unit, metric) -> value
        self.unit = None
        self._stack: list[int] = []
        self._restore: list = []

    @contextmanager
    def phase(self, name: str):
        """A root span; layer spans are recorded only inside one."""
        idx = len(self.spans)
        self.spans.append(Span(f"phase.{name}", time.perf_counter(), math.nan, None, self.unit))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            if not layer.span:
                tracer.counts[(tracer.unit, layer.name)] += 1
                result = fn(*args, **kwargs)
            else:
                name = layer.label(args, kwargs) if layer.label else layer.name
                tracer.counts[(tracer.unit, name + "_calls")] += 1
                idx = len(tracer.spans)
                tracer.spans.append(
                    Span(name, time.perf_counter(), math.nan, tracer._stack[-1], tracer.unit))
                tracer._stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._stack.pop()
                    tracer.spans[idx].end = time.perf_counter()
            for metric, measure in layer.extra:
                try:
                    tracer.counts[(tracer.unit, metric)] += measure(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    # the call's signature changed: the measure reads 0
                    pass
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer.name)
        return wrapper

    def install(self, package: str = "neuralscr") -> list[str]:
        """Wrap every layer; returns the layers that could not be found."""
        modules = {}
        for name in sorted({layer.module for layer in LAYERS}):
            try:
                modules[name] = importlib.import_module(f"{package}.{name}")
            except ImportError:
                pass
        lookup_sites = [importlib.import_module(package), *modules.values()]
        missing = []
        for layer in LAYERS:
            owner = modules.get(layer.module)
            *cls_path, attr = layer.attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(layer.name)
                continue
            wrapper = self._wrap(original, layer)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for module in lookup_sites:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return missing

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            setattr(*self._restore.pop())

    # -- aggregation -------------------------------------------------------

    def unit_totals(self) -> dict:
        """{unit: {metric: value}}: summed self times (``<name>_s``), call
        counts and extra measures, per set-up repeat or round."""
        totals = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self_times(self.spans)):
            if span.parent is None:
                totals[span.unit][span.name + "_s"] += span.end - span.start
            else:
                totals[span.unit][span.name + "_s"] += own
        for (unit, metric), value in self.counts.items():
            totals[unit][metric] += value
        for unit in totals:
            for metric, members in GROUPS.items():
                totals[unit][metric] = sum(totals[unit][m + "_s"] for m in members)
        return totals

    def self_time_excess(self) -> float:
        """Largest amount by which the self times inside one phase exceed the
        phase's wall time (<= 0 when the arithmetic holds)."""
        own = self_times(self.spans)
        root_of = []
        inside = defaultdict(float)
        for i, span in enumerate(self.spans):
            root = i if span.parent is None else root_of[span.parent]
            root_of.append(root)
            if span.parent is not None:
                inside[root] += own[i]
        return max((inside[i] - (s.end - s.start) for i, s in enumerate(self.spans)
                    if s.parent is None), default=0.0)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "unit": list(s.unit)}) + "\n")


def layer_metrics(totals: dict, names, iterations: dict) -> dict:
    """Per-layer metric values: the median over rounds of each round's total,
    or over set-up repeats for the set-up layers.  ``iterations`` gives the
    EM iterations of each round, for the per-iteration ratios."""
    rounds = [u for u in totals if u[0] == "round"]
    setups = [u for u in totals if u[0] == "setup"]
    out = {}
    for name in names:
        units = setups if name.startswith(SETUP_LAYERS) else rounds
        if name.endswith("_per_iteration"):
            calls = name[: -len("_per_iteration")] + "_calls"
            values = [totals[u][calls] / max(iterations[u], 1) for u in units]
        else:
            values = [totals[u].get(name, 0.0) for u in units]
        out[name] = statistics.median(values) if values else 0.0
    return out
