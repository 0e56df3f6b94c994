"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup`` and then runs
identical rounds of operations (fits, scorings, CLI commands and one
correctness check), timing only the calls into neuralscr.  Every value a
round reports is deterministic given the seed, except the wall times.

* ``fit-neural``: one neural EM fit with a fixed iteration budget on the
  non-monotonic design, then a large held-out cohort scored through a
  per-time ``predict`` callback, as ``harness.cv`` scores.
* ``fit-linear``: replicate linear-risk EM fits run to the default
  tolerance on the correctly specified linear design, each scored on its
  own held-out cohort.
* ``score-cli``: ``neuralscr fit``, ``predict`` and ``evaluate`` driven
  through ``cli.main`` on CSV and JSON files, with a short dropout-free
  fit and a held-out cohort of tens of thousands of subjects.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import time
import traceback
import warnings
from dataclasses import dataclass

import numpy as np

from perfbench import reference

cli = importlib.import_module("neuralscr.cli")
em = importlib.import_module("neuralscr.em")
harness = importlib.import_module("neuralscr.harness")
likelihood = importlib.import_module("neuralscr.likelihood")
metrics = importlib.import_module("neuralscr.metrics")
neural = importlib.import_module("neuralscr.neural")
serialize = importlib.import_module("neuralscr.serialize")
simulate_module = importlib.import_module("neuralscr.simulate")

# Shared design: the simulator's Weibull baselines, theta = 0.5 and a quarter
# of the subjects censored, so the IPCW weights of the score are exercised.
# The score horizon is fixed, not taken from the data, so that heldout_ibbs
# moves with the fit and not with a seed-dependent quantile.
THETA = 0.5
CENSORING = 0.25
HORIZON = 1.0
GRID_POINTS = 100

# Stated tolerances of the fit-linear recovery check: the replicate means of
# the six coefficients (true value 1) and of theta.  At four replicates of
# n = 2000 their standard errors are about 0.025, and theta is about 0.04 low.
BETA_TOLERANCE = 0.12
THETA_TOLERANCE = 0.15
# An EM step may lower the observed log likelihood by rounding only.
ASCENT_SLACK = 1e-10
PREDICTION_TOLERANCE = 1e-9
SCORE_TOLERANCE = 1e-9


def sub_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def simulate(n: int, risk_kind: str, seed: int):
    config = simulate_module.SimConfig(
        n=n, theta=THETA, risk_kind=risk_kind, censoring_target=CENSORING, seed=seed)
    return simulate_module.simulate(config)[0]


def forget_calibration() -> None:
    """Drop the simulator's in-process censoring-rate cache, so that every
    set-up repeat pays the calibration a fresh process pays."""
    cache = getattr(simulate_module, "_RATE_CACHE", None)
    if isinstance(cache, dict):
        cache.clear()


def new_record() -> dict:
    return {"fit_s": 0.0, "score_s": 0.0, "em_iterations": 0,
            "nll_per_subject": math.nan, "heldout_ibbs": math.nan}


class Ops:
    """Runs a round's operations in order and counts them.

    An operation that raises is failed, and so is every later operation of
    the same round, so every round attempts the same number.  A check returns
    a list of problems; any problem makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self._broken = False

    def begin_round(self) -> None:
        self._broken = False

    def run(self, label: str, fn, *args):
        self.attempted += 1
        if self._broken:
            self.failed += 1
            return None
        try:
            return fn(*args)
        except Exception:  # a failed operation is counted, the run goes on
            self.failed += 1
            self._broken = True
            self.errors.append(f"{label}: {traceback.format_exc(limit=4)}")
            return None

    def check(self, label: str, fn, *args) -> None:
        problems = self.run(label, fn, *args)
        self.problems.extend(problems or [])


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, tracer, sizes=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.sizes = sizes or self.Sizes()

    def timed(self, rec: dict, key: str, phase: str, fn, *args):
        t0 = time.perf_counter()
        with self.tracer.phase(phase):
            result = fn(*args)
        rec[key] += time.perf_counter() - t0
        return result

    def score_by_callback(self, fitted, train, heldout, rec):
        """Held-out predictions through a per-time callback and their
        integrated BBS, with the censoring curve from the training data."""
        captured = []

        def predict(t):
            pi = fitted.predict(heldout.x, t)
            captured.append(pi)
            return pi

        def score():
            g_hat = metrics.reverse_km(train)
            return metrics.integrated_bbs(heldout, predict, g_hat, HORIZON, GRID_POINTS)

        curve = self.timed(rec, "score_s", "score", score)
        return curve, np.column_stack(captured)

    @staticmethod
    def callback_score_problems(label, params, train, heldout, curve, captured) -> list[str]:
        problems = []
        grid = np.linspace(HORIZON / GRID_POINTS, HORIZON, GRID_POINTS)
        if curve.grid.shape != grid.shape or not reference.close(curve.grid, grid, 1e-12):
            return [f"{label}: score grid differs from the even grid to the horizon"]
        own = reference.joint_survival(params, heldout.x, grid)
        if captured.shape != own.shape or not reference.close(captured, own, PREDICTION_TOLERANCE):
            problems.append(f"{label}: predictions differ from (1 + theta A)^(-1/theta)")
        problems += reference.prediction_problems(captured, label)
        g = reference.CensoringKM.fit(train.y2, train.delta2)
        own_ibbs = reference.integrated(
            reference.bbs_curve(heldout.y1, heldout.delta1, heldout.y2, heldout.delta2,
                                captured, grid, g), grid)
        if not reference.close(curve.integrated, own_ibbs, SCORE_TOLERANCE):
            problems.append(f"{label}: iBBS {curve.integrated!r} differs from the reference {own_ibbs!r}")
        return problems

    @staticmethod
    def nll_per_subject(dataset, state) -> float:
        return -likelihood.observed_log_likelihood(dataset, state) / dataset.n


class FitNeural(Workload):
    name = "fit-neural"

    @dataclass(frozen=True)
    class Sizes:
        n_train: int = 2000
        n_heldout: int = 10000
        em_iterations: int = 20

    def setup(self) -> None:
        forget_calibration()
        self.train = simulate(self.sizes.n_train, "nonmonotonic", sub_seed(self.seed, 1))
        self.heldout = simulate(self.sizes.n_heldout, "nonmonotonic", sub_seed(self.seed, 2))

    def fit(self, rec):
        s = sub_seed(self.seed, 3)
        # the CLI's default network and N-step; a tolerance this small stops
        # EM only on an exactly repeated log likelihood, so the budget is fixed
        em_config = em.EMConfig(max_iterations=self.sizes.em_iterations, tolerance=1e-300,
                                n_step_epochs_per_iteration=10, seed=s)
        train_config = neural.TrainConfig(learning_rate=1e-3, dropout_fraction=0.1, l2_rate=1e-4,
                                          hidden_layers=2, nodes=32, seed=s)
        fitted = self.timed(rec, "fit_s", "fit", harness.fit_model, self.train, "neural",
                            em_config, train_config, s)
        rec["em_iterations"] += len(fitted.trace_rows)
        rec["nll_per_subject"] = self.nll_per_subject(self.train, fitted.model)
        return fitted

    def score(self, fitted, rec):
        curve, captured = self.score_by_callback(fitted, self.train, self.heldout, rec)
        rec["heldout_ibbs"] = curve.integrated
        return curve, captured

    def check(self, fitted, scored) -> list[str]:
        problems = []
        loglik = [row[1] for row in fitted.trace_rows]
        if not loglik[-1] > loglik[0]:
            problems.append("fit-neural: observed log likelihood did not rise over the fit")
        if not (math.isfinite(fitted.theta) and fitted.theta > 0):
            problems.append(f"fit-neural: theta {fitted.theta!r} is not finite and positive")
        params = reference.params_from_state(fitted.model)
        return problems + self.callback_score_problems(
            "fit-neural", params, self.train, self.heldout, *scored)

    def run_round(self, ops: Ops) -> dict:
        rec = new_record()
        fitted = ops.run("fit", self.fit, rec)
        scored = ops.run("score", self.score, fitted, rec)
        ops.check("check", self.check, fitted, scored)
        return rec


class FitLinear(Workload):
    name = "fit-linear"

    @dataclass(frozen=True)
    class Sizes:
        replicates: int = 4
        n_train: int = 2000
        n_heldout: int = 8000

    def setup(self) -> None:
        forget_calibration()
        self.cohorts = [
            (simulate(self.sizes.n_train, "linear", sub_seed(self.seed, 4, r)),
             simulate(self.sizes.n_heldout, "linear", sub_seed(self.seed, 5, r)))
            for r in range(self.sizes.replicates)
        ]

    def fit(self, r, rec):
        train = self.cohorts[r][0]
        fitted = self.timed(rec, "fit_s", "fit", harness.fit_model, train, "linear",
                            None, None, sub_seed(self.seed, 6, r))
        rec["em_iterations"] += len(fitted.trace_rows)
        return fitted

    def score(self, r, fitted, rec):
        return self.score_by_callback(fitted, *self.cohorts[r], rec)

    def check(self, fits, scores) -> list[str]:
        problems = []
        for r, fitted in enumerate(fits):
            loglik = np.array([row[1] for row in fitted.trace_rows])
            if not fitted.converged:
                problems.append(f"fit-linear {r}: EM did not converge")
            if np.any(np.diff(loglik) < -ASCENT_SLACK * np.abs(loglik[:-1])):
                problems.append(f"fit-linear {r}: observed log likelihood decreased")
            params = reference.params_from_state(fitted.model)
            problems += self.callback_score_problems(
                f"fit-linear {r}", params, *self.cohorts[r], *scores[r])
        beta = np.mean([f.model.risk_model.beta for f in fits], axis=0)
        theta = np.mean([f.theta for f in fits])
        if np.any(np.abs(beta - 1.0) > BETA_TOLERANCE):
            problems.append(f"fit-linear: mean beta {beta.tolist()} not within {BETA_TOLERANCE} of 1")
        if abs(theta - THETA) > THETA_TOLERANCE:
            problems.append(f"fit-linear: mean theta {theta!r} not within {THETA_TOLERANCE} of {THETA}")
        return problems

    def run_round(self, ops: Ops) -> dict:
        rec = new_record()
        fits, scores = [], []
        for r in range(self.sizes.replicates):
            fits.append(ops.run("fit", self.fit, r, rec))
            scores.append(ops.run("score", self.score, r, fits[-1], rec))
        ops.check("check", self.check, fits, scores)
        if None not in fits:
            rec["nll_per_subject"] = float(np.mean(
                [self.nll_per_subject(c[0], f.model) for c, f in zip(self.cohorts, fits)]))
        if None not in scores:
            rec["heldout_ibbs"] = float(np.mean([s[0].integrated for s in scores]))
        return rec


class ScoreCli(Workload):
    name = "score-cli"

    @dataclass(frozen=True)
    class Sizes:
        n_train: int = 2000
        n_heldout: int = 20000
        em_iterations: int = 10
        times: int = 10

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        forget_calibration()
        self.train = simulate(self.sizes.n_train, "nonmonotonic", sub_seed(self.seed, 7))
        self.heldout = simulate(self.sizes.n_heldout, "nonmonotonic", sub_seed(self.seed, 8))
        serialize.write_dataset_csv(self.train, self.path("train.csv"))
        serialize.write_dataset_csv(self.heldout, self.path("heldout.csv"))
        k = self.sizes.times
        self.times = np.linspace(HORIZON / k, HORIZON, k)

    def command(self, rec, key, argv) -> None:
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        code = self.timed(rec, key, key.removesuffix("_s"), call)
        if code != 0:
            raise RuntimeError(f"neuralscr {argv[0]} exited with code {code}")

    def fit(self, rec) -> None:
        self.command(rec, "fit_s", [
            "fit", "--data", self.path("train.csv"), "--model", "neural",
            "--out", self.path("model.json"), "--trace", self.path("trace.csv"),
            "--em-iterations", str(self.sizes.em_iterations), "--dropout", "0",
            "--seed", str(sub_seed(self.seed, 9))])
        with open(self.path("trace.csv")) as fh:
            rec["em_iterations"] += sum(1 for line in fh if line.strip()) - 1
        state = serialize.load_model(self.path("model.json"))
        rec["nll_per_subject"] = self.nll_per_subject(self.train, state)

    def predict(self, rec) -> None:
        self.command(rec, "score_s", [
            "predict", "--model", self.path("model.json"), "--data", self.path("heldout.csv"),
            "--times", ",".join(repr(float(t)) for t in self.times),
            "--out", self.path("preds.csv")])

    def evaluate(self, rec) -> None:
        self.command(rec, "score_s", [
            "evaluate", "--data", self.path("heldout.csv"), "--preds", self.path("preds.csv"),
            "--horizon", repr(HORIZON), "--out", self.path("bbs.csv"),
            "--summary", self.path("summary.json")])
        with open(self.path("summary.json")) as fh:
            rec["heldout_ibbs"] = float(json.load(fh)["ibbs"])

    def read_predictions(self) -> np.ndarray:
        """(n, k) matrix from the long-format ``subject,t,pi`` file."""
        with open(self.path("preds.csv")) as fh:
            header = fh.readline().strip()
            if header != "subject,t,pi":
                raise ValueError(f"unexpected predictions header {header!r}")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        times, col = np.unique(rows[:, 1], return_inverse=True)
        pi = np.full((self.sizes.n_heldout, len(times)), np.nan)
        pi[rows[:, 0].astype(int), col] = rows[:, 2]
        if not np.array_equal(times, self.times):
            raise ValueError("predictions are not at the requested times")
        return pi

    def check(self, rec) -> list[str]:
        pi = self.read_predictions()
        with open(self.path("model.json")) as fh:
            params = reference.params_from_json(json.load(fh))
        problems = []
        own = reference.joint_survival(params, self.heldout.x, self.times)
        if not reference.close(pi, own, PREDICTION_TOLERANCE):
            problems.append("score-cli: written predictions differ from (1 + theta A)^(-1/theta)")
        problems += reference.prediction_problems(pi, "score-cli")
        h = self.heldout
        g = reference.CensoringKM.fit(h.y2, h.delta2)
        own_ibbs = reference.integrated(
            reference.bbs_curve(h.y1, h.delta1, h.y2, h.delta2, pi, self.times, g), self.times)
        if not reference.close(rec["heldout_ibbs"], own_ibbs, SCORE_TOLERANCE):
            problems.append(f"score-cli: iBBS {rec['heldout_ibbs']!r} differs from the reference {own_ibbs!r}")
        return problems

    def run_round(self, ops: Ops) -> dict:
        rec = new_record()
        ops.run("fit", self.fit, rec)
        ops.run("predict", self.predict, rec)
        ops.run("evaluate", self.evaluate, rec)
        ops.check("check", self.check, rec)
        return rec


WORKLOADS = {w.name: w for w in (FitNeural, FitLinear, ScoreCli)}


def quiet_warnings() -> None:
    """The fixed EM budget never converges by design; its warning is noise."""
    warnings.simplefilter("ignore", em.NonConvergenceWarning)
