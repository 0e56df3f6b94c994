"""Cross-validation, bootstrap bands, and replication studies.

Everything here is seed-deterministic: folds, resamples, and replicates draw
their streams from (seed, unit index), and test subjects never leak into
censoring-curve estimation or training.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import Dataset, ModelState
from .em import EMConfig, EmptyRiskSetError, LinearRiskSpec, run_em
from .likelihood import joint_event_free_survival
from .metrics import (
    CensoringCurve,
    ExponentialCensoring,
    ZeroWeightError,
    check_horizon,
    integrated_bbs,
    reverse_km,
)
from .neural import NeuralRiskSpec, TrainConfig, derive_seed
from .simulate import SimConfig, censoring_rate, risk_values, simulate, true_survival
from .weibull import OptimizerFailureError, ParametricModel, fit_parametric

MODEL_KINDS = ("neural", "parametric", "linear")

# Failures of the numbers rather than of the input or the code: the CLI exits
# 3 on them, and a bootstrap resample that raises one counts as failed.
NUMERIC_ERRORS = (
    EmptyRiskSetError,
    OptimizerFailureError,
    ZeroWeightError,
    FloatingPointError,
    ZeroDivisionError,
    np.linalg.LinAlgError,
    RuntimeError,
)

# Shared-Weibull design of the score-validation study: shape 1.5 across all
# transitions, scale calibrated so the no-censoring true integrated score
# sits near 0.019-0.020 at the 1-unit horizon (rare-event regime), theta 0.5.
BBS_STUDY_SHAPE = 1.5
BBS_STUDY_SCALE = 0.0263
BBS_STUDY_THETA = 0.5


class FoldTooSmallError(ValueError):
    pass


@dataclass
class FittedModel:
    """Uniform wrapper over the parametric and EM-fitted models."""

    kind: str
    model: Union[ModelState, ParametricModel]
    theta_init: float = float("nan")
    converged: bool = True
    trace_rows: Optional[list] = None

    @property
    def theta(self) -> float:
        return self.model.theta

    def predict(self, x, t):
        state = self.model.to_state() if isinstance(self.model, ParametricModel) else self.model
        return joint_event_free_survival(x, t, state)

    def h_values(self, x) -> np.ndarray:
        if isinstance(self.model, ParametricModel):
            return self.model.h_values(x)
        return self.model.risk_values(np.atleast_2d(x))

    def baselines(self):
        state = self.model.to_state() if isinstance(self.model, ParametricModel) else self.model
        return state.baselines


def fit_model(
    dataset: Dataset,
    kind: str,
    em_config: Optional[EMConfig] = None,
    train_config: Optional[TrainConfig] = None,
    seed: int = 0,
    theta_init: Optional[float] = None,
) -> FittedModel:
    """Fit one of the supported model kinds to a validated dataset.

    `seed` always matters: for EM fits it is folded into the EM config's
    stream so repeated fits with different seeds draw different network
    initializations even under a shared configuration.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"model kind must be one of {MODEL_KINDS}")
    if kind == "parametric":
        model = fit_parametric(dataset, seed=seed)
        return FittedModel(kind=kind, model=model, theta_init=model.theta)
    em_config = em_config or EMConfig()
    from dataclasses import replace as _replace

    em_config = _replace(em_config, seed=derive_seed(em_config.seed, seed))
    if kind == "neural":
        spec = NeuralRiskSpec(train=train_config or TrainConfig(seed=seed),
                              theta_init=theta_init)
    else:
        spec = LinearRiskSpec(theta_init=theta_init)
    result = run_em(dataset, spec, em_config)
    return FittedModel(
        kind=kind, model=result.state,
        theta_init=result.theta_init, converged=result.converged,
        trace_rows=result.trace_rows(),
    )


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


@dataclass
class CVResult:
    fold_ibbs: list
    mean_ibbs: float
    sd_ibbs: float
    fold_test_indices: list


def cv(
    dataset: Dataset,
    model: str,
    folds: int = 5,
    horizon: Optional[float] = None,
    seed: int = 0,
    em_config: Optional[EMConfig] = None,
    train_config: Optional[TrainConfig] = None,
    theta_init: Optional[float] = None,
    n_points: int = 100,
) -> CVResult:
    """Seeded k-fold cross-validated integrated BBS.

    Each fold trains on the remainder, predicts pi on the held-out subjects,
    and scores them with a censoring curve estimated on the training folds
    only (no leakage into G-hat or the fit).
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if dataset.n < folds:
        raise FoldTooSmallError(f"need at least {folds} subjects for {folds} folds")
    if horizon is None:
        horizon = float(np.quantile(dataset.y2, 0.8))
    check_horizon(horizon)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    test_sets = [np.sort(part) for part in np.array_split(perm, folds)]

    scores = []
    for k, test_idx in enumerate(test_sets):
        mask = np.ones(dataset.n, dtype=bool)
        mask[test_idx] = False
        train_idx = np.flatnonzero(mask)
        assert not np.intersect1d(train_idx, test_idx).size
        train = dataset.subset(train_idx)
        test = dataset.subset(test_idx)

        fitted = fit_model(
            train, model, em_config=em_config, train_config=train_config,
            seed=derive_seed(seed, k), theta_init=theta_init,
        )
        g_hat = reverse_km(train)
        curve = integrated_bbs(
            test, lambda grid: fitted.predict(test.x, grid), g_hat, horizon, n_points,
        )
        scores.append(curve.integrated)

    mean = float(np.mean(scores))
    sd = float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0
    return CVResult(
        fold_ibbs=scores, mean_ibbs=mean, sd_ibbs=sd, fold_test_indices=test_sets
    )


# ---------------------------------------------------------------------------
# bootstrap bands for the cumulative baselines
# ---------------------------------------------------------------------------


@dataclass
class BootstrapBaselines:
    grids: np.ndarray    # (3, K)
    mean: np.ndarray     # (3, K)
    lower: np.ndarray    # (3, K) 2.5th percentile
    upper: np.ndarray    # (3, K) 97.5th percentile
    curves: np.ndarray   # (R, 3, K) per-resample evaluations
    n_failed: int


def _baseline_grids(dataset: Dataset, grid_points: int) -> np.ndarray:
    tr = dataset.transitions
    tops = []
    for times, ev in zip(tr.event_time, tr.event):
        times = times[ev > 0]
        tops.append(float(times.max()) if len(times) else float(dataset.y2.max()))
    return np.vstack([np.linspace(0.0, top, grid_points) for top in tops])


def bootstrap_baselines(
    dataset: Dataset,
    model: str,
    resamples: int = 50,
    seed: int = 0,
    em_config: Optional[EMConfig] = None,
    train_config: Optional[TrainConfig] = None,
    theta_init: Optional[float] = None,
    grid_points: int = 100,
) -> BootstrapBaselines:
    """Resample subjects with replacement, refit, and band the baselines.

    Pointwise mean and 2.5/97.5 percentiles of Lambda_0g on a common grid
    per transition.  A resample fit that raises a numeric or validation
    error (:data:`NUMERIC_ERRORS`, ValueError) counts as failed, and more
    than 20% failed fits fail the call; any other error propagates.
    """
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    grids = _baseline_grids(dataset, grid_points)
    curves = []
    failures = 0
    for r in range(resamples):
        rng = np.random.default_rng(derive_seed(seed, r))
        idx = rng.integers(0, dataset.n, size=dataset.n)
        try:
            fitted = fit_model(
                dataset.subset(idx), model, em_config=em_config,
                train_config=train_config, seed=derive_seed(seed, r, 1),
                theta_init=theta_init,
            )
            curves.append(
                np.vstack(
                    [hz.cumulative(grids[g]) for g, hz in enumerate(fitted.baselines())]
                )
            )
        except NUMERIC_ERRORS + (ValueError,) as err:
            failures += 1
            warnings.warn(f"bootstrap resample {r} failed: {err}", stacklevel=2)
    if failures > 0.2 * resamples or not curves:
        raise RuntimeError(f"{failures}/{resamples} bootstrap refits failed")
    stack = np.asarray(curves)
    return BootstrapBaselines(
        grids=grids,
        mean=stack.mean(axis=0),
        lower=np.percentile(stack, 2.5, axis=0),
        upper=np.percentile(stack, 97.5, axis=0),
        curves=stack,
        n_failed=failures,
    )


# ---------------------------------------------------------------------------
# replication studies
# ---------------------------------------------------------------------------


def bbs_study_config(covariates: bool, censoring: bool, n: int, seed: int) -> SimConfig:
    wb = ((BBS_STUDY_SCALE, BBS_STUDY_SHAPE),) * 3
    return SimConfig(
        n=n,
        theta=BBS_STUDY_THETA,
        weibulls=wb,
        risk_kind="linear" if covariates else "none",
        p=1 if covariates else 0,
        censoring_target=0.5 if censoring else 0.0,
        covariate_dist="uniform",
        seed=seed,
    )


def replicate_study(
    study: str,
    replicates: int = 100,
    seed: int = 0,
    n: int = 1000,
    settings: Optional[Sequence[int]] = None,
    horizon: float = 1.0,
    em_config: Optional[EMConfig] = None,
    train_config: Optional[TrainConfig] = None,
    risk_kinds: Sequence[str] = ("linear", "nonlinear", "nonmonotonic"),
    thetas: Sequence[float] = (0.5, 2.0),
    censoring_targets: Sequence[float] = (0.0, 0.25, 0.5),
) -> list[dict]:
    """Run one of the simulation studies and return result-table rows."""
    if study == "bbs-validation":
        return _bbs_validation(replicates, seed, n, settings, horizon)
    if study == "neural-em-validation":
        return _neural_em_validation(
            replicates, seed, n, horizon, em_config, train_config,
            risk_kinds, thetas, censoring_targets,
        )
    raise ValueError("study must be 'bbs-validation' or 'neural-em-validation'")


def _bbs_validation(replicates, seed, n, settings, horizon) -> list[dict]:
    """Score-validation table: true-parameter predictions scored with the
    known censoring curve (true column) and the reverse-KM estimate
    (calculated column)."""
    design = {
        1: (False, False),
        2: (True, False),
        3: (False, True),
        4: (True, True),
    }
    chosen = sorted(settings) if settings else sorted(design)
    rows = []
    for s in chosen:
        covariates, censoring = design[s]
        true_vals = np.empty(replicates)
        calc_vals = np.empty(replicates)
        for r in range(replicates):
            config = bbs_study_config(covariates, censoring, n, derive_seed(seed, s, r))
            dataset, _ = simulate(config)
            if censoring:
                known_g = ExponentialCensoring(censoring_rate(config))
            else:
                known_g = CensoringCurve(times=np.empty(0), survival=np.empty(0))
            est_g = reverse_km(dataset)

            def predict(grid):
                return true_survival(config, dataset.x, grid, marginal=True)

            true_vals[r] = integrated_bbs(dataset, predict, known_g, horizon).integrated
            calc_vals[r] = integrated_bbs(dataset, predict, est_g, horizon).integrated
        rows.append(
            {
                "setting": s,
                "covariates": "yes" if covariates else "no",
                "censoring": "yes" if censoring else "no",
                "true_ibbs_mean": float(true_vals.mean()),
                "true_ibbs_sd": float(true_vals.std(ddof=1)),
                "calculated_ibbs_mean": float(calc_vals.mean()),
                "calculated_ibbs_sd": float(calc_vals.std(ddof=1)),
                "replicates": replicates,
            }
        )
    return rows


def _neural_em_validation(
    replicates, seed, n, horizon, em_config, train_config,
    risk_kinds, thetas, censoring_targets,
) -> list[dict]:
    risk_codes = {"none": 0, "linear": 1, "nonlinear": 2, "nonmonotonic": 3}
    rows = []
    for theta in thetas:
        for risk_kind in risk_kinds:
            for cens in censoring_targets:
                setting_seed = derive_seed(seed, int(theta * 10), risk_codes[risk_kind], int(cens * 100))
                theta_par = np.empty(replicates)
                theta_nn = np.empty(replicates)
                ibbs = {"truth": [], "parametric": [], "neural": []}
                mise_vals = {("parametric", g): [] for g in range(3)}
                mise_vals.update({("neural", g): [] for g in range(3)})
                for r in range(replicates):
                    config = SimConfig(
                        n=n, theta=theta, risk_kind=risk_kind,
                        censoring_target=cens, seed=derive_seed(setting_seed, r),
                    )
                    dataset, _ = simulate(config)
                    par = fit_model(dataset, "parametric", seed=derive_seed(setting_seed, r, 1))
                    nn = fit_model(
                        dataset, "neural", em_config=em_config,
                        train_config=train_config,
                        seed=derive_seed(setting_seed, r, 2),
                        theta_init=par.theta,
                    )
                    theta_par[r] = par.theta
                    theta_nn[r] = nn.theta
                    g_hat = reverse_km(dataset)
                    ibbs["truth"].append(
                        integrated_bbs(
                            dataset,
                            lambda grid: true_survival(config, dataset.x, grid),
                            g_hat, horizon,
                        ).integrated
                    )
                    for label, fitted in (("parametric", par), ("neural", nn)):
                        ibbs[label].append(
                            integrated_bbs(
                                dataset, lambda grid: fitted.predict(dataset.x, grid),
                                g_hat, horizon,
                            ).integrated
                        )
                        h_hat = fitted.h_values(dataset.x)
                        h_true = risk_values(risk_kind, dataset.x)
                        for g in range(3):
                            mise_vals[(label, g)].append(
                                float(np.mean((h_true[:, g] - h_hat[:, g]) ** 2))
                            )
                row = {
                    "n": n,
                    "theta": theta,
                    "risk": risk_kind,
                    "censoring": cens,
                    "theta_parametric_mean": float(theta_par.mean()),
                    "theta_parametric_sd": float(theta_par.std(ddof=1)) if replicates > 1 else 0.0,
                    "theta_neural_mean": float(theta_nn.mean()),
                    "theta_neural_sd": float(theta_nn.std(ddof=1)) if replicates > 1 else 0.0,
                    "replicates": replicates,
                }
                for label in ("truth", "parametric", "neural"):
                    row[f"ibbs_{label}_mean"] = float(np.mean(ibbs[label]))
                    row[f"ibbs_{label}_sd"] = (
                        float(np.std(ibbs[label], ddof=1)) if replicates > 1 else 0.0
                    )
                for label in ("parametric", "neural"):
                    for g in range(3):
                        row[f"mise_{label}_h{g + 1}"] = float(np.mean(mise_vals[(label, g)]))
                rows.append(row)
    return rows
