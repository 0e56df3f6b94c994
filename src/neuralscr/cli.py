"""Command-line interface.

Subcommands: simulate, fit, predict, evaluate, cv, bootstrap,
replicate-study.  A JSON config file supplies defaults; explicit flags win.
Exit codes: 0 success, 2 validation error or a missing optional dependency,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness
from .core import DatasetValidationError, LinearRisk, validate_dataset
from .em import EMConfig
from .likelihood import joint_event_free_survival
from .metrics import check_horizon, integrated_bbs, reverse_km
from .neural import NeuralRisk, TrainConfig
from .serialize import (
    load_model,
    read_dataset_csv,
    read_predictions_csv,
    save_model,
    write_bbs_csv,
    write_bbs_summary,
    write_dataset_csv,
    write_predictions_csv,
    write_table_csv,
    write_trace_csv,
    write_truth_csv,
)
from .simulate import SimConfig, simulate
from .weibull import MissingExtraError, ParametricModel

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


def _load_config(path):
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _merged(args, key: str, config: dict, default=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        value = config.get(key)
    return default if value is None else value


def _em_config(args, config) -> EMConfig:
    return EMConfig(
        max_iterations=int(_merged(args, "em_iterations", config, 200)),
        tolerance=float(_merged(args, "em_tolerance", config, 1e-6)),
        n_step_epochs_per_iteration=int(_merged(args, "epochs", config, 10)),
        seed=int(_merged(args, "seed", config, 0)),
    )


def _train_config(args, config) -> TrainConfig:
    return TrainConfig(
        learning_rate=float(_merged(args, "learning_rate", config, 1e-3)),
        dropout_fraction=float(_merged(args, "dropout", config, 0.1)),
        l2_rate=float(_merged(args, "l2", config, 1e-4)),
        hidden_layers=int(_merged(args, "layers", config, 2)),
        nodes=int(_merged(args, "nodes", config, 32)),
        seed=int(_merged(args, "seed", config, 0)),
    )


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    sim_fields = {
        k: config[k]
        for k in (
            "n", "theta", "weibulls", "risk_kind", "p", "censoring_target",
            "censoring_rate", "covariate_dist", "seed",
        )
        if k in config
    }
    for key in ("n", "theta", "risk_kind", "censoring_target", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            sim_fields[key] = value
    if "weibulls" in sim_fields:
        sim_fields["weibulls"] = tuple(tuple(w) for w in sim_fields["weibulls"])
    if "n" not in sim_fields:
        raise ValueError("simulate needs n (flag --n or config)")
    sim_config = SimConfig(**sim_fields)
    dataset, truth = simulate(sim_config)
    write_dataset_csv(dataset, args.out)
    if args.truth:
        write_truth_csv(truth, args.truth)
    print(f"wrote {dataset.n} subjects to {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    config = _load_config(args.config)
    dataset = validate_dataset(read_dataset_csv(args.data))
    fitted = harness.fit_model(
        dataset,
        args.model,
        em_config=_em_config(args, config),
        train_config=_train_config(args, config),
        seed=int(_merged(args, "seed", config, 0)),
        theta_init=args.theta_init,
    )
    save_model(fitted.model, args.out)
    if args.trace:
        if fitted.trace_rows is None:
            print("no iteration trace for parametric fits", file=sys.stderr)
        else:
            write_trace_csv(fitted.trace_rows, args.trace)
    print(f"fitted {args.model} model (theta = {fitted.theta:.4f}) -> {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    dataset = validate_dataset(read_dataset_csv(args.data))
    times = [float(v) for v in args.times.split(",") if v.strip()]
    state = model.to_state() if isinstance(model, ParametricModel) else model
    risk = state.risk_model
    if isinstance(risk, (NeuralRisk, LinearRisk)):
        model_p = int(risk.dims[0]) if isinstance(risk, NeuralRisk) else risk.beta.shape[1]
        if model_p != dataset.p:
            raise ValueError(f"the model takes p = {model_p} covariates, "
                             f"the data has p = {dataset.p}")
    preds = joint_event_free_survival(dataset.x, np.asarray(times), state)
    write_predictions_csv(times, preds, args.out)
    print(f"wrote predictions for {dataset.n} subjects at {len(times)} times -> {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    dataset = validate_dataset(read_dataset_csv(args.data))
    times, preds = read_predictions_csv(args.preds)
    if preds.shape[0] != dataset.n:
        raise DatasetValidationError([(0, "predictions do not match the dataset size")])
    horizon = args.horizon if args.horizon is not None else float(times[-1])
    check_horizon(horizon)
    if horizon + 1e-12 < times[0]:
        raise ValueError(f"horizon {horizon:g} is before the first prediction time {times[0]:g}")
    keep = times <= horizon + 1e-12
    times, preds = times[keep], preds[:, keep]
    g_hat = reverse_km(dataset)
    curve = integrated_bbs(dataset, lambda grid: preds[:, :len(grid)], g_hat, horizon, grid=times)
    write_bbs_csv(curve, args.out)
    if args.summary:
        write_bbs_summary(curve, len(times), args.summary)
    print(f"iBBS = {curve.integrated:.6f} over [0, {curve.horizon:g}]")
    return EXIT_OK


def _cmd_cv(args) -> int:
    config = _load_config(args.config)
    dataset = validate_dataset(read_dataset_csv(args.data))
    result = harness.cv(
        dataset,
        args.model,
        folds=args.folds,
        horizon=args.horizon,
        seed=int(_merged(args, "seed", config, 0)),
        em_config=_em_config(args, config),
        train_config=_train_config(args, config),
    )
    for k, score in enumerate(result.fold_ibbs):
        print(f"fold {k}: iBBS = {score:.6f}")
    print(f"mean iBBS = {result.mean_ibbs:.6f} (SD {result.sd_ibbs:.6f})")
    if args.out:
        rows = [{"fold": k, "ibbs": float(v)} for k, v in enumerate(result.fold_ibbs)]
        rows.append({"fold": "mean", "ibbs": result.mean_ibbs})
        rows.append({"fold": "sd", "ibbs": result.sd_ibbs})
        write_table_csv(rows, args.out)
    return EXIT_OK


def _cmd_bootstrap(args) -> int:
    config = _load_config(args.config)
    dataset = validate_dataset(read_dataset_csv(args.data))
    result = harness.bootstrap_baselines(
        dataset,
        args.model,
        resamples=args.resamples,
        seed=int(_merged(args, "seed", config, 0)),
        em_config=_em_config(args, config),
        train_config=_train_config(args, config),
    )
    rows = []
    for g in range(3):
        for j in range(result.grids.shape[1]):
            rows.append(
                {
                    "transition": g + 1,
                    "t": float(result.grids[g, j]),
                    "mean": float(result.mean[g, j]),
                    "lower": float(result.lower[g, j]),
                    "upper": float(result.upper[g, j]),
                }
            )
    if args.out:
        write_table_csv(rows, args.out)
    print(
        f"bootstrap bands from {args.resamples} resamples "
        f"({result.n_failed} failed) {'-> ' + args.out if args.out else ''}"
    )
    return EXIT_OK


def _cmd_replicate_study(args) -> int:
    config = _load_config(args.config)
    rows = harness.replicate_study(
        args.study,
        replicates=args.replicates,
        seed=int(_merged(args, "seed", config, 0)),
        n=args.n,
        settings=[int(s) for s in args.settings.split(",")] if args.settings else None,
        em_config=_em_config(args, config),
        train_config=_train_config(args, config),
    )
    write_table_csv(rows, args.out)
    print(f"wrote {len(rows)} study rows -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuralscr",
        description="Neural EM for semi-competing risks (gamma-frailty illness-death model)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("simulate", help="simulate a semi-competing dataset")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="optional latent-truth CSV")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--risk-kind", dest="risk_kind",
                   choices=["none", "linear", "nonlinear", "nonmonotonic"], default=None)
    p.add_argument("--censoring-target", dest="censoring_target", type=float, default=None)

    p = sub.add_parser("fit", help="fit a model to a dataset CSV")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=["neural", "parametric", "linear"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="iteration trace CSV (EM models)")
    p.add_argument("--theta-init", dest="theta_init", type=float, default=None)
    _add_fit_flags(p)

    p = sub.add_parser("predict", help="joint event-free survival at given times")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--times", required=True, help="comma-separated time points")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="BBS curve and iBBS from predictions")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", help="optional summary JSON")

    p = sub.add_parser("cv", help="k-fold cross-validated iBBS")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=["neural", "parametric", "linear"], required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--out")
    _add_fit_flags(p)

    p = sub.add_parser("bootstrap", help="bootstrap bands for the baselines")
    add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=["neural", "parametric", "linear"], default="neural")
    p.add_argument("--resamples", type=int, default=50)
    p.add_argument("--out")
    _add_fit_flags(p)

    p = sub.add_parser("replicate-study", help="paper-style simulation studies")
    add_common(p)
    p.add_argument("--study", choices=["bbs-validation", "neural-em-validation"], required=True)
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--settings", help="comma-separated setting ids (bbs-validation)")
    p.add_argument("--out", required=True)
    _add_fit_flags(p)
    return parser


def _add_fit_flags(p) -> None:
    p.add_argument("--em-iterations", dest="em_iterations", type=int, default=None)
    p.add_argument("--em-tolerance", dest="em_tolerance", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None,
                   help="N-step epochs per EM iteration")
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--l2", type=float, default=None)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "cv": _cmd_cv,
    "bootstrap": _cmd_bootstrap,
    "replicate-study": _cmd_replicate_study,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DatasetValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except MissingExtraError as err:
        print(f"missing dependency: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except harness.NUMERIC_ERRORS as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
