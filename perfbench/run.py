"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-neural --seed 1 --seconds 35 --trace 0

Runs from a checkout of the repository and imports neuralscr from its
``src``.  BLAS and OpenMP threads are pinned to one before numpy loads
(``--blas-threads 0`` keeps the libraries' defaults).  With ``--trace 0``
it prints the end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1``
the per-layer metrics from a run with spans at each layer boundary.  Each
metric is printed as ``name value unit``; the last line is one JSON object,
which is also written under ``.perfbench/results``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# workloads.WORKLOADS, named here because that module loads numpy, which
# must wait until the thread variables are set
WORKLOAD_NAMES = ("fit-neural", "fit-linear", "score-cli")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", dest="blas_threads", type=int, default=1,
                        help="threads for BLAS/OpenMP; 0 keeps the library default")
    return parser.parse_args(argv)


def use_checkout() -> None:
    """Import neuralscr and the benchmark from this checkout, nowhere else."""
    if not (ROOT / "src" / "neuralscr" / "__init__.py").is_file():
        raise SystemExit(f"error: no neuralscr sources under {ROOT / 'src'}")
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]}}


def machine_record(blas_threads: int) -> dict:
    import numpy
    import scipy

    neuralscr = sys.modules["neuralscr"]
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads or "library default",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "neuralscr_backend": getattr(neuralscr, "BACKEND", "?"),
    }


def run(args, workdir: str, sizes=None) -> dict:
    from perfbench import tracing, workloads

    import_s = time.perf_counter() - START
    workloads.quiet_warnings()
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    missing = tracer.install()
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer, sizes)
        setup_times = []
        for i in range(SETUP_REPEATS):
            tracer.unit = ("setup", i)
            t0 = time.perf_counter()
            with tracer.phase("setup"):
                work.setup()
            setup_times.append(time.perf_counter() - t0)

        # The first round warms allocator and caches up and is left out of
        # the medians; rounds run while the next one is expected to end in time.
        # Each round starts from a collected heap, so that the garbage of the
        # previous round's checks is not collected inside a timed phase.
        ops = workloads.Ops()
        records = []
        begin = time.perf_counter()
        while True:
            tracer.unit = ("round", len(records)) if records else ("warmup", 0)
            ops.begin_round()
            gc.collect()
            records.append(work.run_round(ops))
            elapsed = time.perf_counter() - begin
            if len(records) > 1 and elapsed + elapsed / len(records) > args.seconds:
                break
    finally:
        tracer.uninstall()

    declared = declared_metrics()
    warmup, records = records[0], records[1:]
    result = {"rounds": len(records), "warmup": warmup, "records": records, "errors": ops.errors}
    if args.trace:
        totals = tracer.unit_totals()
        iterations = {("round", i + 1): rec["em_iterations"] for i, rec in enumerate(records)}
        values = tracing.layer_metrics(totals, declared["per_layer"], iterations)
        units = declared["per_layer"]
        excess = tracer.self_time_excess()
        if excess > 1e-9:
            ops.problems.append(f"self times inside a phase exceed its wall time by {excess!r} s")
        result["missing_layers"] = missing
        result["spans"] = len(tracer.spans)
        tracer.write_spans(os.path.join(workdir, "spans.jsonl"))
    else:
        values = {key: statistics.median(rec[key] for rec in records) for key in records[0]}
        values["setup_s"] = import_s + statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = declared["end_to_end"]
        result["import_s"] = import_s
        result["setup_repeats_s"] = setup_times
    result["metrics"] = {name: {"value": float(values[name]), "unit": unit}
                         for name, unit in units.items()}
    result["correct"] = not ops.problems and not any(
        v != v for v in (m["value"] for m in result["metrics"].values()))
    result["attempted"] = ops.attempted
    result["failed"] = ops.failed
    result["problems"] = ops.problems
    return result


def main(argv=None, sizes=None) -> int:
    """``sizes`` replaces the workload's input sizes (tests run small ones)."""
    args = parse_args(argv)
    if args.blas_threads:
        for variable in THREAD_VARIABLES:
            os.environ[variable] = str(args.blas_threads)
    use_checkout()

    out_dir = ROOT / ".perfbench"
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result = run(args, workdir, sizes)
        result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, machine=machine_record(args.blas_threads))
        if args.trace:
            shutil.move(os.path.join(workdir, "spans.jsonl"),
                        out_dir / "results" / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(out_dir / "results" / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for error in result["errors"]:
        print(f"operation failed: {error}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
