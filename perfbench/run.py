"""feecalib benchmark: one workload per run, metrics as JSON on the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload calib-multi-clean --seed 0 \
        --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` wraps feecalib's module boundaries in spans and reports the
per-layer metrics instead (see perfbench/README.md). Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Run records
(settings, every op, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import feecalib, feecalib.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import feecalib in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workload, tracer, seed: int, sizes, workdir: Path,
           r: int) -> tuple[float, dict]:
    """One timed set-up: a fresh-interpreter import of feecalib, then the
    workload's own set-up. Returns its seconds and the workload settings."""
    imported = import_seconds()
    traced = tracer is not None
    with (tracer.installed() if traced else contextlib.nullcontext()), \
            (tracer.op(f"setup{r}") if traced else contextlib.nullcontext()):
        t0 = time.perf_counter()
        info = workload.setup(seed, sizes, workdir)
        return imported + time.perf_counter() - t0, info


def rounds(workload, tracer, start: float, seconds: float) -> tuple:
    """Run rounds while less than ``seconds`` have passed since ``start``;
    at least one round, so a run may end up to one round late. With a
    tracer, untraced and traced rounds alternate, so that host speed drift
    touches both sides of the tracing overhead alike. Untraced ops come
    back grouped by round."""
    untraced, traced = [], []
    while True:
        op_id = sum(map(len, untraced)) + len(traced)
        untraced.append(workload.run_round(None, op_id))
        if tracer is not None:
            with tracer.installed():
                traced += workload.run_round(tracer, op_id + len(untraced[-1]))
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def round_ms(untraced: list[list]) -> float:
    """Milliseconds of one round, taken op by op: the sum over the ops of a
    round of each one's median over the rounds. A carved round is a chain
    of passes of unequal cost; a median over all passes would sit on the
    boundary between two pass kinds, and one slow pass moves a whole
    chain's total, but not the median of its own position."""
    return 1e3 * sum(statistics.median(r.wall_s for r in position)
                     for position in zip(*untraced))


def settings(args, workload_settings: dict) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            **workload_settings}


def run(args, sizes=None, out: Path = OUT) -> dict:
    """One benchmark run; returns the result object printed last."""
    import tracing
    import workloads

    sizes = sizes or workloads.FULL
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = workloads.WORKLOADS[args.workload]()
    workdir = out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None

    # set-up, repeated; half the repeats run before the timed rounds and
    # half after, so that the median spans the run's host speed drift
    repeats = workload.setup_repeats
    before = (repeats + 1) // 2
    setup_s = []
    for r in range(before):
        seconds, info = set_up(workload, tracer, args.seed, sizes, workdir, r)
        setup_s.append(seconds)
    untraced_rounds, traced = rounds(workload, tracer, time.perf_counter(),
                                     args.seconds)
    untraced = [r for done in untraced_rounds for r in done]
    for r in range(before, repeats):
        setup_s.append(set_up(workload, tracer, args.seed, sizes, workdir,
                              r)[0])

    results = untraced + traced
    failed = [r for r in results if r.failures]
    for r in failed:
        for line in r.failures:
            print(f"FAILED: {line}", file=sys.stderr)
    attempted = len(results)
    figures = workload.summary(results)
    figures["fail_pct"] = 100.0 * len(failed) / attempted

    if args.trace:
        groups = tracing.op_spans(tracer)
        setup_ops = [tracing.op_layer_metrics(*groups[f"setup{r}"])
                     for r in range(repeats)]
        timed_ops = [tracing.op_layer_metrics(*group)
                     for op_id, group in groups.items()
                     if isinstance(op_id, int)]
        measured = tracing.median_metrics(timed_ops)
        measured["synthetic.simulate_ms"] = statistics.median(
            m["synthetic.simulate_ms"] for m in setup_ops)
        measured["geometry.carved_vertices"] = max(
            m["geometry.carved_vertices"] for m in timed_ops)
        measured["trace.overhead_ms"] = 1e3 * (
            statistics.median(r.wall_s for r in traced)
            - statistics.median(r.wall_s for r in untraced))
        tracer.write(workdir / "spans.jsonl")
    else:
        measured = {
            "setup_s": statistics.median(setup_s),
            "round_ms": round_ms(untraced_rounds),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in listed}

    record = {"settings": settings(args, info), "figures": figures,
              "setup_s_each": setup_s, "metrics": metrics,
              "ops": [{"wall_s": r.wall_s, "traced": i >= len(untraced),
                       "failures": r.failures, "figures": r.figures}
                      for i, r in enumerate(results)]}
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n",
                                         encoding="utf-8")
    for key, value in record["settings"].items():
        print(f"setting {key} = {value}")
    for key, value in figures.items():
        print(f"figure {key} = {value:.6g}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not failed, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "feecalib" / "__init__.py").is_file():
        print(f"error: no feecalib sources under {SRC}", file=sys.stderr)
        return 2
    # pin BLAS before numpy is first imported
    for name in BLAS_VARIABLES:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
