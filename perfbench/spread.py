"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] \
        [--record perfbench/baseline.json]

For every workload and end-to-end metric it prints the median and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json. ``--record`` writes every run's settings, figures and
metrics to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "perfbench" / "out"
                         / f"{workload}-seed{seed}-trace0"
                         / "result.json").read_text(encoding="utf-8"))
    return result, record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--record", type=Path)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs = []
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.seeds):
            result, record = one_run(name, seed, spec["run_seconds"])
            ok &= result["correct"]
            runs.append({"workload": name, "seed": seed, "result": result,
                         "settings": record["settings"],
                         "figures": record["figures"]})
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.5g}"
                             for k, m in result["metrics"].items()),
                  flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            med = statistics.median(vals)
            spread = 0.0
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            print(f"{name} {m['name']}: median {med:.5g} {m['unit']}, "
                  f"spread {spread:.3f} (bound {m['bound']})", flush=True)
    if args.record:
        args.record.write_text(json.dumps(runs, indent=1) + "\n",
                               encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
