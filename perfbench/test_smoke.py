"""Smoke test of the benchmark itself at tiny sizes (1 start, 3 iterations,
2 passes at 60 Hz). Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


def tiny_run(tmp_path: Path, workload: str, trace: int) -> dict:
    args = Namespace(workload=workload, seed=0, seconds=0.0, trace=trace)
    return bench.run(args, sizes=workloads.TINY, out=tmp_path)


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_appears_with_its_unit(tmp_path, workload, trace):
    result = tiny_run(tmp_path, workload, trace)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in listed)
    assert result["attempted"] >= 1
    if workload == "predict-carved-600hz":
        assert result["correct"] and result["failed"] == 0


def test_perturbed_prediction_is_counted_as_failure(tmp_path, monkeypatch):
    from feecalib import io
    original = io.write_prediction_csv

    def perturbed(path, samples, depth, beta, f_t, f_n):
        f_t = np.array(f_t, dtype=float)
        peak = int(np.argmax(np.abs(f_t)))
        f_t[peak] *= 1.0 + 1e-6
        original(path, samples, depth, beta, f_t, f_n)

    monkeypatch.setattr(io, "write_prediction_csv", perturbed)
    result = tiny_run(tmp_path, "predict-carved-600hz", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_check_that_raises_is_counted_as_failure(tmp_path, monkeypatch):
    def broken(theta, truth, blade_b):
        raise FloatingPointError("no finite parameters")

    monkeypatch.setattr(workloads, "parameter_errors_pct", broken)
    result = tiny_run(tmp_path, "calib-multi-clean", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("workload", NAMES)
def test_traced_self_times_add_up_to_op_wall_time(tmp_path, workload):
    wl = workloads.WORKLOADS[workload]()
    wl.setup(0, workloads.TINY, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        results = wl.run_round(tracer, 0)
    groups = tracing.op_spans(tracer)
    assert sorted(groups) == list(range(len(results)))
    for op_id, result in enumerate(results):
        spans, parents = groups[op_id]
        root = spans[0]
        assert root.name == "op" and parents[0] == -1
        assert len(spans) > 1
        total_ms = sum(tracing.layer_self_ms(spans, parents).values())
        assert total_ms == pytest.approx(root.duration * 1e3, rel=1e-9)
        # the op's own clock runs inside the root span
        assert 0.0 <= root.duration - result.wall_s < 1e-3
