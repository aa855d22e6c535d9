"""The benchmark's workloads still run on the library as it is.

perfbench/ reads feecalib's API by name (trajectory fields, CSV writers,
the tracer's wrapped functions, the options it builds); this runs every
workload it defines, gated or not, at the smoke-test sizes, untraced and
traced, and requires every op to pass its own checks.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

GATED = [w["name"] for w in json.loads(
    (BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ["workloads"]]


def test_gated_workloads_are_defined():
    assert set(GATED) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean(tmp_path, name):
    workload = workloads.WORKLOADS[name]()
    workload.setup(0, workloads.TINY, tmp_path)
    results = workload.run_round(None, 0)
    tracer = tracing.Tracer()
    with tracer.installed():
        results += workload.run_round(tracer, len(results))
    assert results
    for op_id, result in enumerate(results):
        assert result.failures == [], f"op {op_id}: {result.failures}"
    assert tracer.spans
