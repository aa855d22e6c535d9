"""In-memory span tracing around the calls between feecalib's modules.

The tracer replaces, for the lifetime of a traced run, the public names
through which one feecalib module calls another (``calibration`` calling
``soil.predict_force_arrays``, ``cli`` calling
``calibration.predict_next_cycle``, ...) plus a few same-module entry points
that mark a layer boundary. Each wrapped call records one span: name,
layer, start, end, parent span and op id. Nothing under ``src/`` changes.

Per-layer numbers are derived from the spans afterwards. A span's self time
is its duration minus the durations of its child spans; summing self times
by layer and adding the op root span's own self time (``other``) gives back
the op's wall time exactly.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("soil", "geometry", "optimizer", "calibration", "synthetic", "io",
          "cli")
OTHER = "other"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "info")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "info": self.info}


def _layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


# -- what a span remembers about its call besides its timing ----------------

def _note_force(args, kwargs, out):
    # predict_force_arrays(depth, rho, lt, w_load, soil, loader, alpha, ...)
    return {"in_soil": int(np.count_nonzero(out.in_soil)),
            "valid": int(np.count_nonzero(out.valid))}


def _note_solve(args, kwargs, result):
    return {"iterations": int(result.iterations),
            "evals": int(result.function_evaluations),
            "objective": float(result.objective_value)}


def _note_carve(args, kwargs, polyline):
    return {"vertices": int(polyline.vertices.shape[0])}


def _note_write(args, kwargs, result):
    path = Path(args[0] if args else kwargs["path"])
    return {"bytes": path.stat().st_size}


class Tracer:
    """Keeps spans in memory; ``install`` wraps feecalib, ``uninstall``
    restores every replaced attribute."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _record(self, name, layer, fn, args, kwargs, note=None):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if note is not None:
            span.info = note(args, kwargs, result)
        return result

    @contextmanager
    def op(self, op_id):
        """Root span of one benchmark op; its self time is ``other``."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        self._op = op_id
        span = Span("op", OTHER, -1, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op = None

    # -- wrapping -----------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, layer: str,
             note=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._record(name, layer, original, args, kwargs, note)

        self._replace(owner, attr, wrapper)

    def wrap_multi_start(self, owner) -> None:
        """multi_start whose objective is wrapped too, so that each
        evaluation is a span of the calibration layer."""
        original = owner.multi_start
        record = self._record

        @functools.wraps(original)
        def wrapper(objective, *args, **kwargs):
            def traced_objective(x):
                return record("calibration.objective", "calibration",
                              objective, (x,), {})
            return record("optimizer.multi_start", "optimizer", original,
                          (traced_objective,) + args, kwargs)

        self._replace(owner, "multi_start", wrapper)

    def install(self) -> None:
        from feecalib import (calibration, cli, geometry, io, optimizer,
                              soil, synthetic)
        modules = (soil, geometry, optimizer, calibration, synthetic, io, cli)
        notes = {"predict_force_arrays": _note_force,
                 "minimize_bounded": _note_solve,
                 "surface_after_cycle": _note_carve}
        # names one module imported from another
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("feecalib.")
                        or obj.__module__ == module.__name__):
                    continue
                if attr == "multi_start":
                    self.wrap_multi_start(module)
                    continue
                layer = _layer_of(obj.__module__)
                self.wrap(module, attr, f"{layer}.{attr}", layer,
                          notes.get(attr))
        # same-module calls that cross a layer boundary, and the entry
        # points the benchmark itself calls
        own = [(soil, "predict_force_arrays"),
               (geometry, "swept_area_profile"),
               (optimizer, "minimize_bounded"),
               (optimizer, "finite_difference_gradient"),
               (calibration, "calibrate_stage1"),
               (calibration, "calibrate_stage2"),
               (calibration, "calibrate_stage3"),
               (calibration, "calibrate_multi_stage"),
               (calibration, "calibrate_single_stage"),
               (calibration, "predict_next_cycle"),
               (synthetic, "simulate_cycle"),
               (synthetic, "add_noise")]
        for module, attr in own:
            layer = _layer_of(module.__name__)
            self.wrap(module, attr, f"{layer}.{attr}", layer,
                      notes.get(attr))
        for attr in ("read_cycle_csv", "read_prediction_csv",
                     "read_scenario_json", "read_report_theta"):
            self.wrap(io, attr, f"io.{attr}", "io")
        for attr in ("write_cycle_csv", "write_prediction_csv",
                     "write_scenario_json", "write_metrics_json",
                     "write_report_json"):
            self.wrap(io, attr, f"io.{attr}", "io", _note_write)
        self.wrap(geometry.Polyline, "depth_of", "geometry.depth_of",
                  "geometry")
        self.wrap(synthetic.Scenario, "trajectory", "synthetic.trajectory",
                  "synthetic")
        for command in ("predict", "evaluate"):
            self.wrap(getattr(cli, command), "callback", f"cli.{command}",
                      "cli")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------

def op_spans(tracer: Tracer) -> dict:
    """Spans grouped by op id, each list in recording order with parents
    re-indexed into the list."""
    groups: dict = {}
    where: dict[int, int] = {}
    for i, span in enumerate(tracer.spans):
        if span.op is None:
            continue
        group = groups.setdefault(span.op, [])
        where[i] = len(group)
        group.append(span)
    local = {}
    for op_id, group in groups.items():
        parents = [where[s.parent] if s.parent >= 0 else -1
                   for s in group]
        local[op_id] = (group, parents)
    return local


def layer_self_ms(group: list[Span], parents: list[int]) -> dict:
    """Self time per layer in ms, ``other`` included; sums to the root."""
    own = [s.duration for s in group]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= group[i].duration
    totals = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    for span, t in zip(group, own):
        totals[span.layer] += t * 1e3
    return totals


def _ancestor(parents: list[int], group: list[Span], i: int, names) -> int:
    p = parents[i]
    while p >= 0 and group[p].name not in names:
        p = parents[p]
    return p


def op_layer_metrics(group: list[Span], parents: list[int]) -> dict:
    """Per-layer metrics of one op (see BENCHMARK.json ``per_layer``)."""
    m: dict[str, float] = {}
    selfs = layer_self_ms(group, parents)
    for layer, value in selfs.items():
        m[f"{layer}.self_ms"] = value

    def spans_named(name):
        return [i for i, s in enumerate(group) if s.name == name]

    def noted(idx):
        # a call that raised (a start multi_start gave up on) has no note
        return [group[i].info for i in idx if group[i].info is not None]

    def total_ms(idx):
        return sum(group[i].duration for i in idx) * 1e3

    force = spans_named("soil.predict_force_arrays")
    in_soil = sum(info["in_soil"] for info in noted(force))
    valid = sum(info["valid"] for info in noted(force))
    m["soil.force_calls"] = len(force)
    m["soil.force_ms"] = total_ms(force)
    m["soil.force_us_per_sample"] = (total_ms(force) * 1e3 / in_soil
                                     if in_soil else 0.0)
    m["soil.valid_ratio"] = valid / in_soil if in_soil else 0.0

    for key, name in (("depth_of", "geometry.depth_of"),
                      ("swept_area", "geometry.swept_area_profile"),
                      ("carve", "geometry.surface_after_cycle")):
        idx = spans_named(name)
        m[f"geometry.{key}_ms"] = total_ms(idx)
        m[f"geometry.{key}_calls"] = len(idx)
    m["geometry.carved_vertices"] = max(
        (info["vertices"] for info in noted(spans_named(
            "geometry.surface_after_cycle"))), default=0)

    solves = spans_named("optimizer.minimize_bounded")
    m["optimizer.starts"] = len(solves)
    m["optimizer.iterations"] = sum(info["iterations"]
                                    for info in noted(solves))
    m["optimizer.fd_gradients"] = len(
        spans_named("optimizer.finite_difference_gradient"))
    # evaluations spent in the start each multi_start kept, over all
    winning = spent = 0
    for ms in spans_named("optimizer.multi_start"):
        mine = noted(i for i in solves
                     if _ancestor(parents, group, i,
                                  ("optimizer.multi_start",)) == ms)
        if mine:
            best = min(mine, key=lambda info: info["objective"])
            winning += best["evals"]
            spent += sum(info["evals"] for info in mine)
    m["optimizer.best_start_eval_share"] = winning / spent if spent else 0.0

    objectives = spans_named("calibration.objective")
    stage_names = ("calibration.calibrate_stage1",
                   "calibration.calibrate_stage2",
                   "calibration.calibrate_stage3")
    stage_evals = dict.fromkeys(stage_names, 0)
    for i in objectives:
        stage = _ancestor(parents, group, i, stage_names)
        if stage >= 0:
            stage_evals[group[stage].name] += 1
    for k, name in enumerate(stage_names, start=1):
        m[f"calibration.stage{k}_ms"] = total_ms(spans_named(name))
        m[f"calibration.stage{k}_evals"] = stage_evals[name]
    soil_child = dict.fromkeys(objectives, 0.0)
    for i, p in enumerate(parents):
        if p in soil_child and group[i].layer == "soil":
            soil_child[p] += group[i].duration
    m["calibration.objective_self_us"] = (
        sum(group[i].duration - soil_child[i] for i in objectives)
        * 1e6 / len(objectives) if objectives else 0.0)

    m["synthetic.simulate_ms"] = total_ms(spans_named(
        "synthetic.simulate_cycle"))
    m["synthetic.trajectory_ms"] = total_ms(spans_named(
        "synthetic.trajectory"))

    reads = [i for i, s in enumerate(group) if s.name.startswith("io.read")]
    writes = [i for i, s in enumerate(group)
              if s.name.startswith("io.write")]
    m["io.read_ms"] = total_ms(reads)
    m["io.write_ms"] = total_ms(writes)
    m["io.bytes_written"] = sum(info["bytes"] for info in noted(writes))

    predicts = spans_named("cli.predict")
    m["cli.predict_ms"] = total_ms(predicts)
    m["cli.evaluate_ms"] = total_ms(spans_named("cli.evaluate"))
    # work the predict command repeats after predict_next_cycle did it:
    # the carve, the trajectory and the depth, called straight from cli
    repeated = ("geometry.surface_after_cycle", "synthetic.trajectory",
                "geometry.depth_of")
    m["cli.duplicate_geometry_ms"] = sum(
        group[i].duration for i, p in enumerate(parents)
        if p in predicts and group[i].name in repeated) * 1e3
    m["trace.spans"] = len(group)
    return m


def median_metrics(per_op: list[dict]) -> dict:
    """Median over ops of each per-op metric."""
    if not per_op:
        return {}
    return {key: float(statistics.median(d[key] for d in per_op))
            for key in per_op[0]}
