#!/usr/bin/env python3
"""SHA-256 digest of the staged fit over a sweep of presets and slopes.

Fits every class preset merged with every sinkage preset on the default
path at each pile slope, clean and with noise, and hashes the bits of
what each fit gives: theta*, each stage's record (fitted values,
objective, gradient norm, its trial count and the Brent and grid counts
of its ``work``, bound flags), the final force errors, and the
prediction on the held-out path. A fit that raises hashes its error.
Two source trees that print the same digest fit every case to the same
bits. libm's bits vary by platform, so compare digests made on one
machine only.

A second digest, ``carved sha256``, hashes what ``predict_next_cycle``
gives (depth, beta, f_t, f_n, status) along a 3-pass chain at each
slope. Pass k follows the default path shifted by 0.15 k m and, after
the first, is predicted with pass k-1 as its prior cycle, so it runs on
the face carved by all earlier passes.

A third line, ``lsq``, sums the least-squares counts of the sweep fits'
stage records (``StageResult.work``): solves inside the box, solves that
searched the box's faces, and trials screened out. A bounded count above
0 shows that two equal digests compared the out-of-box path too.

A fifth line, ``files sha256``, hashes the bytes of every file the CLI
writes along simulate -> calibrate -> predict --prior-cycle -> evaluate,
run in process on the default cycle at each noise level: cycle.csv,
scenario.json, report.json (with its wall_time_s values written as 0.0),
predicted.csv and metrics.json. Two source trees that print the same
line write the same bytes.

A sixth line, ``flagged sha256``, hashes the same fields as the first
digest for the default cycle at each slope and noise level with three
in-soil samples (at 10%, 50% and 90% of the in-soil count) moved to blade
angles outside the margins: 0.5 RHO_MIN, 1e-9 and pi - 1e-9. No other
input has such a sample, since Bezier paths clamp their blade angles.

The ``roots`` line sums by pile slope the engine passes of the sweep
fits' stage records and how many of them ran the stationary-root
solve, as ``slope:roots/passes``: how often the kernel's closed-form
test could not rule the roots out.

A last line, ``single sha256``, hashes the single-stage fit of the
default cycle at each slope and noise level, with two optimizer starts:
theta*, its stage record (fitted values, objective, gradient norm,
converged, evaluations and ``work``) and the final force errors.

Usage: python scripts/fit_digest.py [--pairs N] [--slopes 0 10 25 40]
                                    [--noise 0 0.05] [--seed 1]
"""

import argparse
import hashlib
import math
import re
import struct
import tempfile
import time
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from feecalib import (RHO_MIN, CalibrationOptions, FeeCalibError,
                      SlopedLine, SolverOptions, add_noise,
                      calibrate_multi_stage, calibrate_single_stage,
                      default_scenario, default_truth,
                      heldout_scenario, make_trajectory, predict_next_cycle,
                      prepare_cycle, preset_catalog, simulate_cycle,
                      surface_after_cycle)
from feecalib.cli import main as cli


def preset_pairs():
    """Every classification preset merged with every sinkage preset."""
    presets = preset_catalog()
    return [(c, s) for c in presets if c.phi is not None
            for s in presets if s.kc is not None]


def noisy(dataset, sigma, seed):
    """``dataset`` with relative noise ``sigma``; itself at 0."""
    return add_noise(dataset, sigma, seed) if sigma > 0.0 else dataset


def feed(h, value):
    """Hash ``value``: floats by their bits, arrays by their bytes."""
    if isinstance(value, float):
        h.update(struct.pack("<d", value))
    elif isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            feed(h, key)
            feed(h, value[key])
    elif isinstance(value, (tuple, list)):
        for item in value:
            feed(h, item)
    else:
        h.update(repr(value).encode())


def feed_fit(h, dataset, heldout):
    """Hash the fit of ``dataset``; returns its report, None if it raised."""
    try:
        report = calibrate_multi_stage(dataset)
    except FeeCalibError as exc:
        feed(h, (type(exc).__name__, str(exc)))
        return None
    feed(h, astuple(report.theta_star))
    for stage in report.stages:
        feed(h, (stage.name, stage.parameters, stage.objective_value,
                 stage.work["brent"], stage.function_evaluations,
                 stage.work["grid"], stage.converged, stage.gradient_norm,
                 stage.dropped_samples, stage.rmse_n, stage.rmse_pct,
                 stage.at_bound))
    feed(h, (report.rmse_ft_n, report.rmse_fn_n, report.rmse_fr_n,
             report.function_evaluations, report.dropped_samples))
    pred = predict_next_cycle(report.theta_star, heldout)
    feed(h, (pred.beta, pred.f_t, pred.f_n, pred.status))
    return report


def feed_single(h, dataset):
    """Hash the two-start single-stage fit of ``dataset``."""
    options = CalibrationOptions(solver=SolverOptions(n_starts=2))
    try:
        report = calibrate_single_stage(dataset, options)
    except FeeCalibError as exc:
        feed(h, (type(exc).__name__, str(exc)))
        return
    (stage,) = report.stages
    feed(h, astuple(report.theta_star))
    feed(h, (stage.parameters, stage.objective_value, stage.gradient_norm,
             stage.converged, stage.function_evaluations, stage.work))
    feed(h, (report.rmse_ft_n, report.rmse_fn_n, report.rmse_fr_n))


def flagged(dataset):
    """The cycle with the in-soil samples at 10%, 50% and 90% of the
    in-soil count moved to blade angles outside the margins."""
    in_soil = np.flatnonzero(prepare_cycle(dataset).in_soil)
    m = in_soil.size
    s = dataset.samples
    rho = s.rho.copy()
    rho[in_soil[[m // 10, m // 2, 9 * m // 10]]] = (0.5 * RHO_MIN, 1e-9,
                                                     math.pi - 1e-9)
    return replace(dataset, samples=make_trajectory(s.t, s.x, s.z, rho))


def feed_carved_chain(h, surface):
    """Hash the predictions along a chain of three passes, each carving
    the face the next one digs."""
    base = replace(default_scenario(), surface=surface)
    truth = default_truth()
    prior = None
    for k in range(3):
        points = tuple((x + 0.15 * k, z) for x, z in base.control_points)
        scenario = replace(base, surface=surface, control_points=points)
        try:
            pred = predict_next_cycle(truth, scenario, prior)
        except FeeCalibError as exc:
            feed(h, (type(exc).__name__, str(exc)))
            return
        feed(h, (pred.depth, pred.beta, pred.f_t, pred.f_n, pred.status))
        if prior is not None:
            surface = surface_after_cycle(surface, prior)
        prior = pred.trajectory


def feed_cli_files(h, sigma, seed):
    """Hash the files the CLI chain writes on the default cycle with
    noise ``sigma``, in the order it writes them."""
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as folder:
        out = Path(folder)
        noise = ["--noise", repr(sigma), "--seed", str(seed)]
        for args in (["simulate", *noise],
                     ["calibrate", out / "cycle.csv"],
                     ["predict", out / "report.json", "--scenario",
                      out / "scenario.json", "--prior-cycle",
                      out / "cycle.csv"],
                     ["evaluate", out / "predicted.csv", out / "cycle.csv"]):
            res = runner.invoke(cli, [*map(str, args), "--out", folder])
            if res.exit_code != 0:
                raise SystemExit(f"{args[0]} failed: {res.output}")
        for name in ("cycle.csv", "scenario.json", "report.json",
                     "predicted.csv", "metrics.json"):
            data = (out / name).read_bytes()
            if name == "report.json":
                data = re.sub(rb'"wall_time_s": [^,\n]+',
                              b'"wall_time_s": 0.0', data)
            h.update(data)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=None,
                        help="fit only the first N preset pairs")
    parser.add_argument("--slopes", type=float, nargs="+",
                        default=[0.0, 10.0, 25.0, 40.0],
                        help="pile slopes, degrees")
    parser.add_argument("--noise", type=float, nargs="+",
                        default=[0.0, 0.05],
                        help="relative noise sigmas (0 fits clean data)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    pairs = preset_pairs()[:args.pairs]
    work = {}       # per slope, the sweep fits' stage records summed
    h = hashlib.sha256()
    carved = hashlib.sha256()
    t0 = time.perf_counter()
    for slope in args.slopes:
        counts = work[slope] = Counter()
        surface = SlopedLine((0.0, 0.0), math.radians(slope))
        feed_carved_chain(carved, surface)
        scenario = replace(default_scenario(), surface=surface)
        heldout = replace(heldout_scenario(), surface=surface)
        for classification, sinkage in pairs:
            clean = simulate_cycle(
                scenario, classification.merged(sinkage).soil_parameters())
            for sigma in args.noise:
                report = feed_fit(h, noisy(clean, sigma, args.seed), heldout)
                for stage in report.stages if report else ():
                    counts.update(stage.work)
    files = hashlib.sha256()
    for sigma in args.noise:
        feed_cli_files(files, sigma, args.seed)
    flags = hashlib.sha256()
    single = hashlib.sha256()
    for slope in args.slopes:
        surface = SlopedLine((0.0, 0.0), math.radians(slope))
        clean = simulate_cycle(replace(default_scenario(), surface=surface),
                               default_truth())
        heldout = replace(heldout_scenario(), surface=surface)
        marked = flagged(clean)
        for sigma in args.noise:
            feed_fit(flags, noisy(marked, sigma, args.seed), heldout)
            feed_single(single, noisy(clean, sigma, args.seed))
    fits = len(args.slopes) * len(pairs) * len(args.noise)
    print(f"fits {fits} in {time.perf_counter() - t0:.1f} s")
    print(f"sha256 {h.hexdigest()}")
    print(f"carved sha256 {carved.hexdigest()}")
    print("lsq interior {interior} bounded {bounded} screened {screened}"
          .format_map(sum(work.values(), Counter())))
    print(f"files sha256 {files.hexdigest()}")
    print(f"flagged sha256 {flags.hexdigest()}")
    print("roots " + " ".join(f"{s:g}:{c['root_passes']}/{c['engine_passes']}"
                              for s, c in work.items()))
    print(f"single sha256 {single.hexdigest()}")


if __name__ == "__main__":
    main()
