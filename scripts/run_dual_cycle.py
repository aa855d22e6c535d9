#!/usr/bin/env python3
"""Dual-cycle experiment: calibrate on a first pass, then predict the
second pass measuring depth either against the nominal pile face or
against the surface carved by the first pass.

Usage: python scripts/run_dual_cycle.py [--out out/dual_cycle]
"""

import argparse
from dataclasses import replace
from pathlib import Path

from feecalib import (Scenario, calibrate_multi_stage, default_scenario,
                      default_truth, predict_next_cycle, resultant, rmse,
                      simulate_cycle, surface_after_cycle)
from feecalib.io import write_cycle_csv, write_report_json


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/dual_cycle")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    scenario = default_scenario()
    truth = default_truth()
    cycle1 = simulate_cycle(scenario, truth)
    write_cycle_csv(out / "cycle1.csv", cycle1.samples, cycle1.f_t_obs,
                    cycle1.f_n_obs)

    report = calibrate_multi_stage(cycle1)
    write_report_json(out / "report.json", report)
    print(f"cycle 1 fit: F_R RMSE {report.rmse_fr_pct:.2f}%")

    # second pass digs deeper through the face carved by the first
    cycle2 = Scenario(surface=scenario.surface, loader=scenario.loader,
                      control_points=((-0.4, 0.0), (1.0, -0.55),
                                      (2.3, 1.3)),
                      sample_rate=scenario.sample_rate,
                      duration=scenario.duration)
    carved = surface_after_cycle(scenario.surface, cycle1.samples)
    truth2 = simulate_cycle(replace(cycle2, surface=carved), truth)
    write_cycle_csv(out / "cycle2.csv", truth2.samples, truth2.f_t_obs,
                    truth2.f_n_obs)
    obs_r = resultant(truth2.f_t_obs, truth2.f_n_obs)

    naive = predict_next_cycle(report.theta_star, cycle2)
    adaptive = predict_next_cycle(report.theta_star, cycle2,
                                  prior_cycle=cycle1.samples)
    for name, pred in (("sloped-line depth", naive),
                       ("adaptive depth", adaptive)):
        f_t, f_n = pred.arrays()
        absolute, percent = rmse(obs_r, resultant(f_t, f_n))
        print(f"cycle 2, {name:>17s}: F_R RMSE {absolute:9.1f} N "
              f"({percent:6.2f}%)")
    print(f"outputs in {out}/")


if __name__ == "__main__":
    main()
