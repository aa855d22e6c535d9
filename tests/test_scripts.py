"""The experiment scripts run end to end and print their summaries."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=300)


def test_run_roundtrip(tmp_path):
    res = run_script("run_roundtrip.py", "--n-starts", "1", "--out",
                     str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0].split() == ["method", "F_R", "train", "F_R", "held-out",
                                "evals", "time"]
    assert [line.split()[0] for line in lines[1:3]] == ["multi", "single"]
    assert lines[-1] == f"outputs in {tmp_path}/"
    for name in ("cycle.csv", "report_multi.json", "report_single.json"):
        assert (tmp_path / name).is_file()


def test_run_dual_cycle(tmp_path):
    res = run_script("run_dual_cycle.py", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0].startswith("cycle 1 fit: F_R RMSE ")
    assert lines[1].startswith("cycle 2, sloped-line depth: F_R RMSE ")
    assert lines[2].startswith("cycle 2,    adaptive depth: F_R RMSE ")
    assert lines[-1] == f"outputs in {tmp_path}/"
    for name in ("cycle1.csv", "cycle2.csv", "report.json"):
        assert (tmp_path / name).is_file()


def test_fit_digest_repeats():
    args = ("--pairs", "2", "--slopes", "25")
    runs = [run_script("fit_digest.py", *args) for _ in range(2)]
    for res in runs:
        assert res.returncode == 0, res.stderr
    lines = [res.stdout.splitlines() for res in runs]
    assert lines[0][0].startswith("fits 4 in ")
    assert len(lines[0]) == 8
    for row, label in ((1, ["sha256"]), (2, ["carved", "sha256"]),
                       (4, ["files", "sha256"]), (5, ["flagged", "sha256"]),
                       (7, ["single", "sha256"])):
        *words, digest = lines[0][row].split()
        assert words == label and len(digest) == 64
        int(digest, 16)
        assert lines[1][row] == lines[0][row]
    # the least-squares counts repeat, and some solves left the box
    assert lines[1][3] == lines[0][3]
    counts = re.fullmatch(r"lsq interior (\d+) bounded (\d+) screened (\d+)",
                          lines[0][3])
    assert counts, lines[0][3]
    assert int(counts[2]) > 0
    # so do the engine passes and root solves at the one slope
    assert lines[1][6] == lines[0][6]
    roots = re.fullmatch(r"roots 25:(\d+)/(\d+)", lines[0][6])
    assert roots, lines[0][6]
    assert int(roots[1]) <= int(roots[2]) and int(roots[2]) > 0
