"""Smoke runs of the experiment scripts at small sizes: each must exit 0 and
print its header line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("gadget_grid.py", ["--kmax", "3"], "p \\ k"),
        ("sum_limits.py", ["--p", "1", "1.5", "--kmax", "6"], "p,k,abs_value,limit,weak_bound"),
        ("exponent_curve.py", ["--count", "3"], "# threshold exponent p0 = "),
    ],
    ids=["gadget_grid", "sum_limits", "exponent_curve"],
)
def test_script_runs(script, args, header):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(header)


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "p,cells",
    [("2.5", ["no-shift"]), ("2", ["-"] * 8)],
    ids=["no-shift", "even-p"],
)
def test_gadget_grid_prints_refusals(p, cells):
    # at k = 10, p = 2.5 the shift search runs out; even p < k has no gadget
    proc = run_script("gadget_grid.py", ["--kmax", "10", "--p", p])
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[1].split()
    assert row[0] == p and row[-len(cells) :] == cells
