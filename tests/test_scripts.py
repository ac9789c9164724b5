"""Smoke tests for `scripts/`: each runs in a subprocess on a small input,
exits 0 and prints one known line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args,line",
    [
        ("verify_sweep.py", ["--pmax", "300"], "total: 61 primes, 4106 residues, PASS"),
        (
            "bench_table.py",
            ["--primes", "17,41", "--trials", "8"],
            "      41        f3      4.00      4      4  constant",
        ),
        (
            "density_trend.py",
            ["--k", "3", "--pmax", "300"],
            "      41      5          1/4           1/10         9/10  (~0.9000)",
        ),
        (
            "bench_table.py",
            ["--primes", "17,41", "--trials", "8"],
            "      41   tonelli      7.62      3     12  varies",
        ),
    ],
)
def test_script_runs(script, args, line):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(out.startswith(line) for out in proc.stdout.splitlines())
