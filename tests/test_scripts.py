"""Smoke tests for `scripts/`: each runs in a subprocess on a small input,
exits 0 and prints one known line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, *args):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
    )


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
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert any(out.startswith(line) for out in proc.stdout.splitlines())


def test_mutants_script():
    # two mutants of one function against one test: the first is listed as
    # equivalent, the second is killed
    test = "tests/test_primality.py::test_power_plan_returns_cheap_powers_at_once"
    proc = run_script(
        "mutants.py", "--function", "modarith._power_plan", "--limit", "2", "--tests", test
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("equivalent")
    assert lines[0].endswith(
        "modarith._power_plan: _pow_cost(e) < _CHAIN_SAVES -> _pow_cost(e) <= _CHAIN_SAVES"
        "  [a chain saves fewer products than the power costs, so it never saves 12 at cost 12]"
    )
    assert lines[1].startswith("killed")
    assert lines[1].endswith(f"  [FAILED {test}]")
    assert lines[2] == "total: 2 mutants, 1 killed, 0 survived, 0 timeout, 1 equivalent"
