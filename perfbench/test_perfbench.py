"""Tests of the benchmark itself: each checker rejects a wrong answer, and a
run prints the metrics BENCHMARK.json names.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def euler(a, p):
    s = pow(a, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


@pytest.mark.parametrize("p", [3, 5, 7, 41, 193, 7681])
def test_jacobi_agrees_with_euler_criterion(p):
    assert all(checks.jacobi(a, p) == euler(a, p) for a in range(p))


def test_root_checker_rejects_off_by_one_root():
    p, r = 41, 17  # 17^2 = 2 mod 41, canonical root 17
    checks.check_root(p, r, 17, 24)
    with pytest.raises(checks.CheckFailed):
        checks.check_root(p, r, 18, 23)


def test_root_checker_rejects_swapped_coroot():
    with pytest.raises(checks.CheckFailed):
        checks.check_root(41, 17, 24, 17)


def test_sqrt_doc_checker_rejects_wrong_root():
    doc = {"p": 41, "a": 2, "root": 17, "coroot": 24}
    checks.check_sqrt_doc(doc, 41, 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_sqrt_doc({**doc, "root": 18, "coroot": 23}, 41, 2)


def test_nonresidue_checker_rejects_exit_code_0():
    checks.check_nonresidue(2, "", 41, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_nonresidue(0, "", 41, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_nonresidue(2, "", 41, 2)  # 2 is a residue mod 41


def density_doc(p, odd, exact):
    k, n = checks.decompose(p)
    half = 1 << (k - 1)
    qr = (p - 1) // 2
    return {"qr_count": qr, "class_histogram": [qr // half] * half,
            "odd_order_fraction": odd, "exact_2k1_fraction": exact}


def test_density_checker_rejects_wrong_fraction():
    checks.check_density(density_doc(41, "1/4", "1/10"), 41)  # k = 3, n = 5
    with pytest.raises(checks.CheckFailed):
        checks.check_density(density_doc(41, "1/8", "1/10"), 41)
    with pytest.raises(checks.CheckFailed):
        checks.check_density(density_doc(41, "1/4", "1/5"), 41)


def test_expand_checker_rejects_wrong_degree_and_values():
    # p = 13: k = 2, n = 3, expansion 3x^5 + 11x^2.
    doc = {"terms": [[5, 3], [2, 11]], "degree": 5, "degree_check": "PASS"}
    residues = sorted({r * r % 13 for r in range(1, 13)})
    checks.check_expand(doc, 13, residues)
    with pytest.raises(checks.CheckFailed):
        checks.check_expand({**doc, "terms": [[6, 3], [2, 11]], "degree": 6}, 13, residues)
    with pytest.raises(checks.CheckFailed):
        checks.check_expand({**doc, "terms": [[5, 3], [2, 12]]}, 13, residues)


def structured_doc(k):
    """The k-class formula written out from its definition."""
    half, full = 1 << (k - 1), 1 << k
    return {"k": k, "inverse_power_of_two": k - 1, "terms": [
        {"e": (-t) % half,
         "factors": [{"j": j, "c": (-(t << (j + 1))) % full} for j in range(k - 2, -1, -1)]}
        for t in range(half)
    ]}


def test_structured_checker_rejects_a_wrong_term():
    doc = structured_doc(6)
    checks.check_structured(doc, 6, 193)
    doc["terms"][1]["e"] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_structured(doc, 6, 193)


def test_bench_checker_rejects_varying_straight_line_count():
    rec = {"trials": 20, "min_mults": 194, "max_mults": 194}
    doc = {"records": [{**rec, "method": m} for m in ("auto", "f3", "synth", "direct", "tonelli")]}
    checks.check_bench(doc, 41, 20)
    doc["records"][1] = {**rec, "method": "f3", "max_mults": 195}
    with pytest.raises(checks.CheckFailed):
        checks.check_bench(doc, 41, 20)


def test_verification_checker_rejects_a_missing_prime():
    rows = [(p, *checks.decompose(p), checks.smallest_nonresidue(p), (p - 1) // 2, 0)
            for p in checks.primes_upto(50)]
    total = sum(r[4] for r in rows)
    checks.check_verification(rows, total, True, 3, 50)
    with pytest.raises(checks.CheckFailed):
        checks.check_verification(rows[1:], total - rows[0][4], True, 3, 50)


def last_json_line(cmd, cwd):
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_args(workload, trace, seconds="0.3"):
    return [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", "7", "--seconds", seconds, "--trace", str(trace)]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_prints_every_end_to_end_metric(workload):
    res = last_json_line(run_args(workload, 0), ROOT)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert (res["failed"] > 0) == (workload == "high_k")


def test_traced_run_prints_every_per_layer_metric():
    res = last_json_line(run_args("large_p", 1), ROOT)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for d in SPEC["paths"]:
        shutil.copytree(ROOT / d, tmp_path / d, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(run_args("large_p", 0), cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
