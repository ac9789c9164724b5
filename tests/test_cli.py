import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sqrtmodp import cli, formulas, oracles
from sqrtmodp.formulas import SqrtOutcome

from root_table import brute_root_table


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# sqrt


def test_sqrt_f3(capsys):
    code, out, _ = run_cli(capsys, "sqrt", "--p", "41", "--a", "2", "--method", "f3")
    assert code == 0
    doc = json.loads(out)
    assert (doc["root"], doc["coroot"], doc["method"]) == (17, 24, "f3")


@pytest.mark.parametrize(
    "p,method,count", [("13", "f2", 3), ("41", "f3", 4), ("17", "f4", 3)]
)
def test_sqrt_mul_count_pinned(capsys, p, method, count):
    # a change to these counts is a change to the cost model: make it on purpose
    code, out, _ = run_cli(capsys, "sqrt", "--p", p, "--a", "4")
    assert code == 0
    doc = json.loads(out)
    assert (doc["root"], doc["method"], doc["mul_count"]) == (2, method, count)


def test_sqrt_nonresidue_exits_2(capsys):
    code, out, err = run_cli(capsys, "sqrt", "--p", "41", "--a", "3")
    assert code == 2
    assert "not a quadratic residue" in err
    assert out == ""


def test_sqrt_zero(capsys):
    code, out, _ = run_cli(capsys, "sqrt", "--p", "7", "--a", "0")
    assert code == 0
    assert json.loads(out)["root"] == 0


@pytest.mark.parametrize("method", ["auto", "tonelli", "direct", "brute", "synth"])
def test_sqrt_methods_agree(capsys, method):
    code, out, _ = run_cli(capsys, "sqrt", "--p", "113", "--a", "2", "--method", method)
    assert code == 0
    doc = json.loads(out)
    assert doc["root"] * doc["root"] % 113 == 2


def test_sqrt_invalid_arguments_exit_1(capsys):
    assert run_cli(capsys, "sqrt", "--p", "91", "--a", "2")[0] == 1  # composite
    assert run_cli(capsys, "sqrt", "--p", "7", "--a", "9")[0] == 1  # out of range
    assert run_cli(capsys, "sqrt", "--p", "7", "--a", "2", "--method", "f4")[0] == 1
    assert run_cli(capsys, "sqrt", "--p", "7")[0] == 1  # missing --a
    assert run_cli(capsys, "sqrt", "--p", "2097169", "--a", "2", "--method", "brute")[0] == 1


def test_sqrt_beyond_primality_bound_names_p_and_bound(capsys):
    p = "3317044064679887385961983"
    code, out, err = run_cli(capsys, "sqrt", "--p", p, "--a", "4")
    assert (code, out) == (1, "")
    assert f"p={p}" in err
    assert "3317044064679887385961981" in err


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_text_k1(capsys):
    code, out, _ = run_cli(capsys, "synthesize", "--k", "1")
    assert code == 0
    assert out.strip() == "x^((n+1)/2)"


def test_synthesize_math(capsys):
    code, out, _ = run_cli(capsys, "synthesize", "--k", "2", "--format", "math")
    assert code == 0
    assert "x^{(n+1)/2}" in out


def test_synthesize_bad_k(capsys):
    assert run_cli(capsys, "synthesize", "--k", "0")[0] == 1
    assert run_cli(capsys, "synthesize", "--k", "40")[0] == 1


def test_synthesize_beyond_max_k_names_k(capsys):
    code, out, err = run_cli(capsys, "synthesize", "--k", "17")
    assert (code, out) == (1, "")
    assert "MAX_K" in err and "k<=16" in err and "k=17" in err


def test_synthesize_byte_stable(capsys):
    a = run_cli(capsys, "synthesize", "--k", "5")[1]
    b = run_cli(capsys, "synthesize", "--k", "5")[1]
    assert a == b


# ---------------------------------------------------------------------------
# verify


def test_verify_small_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["total_residues"] == sum(pd["residues_checked"] for pd in doc["primes"])
    for pd in doc["primes"]:
        assert pd["residues_checked"] == (pd["p"] - 1) // 2
        assert pd["failures"] == []


def test_verify_k_filter_exact(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "500", "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert [pd["p"] for pd in doc["primes"]] == [17, 113, 241, 337, 401, 433]


def test_verify_empty_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pmin", "24", "--pmax", "28")
    assert code == 0
    doc = json.loads(out)
    assert doc["primes"] == [] and doc["pass"] is True


@pytest.mark.parametrize(
    "argv,named",
    [
        (("--method", "f2", "--k", "3"), ("k=2", "--k 3")),
        (("--method", "f4", "--k", "1"), ("k=4", "--k 1")),
        (("--k", "0"), ("--k 0",)),
        (("--k", "-2", "--method", "auto"), ("--k -2",)),
    ],
)
def test_verify_contradictory_filter_exits_1(capsys, argv, named):
    # a filter no prime can meet is an error, not a pass over 0 primes
    code, out, err = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "50", *argv)
    assert (code, out) == (1, "")
    for text in named:
        assert text in err


def test_verify_inverted_range_exits_1(capsys):
    # pmin > pmax checks nothing, so it is an error, not a pass over 0 primes
    code, out, err = run_cli(capsys, "verify", "--pmin", "100", "--pmax", "50")
    assert (code, out) == (1, "")
    assert "pmin=100" in err and "pmax=50" in err


def test_verify_reports_its_rate_on_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "200")
    assert code == 0 and json.loads(out)["pass"] is True
    assert re.fullmatch(
        r"verify: 45 primes, 2090 residues, pass in \d+\.\d\ds \([\d,]+ residues/s\)\n", err
    )


def test_verify_range_bound(capsys):
    # a pmax past the bound is refused, naming the bound's constant
    bound = oracles.BRUTE_LIMIT
    for pmax in (bound + 1, 1 << 21):
        code, out, err = run_cli(capsys, "verify", "--pmin", "3", "--pmax", str(pmax))
        assert (code, out) == (1, "")
        assert err == f"error: verify supports pmax<={bound} (BRUTE_LIMIT), got pmax={pmax}\n"


def test_verify_injected_fault_flips_exit(capsys, monkeypatch):
    def corrupted(ctx, a):
        out = _orig(ctx, a)
        wrong = (out.root + 1) % ctx.p
        return SqrtOutcome(wrong, (ctx.p - wrong) % ctx.p, out.method, out.mul_count)

    _orig = formulas.sqrt_f2
    monkeypatch.setattr(formulas, "sqrt_f2", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "60", "--method", "f2")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert any(pd["failures"] for pd in doc["primes"])


def _verify_with(capsys, monkeypatch, method):
    """verify --method f2 over 3..60 with sqrt_f2 replaced by method."""
    monkeypatch.setattr(formulas, "sqrt_f2", method)
    code, out, _ = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "60", "--method", "f2")
    return code, json.loads(out)


def _expected_failures(doc, wrong):
    """Every residue as a Failure document, with the root and coroot that
    wrong(p, root, coroot) makes of the true pair."""
    assert [pd["p"] for pd in doc["primes"]] == [5, 13, 29, 37, 53]  # the k = 2 primes
    return [
        [
            {"a": a, "root": r, "coroot": c, "expected": list(pair)}
            for a, pair in brute_root_table(pd["p"]).items()
            for r, c in [wrong(pd["p"], *pair)]
        ]
        for pd in doc["primes"]
    ]


def test_verify_flags_a_wrong_coroot(capsys, monkeypatch):
    # the right root with the wrong coroot fails the pair check alone
    def bad_coroot(ctx, a):
        out = _orig(ctx, a)
        return SqrtOutcome(out.root, out.root, out.method, out.mul_count)

    _orig = formulas.sqrt_f2
    code, doc = _verify_with(capsys, monkeypatch, bad_coroot)
    assert code == 1 and doc["pass"] is False
    want = _expected_failures(doc, lambda p, r, c: (r, r))
    assert [pd["failures"] for pd in doc["primes"]] == want


def test_verify_flags_a_non_root(capsys, monkeypatch):
    # the pair (0, 0) squares to no residue in the table, which omits a = 0
    def non_root(ctx, a):
        out = _orig(ctx, a)
        return SqrtOutcome(0, 0, out.method, out.mul_count)

    _orig = formulas.sqrt_f2
    code, doc = _verify_with(capsys, monkeypatch, non_root)
    assert code == 1 and doc["pass"] is False
    want = _expected_failures(doc, lambda p, r, c: (0, 0))
    assert [pd["failures"] for pd in doc["primes"]] == want


def test_verify_method_raising_not_a_residue_exits_1(capsys, monkeypatch):
    # a method that refuses a true residue is at fault: exit 1, not the
    # exit 2 reserved for a nonresidue input, and no report on stdout
    def refuses(ctx, a):
        if (ctx.p, a) == (29, 4):
            raise formulas.NotAResidue(f"{a} is not a quadratic residue mod {ctx.p}")
        return _orig(ctx, a)

    _orig = formulas.sqrt_f2
    monkeypatch.setattr(formulas, "sqrt_f2", refuses)
    code, out, err = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "60", "--method", "f2")
    assert (code, out) == (1, "")
    assert err.startswith("error: method f2 raised NotAResidue on the residue a=4 of p=29")


def test_sqrt_rejects_a_strong_pseudoprime(capsys):
    # 399165290221 * 798330580441 passes the strong test to every base 2..37
    p = "318665857834031151167461"
    code, out, err = run_cli(capsys, "sqrt", "--p", p, "--a", "4")
    assert (code, out) == (1, "")
    assert f"error: {p} is not an odd prime" in err


def test_verify_deterministic(capsys):
    a = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "300")[1]
    b = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "300")[1]
    assert a == b


# ---------------------------------------------------------------------------
# expand


def test_expand_p13(capsys):
    code, out, _ = run_cli(capsys, "expand", "--p", "13")
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"] == "3x^5 + 11x^2"
    assert doc["degree"] == 5
    assert doc["term_count"] == 2
    assert doc["degree_check"] == "PASS"


def test_expand_p7(capsys):
    code, out, _ = run_cli(capsys, "expand", "--p", "7")
    assert code == 0
    assert json.loads(out)["polynomial"] == "x^2"


def test_expand_p41(capsys):
    code, out, _ = run_cli(capsys, "expand", "--p", "41")
    doc = json.loads(out)
    assert doc["degree"] == 18
    assert doc["term_count"] == 4
    assert doc["degree_check"] == "PASS"


def test_expand_beyond_max_k_names_p(capsys):
    code, out, err = run_cli(capsys, "expand", "--p", "786433")
    assert (code, out) == (1, "")
    assert "p=786433 has k=18" in err
    assert "MAX_K" in err and "k<=16" in err


def test_expand_composite_exits_1(capsys):
    assert run_cli(capsys, "expand", "--p", "15")[0] == 1


# ---------------------------------------------------------------------------
# density


def test_density_p13(capsys):
    code, out, _ = run_cli(capsys, "density", "--p", "13")
    assert code == 0
    doc = json.loads(out)
    assert doc["odd_order_fraction"] == doc["predicted_odd_order_fraction"] == "1/2"
    assert doc["exact_2k1_fraction"] == doc["predicted_exact_2k1_fraction"] == "1/6"
    assert doc["class_histogram"] == [3, 3]
    assert doc["multiplier_histogram"] == [3, 3]


def test_density_p41(capsys):
    doc = json.loads(run_cli(capsys, "density", "--p", "41")[1])
    assert doc["odd_order_fraction"] == "1/4"
    assert doc["exact_2k1_fraction"] == "1/10"


def test_density_k1_has_no_exact_prediction(capsys):
    doc = json.loads(run_cli(capsys, "density", "--p", "7")[1])
    assert doc["odd_order_fraction"] == "1"
    assert doc["predicted_exact_2k1_fraction"] is None


def test_density_beyond_bound_names_p_and_k(capsys):
    code, out, err = run_cli(capsys, "density", "--p", "18446744069414584321")
    assert (code, out) == (1, "")
    assert "p=18446744069414584321 has k=32" in err
    assert "DENSITY_MAX_K" in err and "k<=18" in err


# ---------------------------------------------------------------------------
# bench


def test_bench_constant_vs_varying(capsys):
    code, out, _ = run_cli(capsys, "bench", "--p", "17", "--trials", "32")
    assert code == 0
    doc = json.loads(out)
    by_method = {r["method"]: r for r in doc["records"]}
    assert by_method["f4"]["constant_across_inputs"] is True
    assert by_method["tonelli"]["constant_across_inputs"] is False
    for r in doc["records"]:
        assert r["total_mults"] >= 0
        assert r["mean_mults"] == r["total_mults"] / r["trials"]


def test_bench_reports_context_time_on_stderr(capsys):
    code, out, err = run_cli(capsys, "bench", "--p", "786433", "--trials", "3")
    assert code == 0 and json.loads(out)["p"] == 786433
    lines = err.splitlines()
    assert re.fullmatch(r"bench context on p=786433: \d+\.\d{3}s", lines[0])
    methods = ["auto", "synth", "direct", "tonelli"]
    for m, line in zip(methods, lines[1:]):
        assert re.fullmatch(rf"bench {m} on p=786433: \d+\.\d{{3}}s", line)
    assert re.fullmatch(r"bench: total \d+\.\d\ds", lines[-1])
    assert len(lines) == len(methods) + 2


def test_bench_deterministic_with_seed(capsys):
    a = run_cli(capsys, "bench", "--p", "97", "--trials", "20", "--seed", "5")[1]
    b = run_cli(capsys, "bench", "--p", "97", "--trials", "20", "--seed", "5")[1]
    assert a == b


def test_bench_method_class_mismatch(capsys):
    code, _, err = run_cli(capsys, "bench", "--p", "17", "--methods", "f3")
    assert code == 1
    assert err.endswith("error: method f3 needs k=3, p=17 has k=4\n")


def test_bench_brute_guard(capsys):
    # the limit depends on p alone, so it is checked before the context is
    # built, and no timing line is printed
    assert run_cli(capsys, "bench", "--p", "2097169", "--trials", "1", "--methods", "brute") == (
        1, "", f"error: brute supports p<={oracles.BRUTE_LIMIT} (BRUTE_LIMIT), got p=2097169\n"
    )


def test_bench_bad_trials(capsys):
    assert run_cli(capsys, "bench", "--p", "17", "--trials", "0")[0] == 1


def test_bench_unknown_method(capsys):
    # the name is checked before the context is built, so no timing line
    assert run_cli(capsys, "bench", "--p", "13", "--methods", "auto,nope") == (
        1, "", "error: unknown method 'nope'\n"
    )


def test_bench_tonelli_constant_for_k1(capsys):
    # p = 3 mod 4: the refinement loop never runs, so even the iterative
    # baseline has a flat count column
    _, out, _ = run_cli(capsys, "bench", "--p", "23", "--trials", "11")
    doc = json.loads(out)
    by_method = {r["method"]: r for r in doc["records"]}
    assert by_method["tonelli"]["constant_across_inputs"] is True


# ---------------------------------------------------------------------------
# --out: main writes every command's report, to the file first


CHEAP = {
    "sqrt": ("--p", "41", "--a", "2"),
    "synthesize": ("--k", "3"),
    "verify": ("--pmin", "3", "--pmax", "50"),
    "expand": ("--p", "13"),
    "density": ("--p", "41"),
    "bench": ("--p", "17", "--trials", "4"),
}


@pytest.mark.parametrize("cmd", CHEAP)
def test_out_file_equals_stdout(tmp_path, capsys, cmd):
    path = tmp_path / "report"
    code, out, _ = run_cli(capsys, cmd, *CHEAP[cmd], "--out", str(path))
    assert code == 0
    assert out and path.read_bytes() == out.encode()
    if cmd == "sqrt":
        assert json.loads(out)["root"] == 17


@pytest.mark.parametrize("cmd", CHEAP)
def test_unwritable_out_prints_no_report(tmp_path, capsys, cmd):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, cmd, *CHEAP[cmd], "--out", str(path))
    assert (code, out) == (1, "")
    # verify's and bench's summaries come first: the handler returns before
    # main writes
    assert err.splitlines()[-1].startswith("error: [Errno 2] No such file or directory")
    assert not path.parent.exists()


@pytest.mark.parametrize("cmd", CHEAP)
def test_every_command_takes_out(capsys, cmd):
    code, out, _ = run_cli(capsys, cmd, "--help")
    assert code == 0
    assert "--out OUT" in out


# ---------------------------------------------------------------------------
# misc


def test_unknown_command_exits_1(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_shared_parser_keeps_each_call_independent(capsys):
    # main builds its parser on the first call and reuses it; every call in
    # a sequence must read as a call made with a freshly built parser
    seq = [
        ("sqrt", "--p", "41", "--a", "2"),
        ("expand", "--p", "13"),
        ("sqrt", "--p", "41"),  # usage error: --a is missing
        ("--help",),
        ("sqrt", "--p", "41", "--a", "3"),  # not a residue
        ("sqrt", "--p", "41", "--a", "2"),
    ]
    fresh = []
    for argv in seq:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    cli._parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in seq]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 2, 0]
    assert shared[2][2] == "error: the following arguments are required: --a\n"
    assert shared[3][1].startswith("usage: sqrtmodp")  # capsys captures --help
    assert shared[0] == shared[5]


def test_module_entry_point():
    # run from the package's parent directory, so -m finds it uninstalled
    proc = subprocess.run(
        [sys.executable, "-m", "sqrtmodp", "sqrt", "--p", "7", "--a", "2"],
        capture_output=True,
        text=True,
        cwd=Path(cli.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["root"] == 3
