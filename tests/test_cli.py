import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sqrtmodp import cli, formulas, oracles
from sqrtmodp.analysis import order_census
from sqrtmodp.formulas import SqrtOutcome
from sqrtmodp.modarith import make_context

from prime_search import primes_with_k
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


@pytest.mark.parametrize("p", [7, 13, 41, 17, 97, 786433], ids=lambda p: f"p{p}")
def test_sqrt_report_names_the_method_that_ran(capsys, p):
    # auto, f1..f4 and synth run one evaluator: the report's method is the
    # CLI name, but auto's is the context's tag, fK at k <= 4 and synth above
    k = make_context(p).k
    names = {"auto": f"f{k}" if k <= 4 else "synth", "synth": "synth"}
    if k <= 4:
        names[f"f{k}"] = f"f{k}"
    docs = {}
    for name in names:
        code, out, _ = run_cli(capsys, "sqrt", "--p", str(p), "--a", "4", "--method", name)
        assert code == 0
        docs[name] = json.loads(out)
    assert {name: doc.pop("method") for name, doc in docs.items()} == names
    first = docs["auto"]
    assert (first["root"], first["coroot"]) == (2, p - 2)
    assert all(doc == first for doc in docs.values())


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
    # the bound itself, a strong pseudoprime to every base, is refused too
    bound = "3317044064679887385961981"
    for p in (bound, "3317044064679887385961983"):
        code, out, err = run_cli(capsys, "sqrt", "--p", p, "--a", "4")
        assert (code, out) == (1, "")
        assert err == f"error: p={p} is not below the primality bound {bound}\n"


# 2^32 + 1 (k = 32, n = 1) and the square (2^40 + 1)^2: Proth-shaped
# composites with no factor <= 41, refused by the constructor's check and by
# the square test of make_context's proof; then the bound, and an even p
# above it, which is refused as even first
@pytest.mark.parametrize(
    "p,message",
    [
        ("4294967297", "4294967297 is not an odd prime"),
        ("1208925819616828197961729", "1208925819616828197961729 is not an odd prime"),
        (
            "3317044064679887385961981",
            "p=3317044064679887385961981 is not below the primality bound "
            "3317044064679887385961981",
        ),
        ("3317044064679887385961982", "3317044064679887385961982 is not an odd prime"),
    ],
)
@pytest.mark.parametrize(
    "argv", [["sqrt", "--a", "4"], ["bench", "--trials", "2"], ["expand"], ["density"]]
)
def test_commands_refuse_what_make_context_cannot_prove(capsys, p, message, argv):
    code, out, err = run_cli(capsys, argv[0], "--p", p, *argv[1:])
    assert (code, out, err) == (1, "", f"error: {message}\n")


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


def test_verify_accepts_pmax_at_the_bound(capsys):
    # the bound itself is allowed; 2^20 is no prime, so the range is an empty pass
    bound = oracles.BRUTE_LIMIT
    code, out, _ = run_cli(capsys, "verify", "--pmin", str(bound), "--pmax", str(bound))
    doc = json.loads(out)
    assert code == 0 and doc["pmax"] == bound and doc["total_primes"] == 0


def test_verify_injected_fault_flips_exit(capsys, monkeypatch):
    def corrupted(ctx, values):
        return [(root + 1) % ctx.p for root in _orig(ctx, values)]

    _orig = formulas.roots
    monkeypatch.setattr(formulas, "roots", corrupted)
    code, out, _ = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "60", "--method", "f2")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert any(pd["failures"] for pd in doc["primes"])


def _verify_with(capsys, monkeypatch, method, mod, name, fault):
    """verify --method method over the k = 2 primes of 3..60, with mod.name,
    the function that method runs there, replaced by fault."""
    monkeypatch.setattr(mod, name, fault)
    code, out, _ = run_cli(
        capsys, "verify", "--pmin", "3", "--pmax", "60", "--method", method, "--k", "2"
    )
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
    # the right root with the wrong coroot fails the pair check alone; the
    # class formula's roots has no coroot, so the fault goes into a method
    # verify calls once per residue
    def bad_coroot(ctx, a):
        out = _orig(ctx, a)
        return SqrtOutcome(out.root, out.root, out.method, out.mul_count)

    _orig = oracles.tonelli_shanks
    code, doc = _verify_with(capsys, monkeypatch, "tonelli", oracles, "tonelli_shanks", bad_coroot)
    assert code == 1 and doc["pass"] is False
    want = _expected_failures(doc, lambda p, r, c: (r, r))
    assert [pd["failures"] for pd in doc["primes"]] == want


def test_verify_flags_a_non_root(capsys, monkeypatch):
    # the pair (0, 0) squares to no residue in the table, which omits a = 0
    def non_root(ctx, values):
        return [0 for _ in _orig(ctx, values)]

    _orig = formulas.roots
    code, doc = _verify_with(capsys, monkeypatch, "f2", formulas, "roots", non_root)
    assert code == 1 and doc["pass"] is False
    want = _expected_failures(doc, lambda p, r, c: (0, 0))
    assert [pd["failures"] for pd in doc["primes"]] == want


def test_verify_method_raising_not_a_residue_exits_1(capsys, monkeypatch):
    # a method that refuses a true residue is at fault: exit 1, not the
    # exit 2 reserved for a nonresidue input, and no report on stdout; the
    # error names the residue that the exception names
    def refuses(ctx, values):
        values = list(values)
        if ctx.p == 29 and 4 in values:
            raise formulas.NotAResidue(4, ctx.p)
        return _orig(ctx, values)

    _orig = formulas.roots
    monkeypatch.setattr(formulas, "roots", refuses)
    code, out, err = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "60", "--method", "f2")
    assert (code, out) == (1, "")
    assert err == (
        "error: method f2 raised NotAResidue on the residue a=4 of p=29: "
        "4 is not a quadratic residue mod 29\n"
    )


def test_verify_chunk_refused_exits_1_naming_its_residue(capsys, monkeypatch):
    # a method that refuses a whole chunk exits 1 and names the residue its
    # exception names, here the chunk's first, a = 1; the chunk is not run
    # again one residue at a time
    calls = []

    def refuses_many(ctx, values):
        values = list(values)
        calls.append(len(values))
        if ctx.p == 29:
            raise formulas.NotAResidue(values[0], ctx.p)
        return _orig(ctx, values)

    _orig = formulas.roots
    monkeypatch.setattr(formulas, "roots", refuses_many)
    code, out, err = run_cli(capsys, "verify", "--pmin", "3", "--pmax", "60", "--method", "f2")
    assert (code, out) == (1, "")
    assert err == (
        "error: method f2 raised NotAResidue on the residue a=1 of p=29: "
        "1 is not a quadratic residue mod 29\n"
    )
    assert calls == [2, 6, 14]  # one chunk each at p = 5, 13 and 29, k = 2


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


def test_expand_p17_writes_the_linear_term_without_exponent(capsys):
    # a Fermat prime has n = 1, so its lowest exponent (n+1)/2 is 1
    code, out, _ = run_cli(capsys, "expand", "--p", "17")
    assert code == 0
    assert json.loads(out)["polynomial"] == (
        "11x^8 + 5x^7 + 12x^6 + 16x^5 + 14x^4 + x^3 + 8x^2 + 2x"
    )


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


@pytest.mark.parametrize("k", range(1, 19))
def test_density_doc_laws_at_every_k(k):
    # the smallest prime n 2^k + 1 at each k the command accepts; the laws
    # are computed here, not read from the census.  At k = 1 (p = 3) both
    # shares are whole, 1/1, and are written "1"
    p = primes_with_k(k)[0]
    n = p >> k
    doc = order_census(make_context(p))
    assert (doc["k"], doc["n"]) == (k, n)
    assert doc["predicted_odd_order_fraction"] == str(Fraction(1, 2 ** (k - 1)))
    assert doc["odd_order_fraction"] == doc["predicted_odd_order_fraction"]
    want_exact = str(Fraction(1, 2 * n)) if k >= 2 else None
    assert doc["predicted_exact_2k1_fraction"] == want_exact
    # the measured share: 2^(k-2) residues of order 2^(k-1), the residue 1 at k = 1
    assert doc["exact_2k1_fraction"] == str(Fraction(1, 2 * n) if k >= 2 else Fraction(1, n))
    if k == 1:
        assert doc["odd_order_fraction"] == doc["exact_2k1_fraction"] == "1"
    assert doc["class_histogram"] == doc["multiplier_histogram"] == [n] * 2 ** (k - 1)


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
    # bench and sqrt check the method against the built context, so both
    # refuse the mismatch with one line, and bench prints no timing line; a
    # p that is not an odd prime is refused by make_context first, by both
    for method, p in [("f3", 17), ("f2", 7), ("f1", 13), ("f3", 13), ("f4", 13)]:
        k, have = int(method[1]), make_context(p).k
        want = (1, "", f"error: method {method} needs k={k}, p={p} has k={have}\n")
        assert run_cli(capsys, "bench", "--p", str(p), "--methods", method) == want
        assert run_cli(capsys, "sqrt", "--p", str(p), "--a", "1", "--method", method) == want
    not_prime = (1, "", "error: 15 is not an odd prime\n")
    assert run_cli(capsys, "sqrt", "--p", "15", "--a", "4", "--method", "f3") == not_prime
    assert run_cli(capsys, "bench", "--p", "15", "--methods", "f3") == not_prime


def test_bench_brute_guard(capsys):
    # bench checks the limit against the built context, as sqrt does, and a
    # refusal prints no timing line (2097169 is prime, with k = 4; 2097171 =
    # 3 * 699057 is refused as not prime, not as too large)
    want = (1, "", f"error: brute supports p<={oracles.BRUTE_LIMIT} (BRUTE_LIMIT), got p=2097169\n")
    assert run_cli(capsys, "bench", "--p", "2097169", "--trials", "1", "--methods", "brute") == want
    assert run_cli(capsys, "sqrt", "--p", "2097169", "--a", "4", "--method", "brute") == want
    assert run_cli(capsys, "bench", "--p", "2097171", "--trials", "1", "--methods", "brute") == (
        1, "", "error: 2097171 is not an odd prime\n"
    )


def test_bench_bad_trials(capsys):
    assert run_cli(capsys, "bench", "--p", "17", "--trials", "0")[0] == 1


def test_bench_unknown_method(capsys):
    # the names are checked once the context is built, and a refusal
    # prints no timing line
    assert run_cli(capsys, "bench", "--p", "13", "--methods", "auto,nope") == (
        1, "", "error: unknown method 'nope'\n"
    )


@pytest.mark.parametrize("methods", ["", ","])
def test_bench_explicit_empty_method_list_is_refused(capsys, methods):
    # only an absent --methods means the default list: an empty one names
    # the empty method, refused as any unknown name, with no timing line
    assert run_cli(capsys, "bench", "--p", "41", "--methods", methods) == (
        1, "", "error: unknown method ''\n"
    )


@pytest.mark.parametrize("methods", [[], ()])
def test_run_bench_refuses_an_empty_method_list(capsys, methods):
    with pytest.raises(ValueError, match="methods is empty"):
        cli.run_bench(41, 3, methods)
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "method,mod,name",
    [("tonelli", oracles, "tonelli_shanks"), ("auto", formulas, "sqrt_auto")],
    ids=["tonelli", "auto"],
)
def test_bench_method_refusing_a_sampled_residue_exits_1(capsys, monkeypatch, method, mod, name):
    # bench samples residues only, so a method that refuses one is at fault:
    # exit 1, not the exit 2 reserved for a nonresidue --a, no report on
    # stdout, and the method, p and a named on stderr, as verify names them
    real = getattr(mod, name)
    refused = cli._sample_residues(make_context(3329), 5, 1)[2]

    def refuses(ctx, a):
        if a == refused:
            raise formulas.NotAResidue(a, ctx.p)
        return real(ctx, a)

    monkeypatch.setattr(mod, name, refuses)
    code, out, err = run_cli(
        capsys, "bench", "--p", "3329", "--trials", "5", "--methods", f"auto,{method}"
    )
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert lines[-1] == (
        f"error: method {method} raised NotAResidue on the residue a={refused} of p=3329: "
        f"{refused} is not a quadratic residue mod 3329"
    )
    assert all(re.fullmatch(r"bench \w+ on p=3329: \d+\.\d{3}s", line) for line in lines[:-1])


@pytest.mark.parametrize("methods,shared", [(None, 3), ("auto,tonelli,synth", 2)])
def test_bench_runs_each_evaluator_once(capsys, monkeypatch, methods, shared):
    # auto, f1..f4 and synth are one function, formulas.sqrt_auto: bench runs
    # it once over the sample, read from the module now, and each of its
    # methods prints that run's time; the document is the same
    argv = ["bench", "--p", "17", "--trials", "8", *(["--methods", methods] if methods else [])]
    want = run_cli(capsys, *argv)[1]
    real = formulas.sqrt_auto
    calls = []

    def counted(ctx, a):
        calls.append(a)
        return real(ctx, a)

    monkeypatch.setattr(formulas, "sqrt_auto", counted)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - t0
    assert (code, out, len(calls)) == (0, want, 8)
    times = dict(re.findall(r"^bench (\w+) on p=17: (\d+\.\d{3})s$", err, re.M))
    assert len({times[m] for m in ("auto", "f4", "synth") if m in times}) == 1
    assert sum(m in times for m in ("auto", "f4", "synth")) == shared
    # each line times its own run: no line reads more than the command
    assert all(float(t) <= elapsed + 0.001 for t in times.values())


@pytest.mark.parametrize(
    "p,methods",
    [
        (23, ["auto", "f1", "synth", "direct", "tonelli"]),
        (17, ["auto", "f4", "synth", "direct", "tonelli"]),
        (97, ["auto", "synth", "direct", "tonelli"]),
    ],
    ids=["k1", "k4", "k5"],
)
def test_bench_default_methods_and_seed(capsys, p, methods):
    # f1..f4 join the default list at k <= 4 only, and run_bench's default
    # seed is the command's
    doc = cli.run_bench(p, 4)
    assert [r["method"] for r in doc["records"]] == methods
    assert json.loads(run_cli(capsys, "bench", "--p", str(p), "--trials", "4")[1]) == doc


def test_bench_refusal_names_the_first_method_that_ran_the_function(capsys, monkeypatch):
    def refuses(ctx, a):
        raise formulas.NotAResidue(a, ctx.p)

    monkeypatch.setattr(formulas, "sqrt_auto", refuses)
    code, out, err = run_cli(
        capsys, "bench", "--p", "17", "--trials", "2", "--methods", "synth,auto"
    )
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (
        "error: method synth raised NotAResidue on the residue a=1 of p=17: "
        "1 is not a quadratic residue mod 17"
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
        ("frobnicate",),  # not a command: the top-level parser refuses it
    ]
    fresh = []
    for argv in seq:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    cli._parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in seq]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 2, 0, 1]
    assert shared[2][2] == "error: the following arguments are required: --a\n"
    assert shared[3][1].startswith("usage: sqrtmodp")  # capsys captures --help
    assert shared[0] == shared[5]


def _main_by_the_top_level_parser(argv):
    """main as one parse_args of the top-level parser, then the handler:
    the reference for main's dispatch to the command's own parser."""
    try:
        args = cli._parser().parse_args(argv)
    except cli._UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        report, code = args.func(args)
        text = report if isinstance(report, str) else cli._json(report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        print(text)
        return code
    except formulas.NotAResidue as exc:
        print(f"not a quadratic residue: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


DISPATCH = [
    (),
    ("--help",),
    ("-h",),
    ("frobnicate",),
    ("",),
    *[(cmd, "-h") for cmd in CHEAP],
    ("sqrt",),
    ("sqrt", "--p", "41"),  # a missing option
    ("sqrt", "--p", "x", "--a", "2"),  # a bad int
    ("sqrt", "--p", "41", "--a", "2", "--method", "nope"),  # a bad choice
    ("sqrt", "--p", "41", "--a", "2", "extra"),  # an extra argument
    ("sqrt", "--p", "41", "--a", "2", "sqrt"),
    ("sqrt", "--p=41", "--a", "2"),
    ("sqrt", "--p", "41", "--a", "2", "--meth", "f3"),  # an abbreviation
    ("sqrt", "--p", "13", "--p", "41", "--a", "2"),  # a repeated option
    ("sqrt", "--p", "41", "-h"),  # -h after a command
    ("--p", "41", "sqrt", "--a", "2"),  # an option before the command
    ("sqrt", "--", "--p", "41", "--a", "2"),
    ("sqrt", "--p", "41", "--a", "2", "--out"),
    ("sqrt", "--p", "41", "--a", "3"),  # not a residue
    ("sqrt", "--p", "41", "--a", "-2"),
    ("sqrt", "--p", "15", "--a", "4"),
    ("synthesize", "--k", "3", "--format", "math"),
    ("synthesize", "--k", "3", "--format", "structured"),
    ("expand", "--p", "13"),
    ("density", "--p", "41"),
    ("verify", "--pmin", "50", "--pmax", "3"),
    ("bench", "--p", "17", "--trials", "0"),
    ("bench", "--p", "17", "--methods", "nope"),
]


@pytest.mark.parametrize(
    "argv", DISPATCH, ids=lambda argv: " ".join(argv) if argv and all(argv) else repr(argv)
)
def test_dispatch_reads_as_one_top_level_parse(capsys, argv):
    # main hands argv to the command's own parser; the exit code, stdout and
    # stderr are those of one parse by the top-level parser, for a list and
    # a tuple alike
    want = (_main_by_the_top_level_parser(list(argv)), *capsys.readouterr())
    assert run_cli(capsys, *argv) == want
    assert (cli.main(tuple(argv)), *capsys.readouterr()) == want


def test_dispatch_hands_the_handler_the_top_level_namespace(capsys, monkeypatch):
    # the handler sees the namespace that one top-level parse makes, in the
    # same order, args.command first
    seen = []
    for cmd in CHEAP:
        monkeypatch.setattr(cli, f"_cmd_{cmd}", lambda args: (seen.append(args), ({}, 0))[1])
    cli._parser.cache_clear()  # a parser whose handlers are the spies
    try:
        for cmd, argv in CHEAP.items():
            assert run_cli(capsys, cmd, *argv) == (0, "{}\n", "")
            want = cli._parser().parse_args([cmd, *argv])
            assert list(vars(seen.pop()).items()) == list(vars(want).items())
            assert want.command == cmd
    finally:
        cli._parser.cache_clear()


def test_dispatch_of_an_unwritable_out_and_of_sys_argv(capsys, monkeypatch, tmp_path):
    argv = ["expand", "--p", "13", "--out", str(tmp_path / "missing" / "x.json")]
    want = (_main_by_the_top_level_parser(argv), *capsys.readouterr())
    assert want[:2] == (1, "")
    assert run_cli(capsys, *argv) == want
    for argv in [["sqrt", "--p", "41", "--a", "2"], ["sqrt", "--p", "41"], ["--help"]]:
        want = (_main_by_the_top_level_parser(argv), *capsys.readouterr())
        monkeypatch.setattr(sys, "argv", ["sqrtmodp", *argv])
        assert (cli.main(), *capsys.readouterr()) == want


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


# ---------------------------------------------------------------------------
# the report writer

_scalars = st.one_of(
    st.text(),
    st.sampled_from(["", "\u00e9\u4e2d\U0001f600", '"q"\\b', "\x00\x1f\x7f\n\t\r\u2028"]),
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.floats(),
    st.booleans(),
    st.none(),
)
_docs = st.recursive(
    _scalars,
    lambda kids: st.one_of(
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.lists(st.integers()),
        st.dictionaries(st.text(), kids),
    ),
    max_leaves=40,
)


@given(_docs)
@example({"a": [], "b": {}, "c": (), "d": [[]], "e": [{}]})
@example([1, True, 0, False, -(10**50)])
@example([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324])
def test_json_writer_matches_json_dumps(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [{1, 2}, {"a": [{1: "x"}]}], ids=["set", "int_key"])
def test_json_writer_refuses_what_it_cannot_write(doc):
    with pytest.raises(TypeError):
        cli._json(doc)
