"""sqrt_auto as the one live term of the factor tree, and every k it serves.

The class lift must give the value of the symbolic formula wherever synthesize
exists (k <= MAX_K), the same multiplication count for every nonzero residue
of a prime, and correct roots for primes whose k is far above MAX_K.
"""

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqrtmodp import cli, modarith
from sqrtmodp.formulas import sqrt_auto
from sqrtmodp.modarith import is_prime, make_context, primes_in_range
from sqrtmodp.oracles import direct_sqrt, tonelli_shanks
from sqrtmodp.synthesis import MAX_K, synthesize

from formula_reference import evaluate
from root_table import brute_root_table

GOLDILOCKS = (1 << 64) - (1 << 32) + 1
HIGH_K_PRIMES = (786433, 2130706433, 2013265921, GOLDILOCKS)  # k = 18, 24, 27, 32


def two_adic(p):
    return ((p - 1) & (1 - p)).bit_length() - 1


def smallest_primes_with_k(k, count):
    found = [p for p in primes_in_range(3, 1 << 15) if two_adic(p) == k]
    return found[:count]


# ---------------------------------------------------------------------------
# the class lift against the symbolic formula


@pytest.mark.parametrize("k", range(1, 13))
def test_walk_matches_formula_on_every_residue(k):
    # two primes per class; one for k = 11, 12, where evaluating the full
    # 2^(k-1)-term bracket at every residue dominates the suite's time
    f = synthesize(k)
    primes = smallest_primes_with_k(k, 2 if k <= 10 else 1)
    assert primes
    for p in primes:
        ctx = make_context(p)
        for a in [0, *brute_root_table(p)]:
            got = sqrt_auto(ctx, a)
            assert (got.root, got.coroot) == evaluate(f, ctx, a)


@pytest.mark.parametrize("k", range(1, 13))
def test_walk_count_is_constant_per_prime(k):
    for p in smallest_primes_with_k(k, 3):
        ctx = make_context(p)
        counts = {sqrt_auto(ctx, a).mul_count for a in brute_root_table(p)}
        assert len(counts) == 1, (p, counts)


@pytest.mark.parametrize("p", [12289, 786433, 2130706433, 2013265921])
def test_walk_count_is_linear_in_k(p):
    # one shared power of at most 2 log2(p) mults, then about 4 per level;
    # the full bracket would need at least 2^(k-1)
    ctx = make_context(p)
    assert sqrt_auto(ctx, 4).mul_count <= 6 * p.bit_length() + 3 * ctx.k + 8


def test_synthesize_shares_factors():
    for k in range(1, 11):
        f = synthesize(k)
        distinct = {id(fc) for term in f["terms"] for fc in term["factors"]}
        assert len(distinct) == (1 << k) - 2  # one factor dict per (j, c) pair


def test_synthesize_error_names_what_it_limits():
    with pytest.raises(ValueError, match="sqrt, verify and bench work for any k"):
        synthesize(MAX_K + 1)


# ---------------------------------------------------------------------------
# primes with k > MAX_K


@pytest.mark.parametrize("p", HIGH_K_PRIMES)
def test_high_k_primes_match_oracles(p):
    ctx = make_context(p)
    assert ctx.k > MAX_K
    rng = random.Random(p)
    for r in [2, *(rng.randrange(1, p) for _ in range(25))]:
        a = r * r % p
        want = (min(r, p - r), max(r, p - r))
        for fn in (sqrt_auto, tonelli_shanks, direct_sqrt):
            out = fn(ctx, a)
            assert out.root * out.root % p == a
            assert (out.root, out.coroot) == want
    assert sqrt_auto(ctx, 4).method == "synth"


@pytest.mark.parametrize("p", HIGH_K_PRIMES)
def test_high_k_count_is_constant(p):
    ctx = make_context(p)
    rng = random.Random(p)
    counts = {sqrt_auto(ctx, rng.randrange(1, p) ** 2 % p).mul_count for _ in range(20)}
    assert len(counts) == 1


def test_goldilocks_zero_and_one():
    ctx = make_context(GOLDILOCKS)
    assert sqrt_auto(ctx, 0)[:2] == (0, 0)
    assert sqrt_auto(ctx, 1)[:2] == (1, GOLDILOCKS - 1)


@st.composite
def prime_and_residue(draw):
    k = draw(st.integers(min_value=1, max_value=32))
    n = 2 * draw(st.integers(min_value=0, max_value=1 << 20)) + 1
    for m in range(n, n + 4000, 2):
        if is_prime((m << k) + 1):
            p = (m << k) + 1
            r = draw(st.integers(min_value=0, max_value=p - 1))
            return p, r
    assume(False)


@given(prime_and_residue())
@settings(max_examples=60, deadline=None)
def test_auto_matches_direct_for_any_k(case):
    p, r = case
    ctx = make_context(p)
    a = r * r % p
    out, ref = sqrt_auto(ctx, a), direct_sqrt(ctx, a)
    assert (out.root, out.coroot) == (ref.root, ref.coroot)
    assert out.root * out.root % p == a


# ---------------------------------------------------------------------------
# the CLI at k > MAX_K


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_cli_sqrt_k18(capsys):
    code, out = run_cli(capsys, "sqrt", "--p", "786433", "--a", "4")
    assert code == 0
    doc = json.loads(out)
    assert (doc["root"], doc["coroot"], doc["method"]) == (2, 786431, "synth")


def test_cli_bench_k18(capsys):
    code, out = run_cli(capsys, "bench", "--p", "786433", "--trials", "20")
    assert code == 0
    by_method = {r["method"]: r for r in json.loads(out)["records"]}
    assert set(by_method) == {"auto", "synth", "direct", "tonelli"}
    assert by_method["synth"]["constant_across_inputs"] is True
    assert by_method["auto"]["constant_across_inputs"] is True


def test_cli_verify_k18(capsys):
    # the range's only prime with k > MAX_K; the others take minutes to
    # exhaust and run the k <= 4 evaluators, which other tests cover
    code, out = run_cli(
        capsys, "verify", "--pmin", "786000", "--pmax", "786500", "--k", "18"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert [pd["p"] for pd in doc["primes"]] == [786433]
    assert doc["total_residues"] == 786432 // 2


# ---------------------------------------------------------------------------
# run_verification builds contexts only for the primes it checks


@pytest.fixture
def built(monkeypatch):
    calls = []
    real = modarith.make_context

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(modarith, "make_context", counting)
    return calls


def test_verify_builds_no_context_for_filtered_primes(built):
    rep = cli.run_verification(3, 200000, "auto", k_filter=30)
    assert rep.primes == ()
    assert built == []


def test_verify_builds_contexts_only_for_kept_primes(built):
    rep = cli.run_verification(3, 600, "f3")
    assert built == [pc.p for pc in rep.primes]
    assert built == [p for p in primes_in_range(3, 600) if two_adic(p) == 3]
    built.clear()
    rep = cli.run_verification(3, 600, "auto", k_filter=5)
    assert built == [pc.p for pc in rep.primes]
    assert built == [p for p in primes_in_range(3, 600) if two_adic(p) == 5]
