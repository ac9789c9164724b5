import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtmodp.formulas import (
    NotAResidue,
    SqrtOutcome,
    WrongClass,
    sqrt_auto,
    sqrt_f1,
    sqrt_f2,
    sqrt_f3,
    sqrt_f4,
)
from sqrtmodp import synthesis
from sqrtmodp.modarith import PrimeContext, decompose, make_context, primes_in_range
from sqrtmodp.synthesis import sqrt_synth, synthesize

from formula_reference import residue_class, term_values
from root_table import brute_root_table

F_BY_K = {1: sqrt_f1, 2: sqrt_f2, 3: sqrt_f3, 4: sqrt_f4}


@pytest.mark.parametrize(
    "p,a,root",
    [(7, 2, 3), (7, 1, 1), (7, 4, 2), (11, 3, 5), (19, 0, 0)],
)
def test_f1_examples(p, a, root):
    out = sqrt_f1(make_context(p), a)
    assert out.root == root
    assert out.method == "f1"


def test_f2_examples():
    ctx = make_context(13)
    out = sqrt_f2(ctx, 4)
    assert (out.root, out.coroot) == (2, 11)  # raw bracket value is 11 = -2
    assert sqrt_f2(ctx, 1).root == 1
    out12 = sqrt_f2(ctx, 12)
    assert (out12.root, out12.coroot) == (5, 8)  # raw value is 8


@pytest.mark.parametrize("p,a,root", [(41, 2, 17), (41, 1, 1), (41, 25, 5)])
def test_f3_examples(p, a, root):
    assert sqrt_f3(make_context(p), a).root == root


@pytest.mark.parametrize("p,a,root", [(17, 13, 8), (17, 1, 1), (17, 16, 4)])
def test_f4_examples(p, a, root):
    assert sqrt_f4(make_context(p), a).root == root


def test_wrong_class_is_rejected():
    ctx7 = make_context(7)  # k = 1
    ctx13 = make_context(13)  # k = 2
    with pytest.raises(WrongClass):
        sqrt_f2(ctx7, 1)
    with pytest.raises(WrongClass):
        sqrt_f1(ctx13, 1)
    with pytest.raises(WrongClass):
        sqrt_f3(ctx13, 1)
    with pytest.raises(WrongClass):
        sqrt_f4(ctx13, 1)


def test_nonresidue_is_rejected():
    with pytest.raises(NotAResidue):
        sqrt_f1(make_context(7), 3)
    with pytest.raises(NotAResidue):
        sqrt_auto(make_context(41), 3)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        sqrt_f1(make_context(7), 7)


def test_sqrt_outcome_contract():
    # positional construction, named fields in this order, and no mutation
    assert list(inspect.signature(SqrtOutcome).parameters) == [
        "root", "coroot", "method", "mul_count"
    ]
    out = SqrtOutcome(2, 11, "f2", 3)
    assert (out.root, out.coroot, out.method, out.mul_count) == (2, 11, "f2", 3)
    assert out == SqrtOutcome(root=2, coroot=11, method="f2", mul_count=3)
    with pytest.raises(AttributeError):
        out.root = 3
    with pytest.raises(AttributeError):
        out.mul_count = 0
    got = sqrt_auto(make_context(13), 4)
    assert isinstance(got, SqrtOutcome)
    assert got == out


@pytest.mark.parametrize(
    "fn,p,a",
    [(sqrt_f1, 7, 2), (sqrt_f2, 13, 4), (sqrt_f3, 41, 2), (sqrt_f4, 17, 13), (sqrt_synth, 97, 4)],
)
def test_outcome_is_a_plain_sqrt_outcome(fn, p, a):
    # built with tuple.__new__ on the hot path: the same type, equality and
    # field order as the generated constructor gives, at a residue and at 0
    ctx = make_context(p)
    for x in (a, 0):
        out = fn(ctx, x)
        assert type(out) is SqrtOutcome
        assert out == SqrtOutcome(*out)
        assert list(out._asdict()) == ["root", "coroot", "method", "mul_count"]
        assert out.root * out.root % p == x


def test_auto_dispatch():
    assert sqrt_auto(make_context(7), 2).method == "f1"
    assert sqrt_auto(make_context(13), 4).method == "f2"
    assert sqrt_auto(make_context(41), 2).method == "f3"
    assert sqrt_auto(make_context(17), 13).method == "f4"
    out = sqrt_auto(make_context(97), 1)
    assert (out.root, out.method) == (1, "synth")


def test_zero_and_one():
    for p in [7, 13, 41, 17, 97]:
        ctx = make_context(p)
        out = sqrt_auto(ctx, 0)
        assert (out.root, out.coroot) == (0, 0)
        assert sqrt_auto(ctx, 1).root == 1


def test_exhaustive_against_brute_force_per_class():
    for p in primes_in_range(3, 800):
        ctx = make_context(p)
        if ctx.k > 4:
            continue
        fn = F_BY_K[ctx.k]
        for a, pair in brute_root_table(p).items():
            out = fn(ctx, a)
            assert out.root * out.root % p == a
            assert (out.root, out.coroot) == pair


def test_canonical_root_is_smaller():
    for p in [7, 13, 41, 17]:
        ctx = make_context(p)
        for a in brute_root_table(p):
            out = sqrt_auto(ctx, a)
            assert out.root <= p - out.root
            assert out.coroot == p - out.root


def test_mul_count_constant_across_residues():
    # every window is charged: same count for every residue of a fixed prime
    for p in [7, 11, 13, 29, 41, 73, 17, 113]:
        ctx = make_context(p)
        fn = F_BY_K[ctx.k]
        counts = {fn(ctx, a).mul_count for a in brute_root_table(p)}
        assert len(counts) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fk_auto_and_synth_agree(k):
    # one evaluator behind all three: equal roots and counts, own method tags
    fk = F_BY_K[k]
    primes = [p for p in primes_in_range(3, 300) if decompose(p)[0] == k][:3]
    assert len(primes) == 3
    for p in primes:
        ctx = make_context(p)
        for a in [0, *brute_root_table(p)]:
            outs = [fk(ctx, a), sqrt_auto(ctx, a), sqrt_synth(ctx, a)]
            assert [o.method for o in outs] == [f"f{k}", f"f{k}", "synth"]
            assert len({(o.root, o.coroot, o.mul_count) for o in outs}) == 1


@pytest.mark.parametrize("p,count", [(7, 2), (2147483647, 58)])
def test_synth_k1_count_is_f1s(p, count):
    # at k = 1 the bracket is empty: no scale or multiplier is charged
    ctx = make_context(p)
    assert sqrt_synth(ctx, 4).mul_count == sqrt_f1(ctx, 4).mul_count == count


@pytest.mark.parametrize("p", [41, 97, 7681, 65537, 2013265921])
def test_residue_z_is_rejected_when_the_context_is_built(p):
    # z = 2 is a residue mod each p, so z^n has order below 2^k and its log
    # table would have collisions: the constructor refuses the context, with
    # one row of powers (41, 97), two (7681, 65537) and four (BabyBear)
    k, n = decompose(p)
    with pytest.raises(ArithmeticError, match=rf"z=2 is not a nonresidue mod p={p}:"):
        PrimeContext(p, k, n, 2)


@pytest.mark.parametrize(
    "p,k,n,z", [(41, 2, 10, 3), (41, 4, 5, 3), (41, 3, 3, 3), (2, 0, 1, 1)]
)
def test_bad_decomposition_is_rejected_when_the_context_is_built(p, k, n, z):
    # n even; n odd but p - 1 != n 2^k, with k too large and with n too
    # small; k = 0
    want = rf"^p={p}, k={k}, n={n}: need k >= 1, n odd and p - 1 = n 2\^k$"
    with pytest.raises(ValueError, match=want):
        PrimeContext(p, k, n, z)


def test_auto_reaches_sqrt_synth_through_its_module(monkeypatch):
    # sqrt_auto looks sqrt_synth up on the synthesis module at each call, so
    # a wrapper set there (a tracer, a fault) sees every k > 4 call
    calls = []

    def spy(ctx, a):
        calls.append((ctx.p, a))
        return sqrt_synth(ctx, a)

    monkeypatch.setattr(synthesis, "sqrt_synth", spy)
    ctx = make_context(97)  # k = 5
    assert sqrt_auto(ctx, 4) == sqrt_synth(ctx, 4)
    assert sqrt_auto(make_context(41), 2).method == "f3"  # k <= 4: no hand-off
    assert calls == [(97, 4)]


def test_selector_property_k3_k4():
    # exactly one bracket term is nonzero at a residue, with value 2^(k-1) z^(en)
    for p in [41, 73, 89, 17, 113, 241]:
        ctx = make_context(p)
        if ctx.k not in (3, 4):
            continue
        f = synthesize(ctx.k)
        for a in brute_root_table(p):
            vals = term_values(f, ctx, a)
            nonzero = [(t, v) for t, v in enumerate(vals) if v]
            assert len(nonzero) == 1
            t, v = nonzero[0]
            assert t == residue_class(ctx, a)
            e = f.terms[t].e
            assert v == (1 << (ctx.k - 1)) * ctx.zn_pow(e) % p


def test_f2_nonresidue_is_literal_two():
    # for p = 5 mod 8 the smallest nonresidue is always 2, so the context
    # bracket coincides with the constant-2 form; asserted, not assumed
    for p in primes_in_range(3, 3000):
        if p % 8 == 5:
            assert make_context(p).z == 2


@given(st.sampled_from(primes_in_range(3, 5000)), st.data())
@settings(max_examples=100)
def test_sqrt_auto_squares_back(p, data):
    r = data.draw(st.integers(min_value=0, max_value=p - 1))
    a = r * r % p
    out = sqrt_auto(make_context(p), a)
    assert out.root * out.root % p == a
    assert {out.root, out.coroot} == {r, (p - r) % p} if a else out.root == 0
