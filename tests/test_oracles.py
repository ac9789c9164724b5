import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtmodp.formulas import NotAResidue
from sqrtmodp.modarith import (
    PrimeContext,
    legendre,
    make_context,
    primes_in_range,
)
from sqrtmodp.oracles import (
    BRUTE_LIMIT,
    brute_force_sqrt,
    direct_sqrt,
    residue_class,
    tonelli_shanks,
)

from root_table import brute_root_table


def test_brute_examples():
    assert brute_force_sqrt(7, 2) == {3, 4}
    assert brute_force_sqrt(7, 3) == set()
    assert brute_force_sqrt(7, 0) == {0}
    assert brute_force_sqrt(41, 0) == {0}


def test_brute_guards():
    with pytest.raises(ValueError, match=rf"p<={BRUTE_LIMIT} \(BRUTE_LIMIT\)"):
        brute_force_sqrt(BRUTE_LIMIT + 1, 2)
    with pytest.raises(ValueError):
        brute_force_sqrt(7, 7)


def test_brute_table_matches_pointwise():
    for p in [7, 13, 41, 97]:
        table = brute_root_table(p)
        assert len(table) == (p - 1) // 2
        for a, pair in table.items():
            assert set(pair) == brute_force_sqrt(p, a)
            assert pair[0] < pair[1]
        for a in range(1, p):
            if a not in table:
                assert brute_force_sqrt(p, a) == set()


@pytest.mark.parametrize("p,a,root", [(41, 2, 17), (13, 4, 2), (17, 1, 1)])
def test_tonelli_examples(p, a, root):
    out = tonelli_shanks(make_context(p), a)
    assert out.root == root
    assert out.coroot == p - root
    assert out.method == "tonelli"


def test_tonelli_zero_and_nonresidue():
    ctx = make_context(41)
    assert tonelli_shanks(ctx, 0).root == 0
    with pytest.raises(NotAResidue):
        tonelli_shanks(ctx, 3)


def test_tonelli_agrees_with_brute_force():
    for p in primes_in_range(3, 500):
        ctx = make_context(p)
        for a, pair in brute_root_table(p).items():
            out = tonelli_shanks(ctx, a)
            assert (out.root, out.coroot) == pair


def test_tonelli_never_iterates_for_k1():
    # p = 3 mod 4: a^n is already 1, so the refinement loop is never entered
    # and the multiplication count is the same for every residue.
    for p in [7, 11, 19, 23, 83]:
        ctx = make_context(p)
        counts = {tonelli_shanks(ctx, a).mul_count for a in brute_root_table(p)}
        assert len(counts) == 1


def test_residue_class_examples():
    assert residue_class(make_context(17), 13) == 2
    ctx41 = make_context(41)
    assert residue_class(ctx41, 2) == 3  # 2^5 = 3^(10*3) mod 41
    for p in [13, 17, 41]:
        ctx = make_context(p)
        assert residue_class(ctx, 1) == 0


def test_residue_class_errors():
    ctx = make_context(41)
    with pytest.raises(NotAResidue):
        residue_class(ctx, 3)
    with pytest.raises(NotAResidue):
        residue_class(ctx, 0)
    with pytest.raises(ValueError):
        residue_class(ctx, 41)


def test_residue_class_round_trip_and_uniqueness():
    for p in [13, 17, 41, 97, 193]:
        ctx = make_context(p)
        half = 1 << (ctx.k - 1)
        for a in brute_root_table(p):
            t = residue_class(ctx, a)
            assert 0 <= t < half
            assert ctx.zn_pow(2 * t) == pow(a, ctx.n, p)
            # uniqueness within range
            assert [u for u in range(half) if ctx.zn_pow(2 * u) == pow(a, ctx.n, p)] == [t]


def _class_by_scan(ctx: PrimeContext, an: int) -> int:
    """Reference path: enumerate the 2^(k-1) candidate classes directly."""
    for t in range(1 << (ctx.k - 1)):
        if ctx.zn_pow(2 * t) == an:
            return t
    raise ArithmeticError(f"no class index matches for p={ctx.p}; context invalid")


def test_lift_and_scan_agree():
    for p in [13, 17, 41, 97, 193, 257, 641]:
        ctx = make_context(p)
        for a in brute_root_table(p):
            an = pow(a, ctx.n, p)
            assert residue_class(ctx, a) == _class_by_scan(ctx, an)


@given(st.sampled_from(primes_in_range(3, 2000)), st.data())
@settings(max_examples=80)
def test_residue_class_round_trip_property(p, data):
    r = data.draw(st.integers(min_value=1, max_value=p - 1))
    a = r * r % p
    ctx = make_context(p)
    t = residue_class(ctx, a)
    assert ctx.zn_pow(2 * t) == pow(a, ctx.n, p)


@pytest.mark.parametrize("p,a,root", [(17, 13, 8), (13, 12, 5), (41, 1, 1)])
def test_direct_sqrt_examples(p, a, root):
    out = direct_sqrt(make_context(p), a)
    assert out.root == root
    assert out.method == "direct"


def test_direct_sqrt_multiplier_squares_back():
    # (a^((n+1)/2) z^(en))^2 = a, i.e. z^(2en) cancels a^n up to a full period
    for p in [17, 41, 97]:
        ctx = make_context(p)
        for a in brute_root_table(p):
            t = residue_class(ctx, a)
            e = (-t) % (1 << (ctx.k - 1))
            raw = pow(a, (ctx.n + 1) // 2, p) * ctx.zn_pow(e) % p
            assert raw * raw % p == a


def test_direct_sqrt_zero():
    out = direct_sqrt(make_context(41), 0)
    assert (out.root, out.coroot) == (0, 0)


def test_oracle_agreement_sweep():
    for p in primes_in_range(3, 400):
        ctx = make_context(p)
        for a, pair in brute_root_table(p).items():
            assert (direct_sqrt(ctx, a).root, direct_sqrt(ctx, a).coroot) == pair
            assert (tonelli_shanks(ctx, a).root, tonelli_shanks(ctx, a).coroot) == pair
