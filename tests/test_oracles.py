import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtmodp import cli
from sqrtmodp.formulas import NotAResidue, roots, sqrt_auto
from sqrtmodp.modarith import (
    PrimeContext,
    _pow_cost,
    make_context,
    primes_in_range,
)
from sqrtmodp.oracles import (
    BRUTE_LIMIT,
    brute_force_sqrt,
    direct_sqrt,
    tonelli_shanks,
)

from formula_reference import residue_class
from root_table import brute_root_table

ORACLES = (tonelli_shanks, direct_sqrt)
GOLDILOCKS = (1 << 64) - (1 << 32) + 1
HIGH_K_PRIMES = (786433, 2130706433, 2013265921, GOLDILOCKS)  # k = 18, 24, 27, 32
# perfbench's large_p grid: 31-, 61- and 80-bit primes with k = 1..4
LARGE_P_GRID = (
    2147483647, 2147483629, 2147483497, 2147483249,
    2305843009213693951, 2305843009213693693, 2305843009213693561, 2305843009213691569,
    1208925819614629174706111, 1208925819614629174704869,
    1208925819614629174704889, 1208925819614629174706033,
)


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


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda f: f.__name__)
def test_oracle_rejects_every_nonresidue_below_500(oracle):
    for p in primes_in_range(3, 500):
        ctx = make_context(p)
        table = brute_root_table(p)
        for a in range(1, p):
            if a not in table:
                with pytest.raises(NotAResidue, match=rf"^{a} is not a quadratic residue mod {p}$"):
                    oracle(ctx, a)
        with pytest.raises(ValueError):
            oracle(ctx, p)


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("p", HIGH_K_PRIMES)
def test_oracle_rejects_nonresidues_at_high_k(oracle, p):
    ctx = make_context(p)
    rng = random.Random(p)
    for _ in range(20):
        r = rng.randrange(1, p)
        with pytest.raises(NotAResidue):
            oracle(ctx, ctx.z * r * r % p)
        out = oracle(ctx, r * r % p)
        assert out.root in (r, p - r)


@pytest.mark.parametrize("method", ["tonelli", "direct"])
@pytest.mark.parametrize("p", [41, 786433, GOLDILOCKS, *LARGE_P_GRID])
def test_sqrt_nonresidue_line_is_auto_s(capsys, method, p):
    a = str(make_context(p).z)
    assert cli.main(["sqrt", "--p", str(p), "--a", a]) == 2
    want = capsys.readouterr()
    assert cli.main(["sqrt", "--p", str(p), "--a", a, "--method", method]) == 2
    got = capsys.readouterr()
    assert (got.out, got.err) == ("", want.err)
    assert want.err == f"not a quadratic residue: {a} is not a quadratic residue mod {p}\n"


@pytest.mark.parametrize("p", LARGE_P_GRID)
def test_every_method_screens_z_r2_on_the_large_p_grid(p):
    # the shared power walks a chain at each of these primes
    ctx = make_context(p)
    rng = random.Random(p)
    for _ in range(8):
        r = rng.randrange(1, p)
        a = ctx.z * r * r % p
        for fn in (sqrt_auto, *ORACLES):
            with pytest.raises(NotAResidue, match=rf"^{a} is not a quadratic residue mod {p}$"):
                fn(ctx, a)


def _roots_after_a_residue(ctx, a):
    return roots(ctx, [1, a])  # the refusal names a, not the value before it


def _brute(ctx, a):
    return cli._method("brute", ctx)[0](ctx, a)


# every raise site of NotAResidue: sqrt_auto and roots read the class table
# at k <= 8 and call formulas._walk above; direct_sqrt refuses in
# oracles._lift_class, and brute is the CLI's oracles._brute_sqrt
REFUSALS = [
    pytest.param(fn, p, id=f"{name}-{label}")
    for name, fn, primes in [
        ("sqrt_auto", sqrt_auto, [(41, "k3"), (40961, "k13"), (GOLDILOCKS, "goldilocks")]),
        ("roots", _roots_after_a_residue, [(41, "k3"), (40961, "k13"), (GOLDILOCKS, "goldilocks")]),
        ("tonelli", tonelli_shanks, [(41, "k3"), (GOLDILOCKS, "goldilocks")]),
        ("direct", direct_sqrt, [(41, "k3"), (GOLDILOCKS, "goldilocks")]),
        ("brute", _brute, [(41, "k3"), (40961, "k13")]),
    ]
    for p, label in primes
]


@pytest.mark.parametrize("fn,p", REFUSALS)
def test_every_refusal_names_its_residue_and_pickles(fn, p):
    # NotAResidue(a, p) carries the refused residue and its prime, keeps
    # the one message, and survives a pickle round trip with both
    ctx = make_context(p)
    rng = random.Random(p)
    for a in [ctx.z, *(ctx.z * r * r % p for r in (rng.randrange(1, p) for _ in range(3)))]:
        with pytest.raises(NotAResidue) as info:
            fn(ctx, a)
        exc = info.value
        assert (exc.a, exc.p, exc.args) == (a, p, (a, p))
        assert str(exc) == f"{a} is not a quadratic residue mod {p}"
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is NotAResidue
        assert (back.a, back.p, back.args, str(back)) == (a, p, (a, p), str(exc))


def test_tonelli_takes_one_power_at_k1():
    # k = 1: the loop is never entered, so tonelli costs what the class
    # formula does, one power a^((n-1)/2) and the two products after it
    for p in [7, 83, *(q for q in LARGE_P_GRID if make_context(q).k == 1)]:
        ctx = make_context(p)
        want = _pow_cost((ctx.n - 1) // 2) + 2
        for r in random.Random(p).sample(range(1, min(p, 1 << 20)), 5):
            a = r * r % p
            assert tonelli_shanks(ctx, a).mul_count == sqrt_auto(ctx, a).mul_count == want


def _loop_bound(k):
    """The most either oracle charges after its shared power at k <= 8,
    where a lookup is free: two products, then tonelli's loop at m = k, ..,
    2, each pass i squarings, m - i - 1 for b and three products, or
    direct's lift, k - 1 - i for bit i and one product, and its product by
    z^(en)."""
    return 3 + sum(m + 2 for m in range(2, k + 1))


@pytest.mark.parametrize("p", LARGE_P_GRID)
def test_oracles_take_one_full_power_on_the_large_p_grid(p):
    ctx = make_context(p)
    power = _pow_cost((ctx.n - 1) // 2)
    # a second full-size power, such as a^n, would not fit under the bound
    assert _loop_bound(ctx.k) < _pow_cost(ctx.n)
    rng = random.Random(p)
    for _ in range(30):
        a = pow(rng.randrange(1, p), 2, p)
        for oracle in ORACLES:
            assert 0 <= oracle(ctx, a).mul_count - power <= _loop_bound(ctx.k)
