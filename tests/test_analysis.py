from fractions import Fraction

import pytest

from sqrtmodp.analysis import (
    DENSITY_MAX_K,
    DensityReport,
    multiplier_coverage,
    multiplier_histogram,
    order_census,
)
from sqrtmodp.modarith import make_context, primes_in_range

from formula_reference import residue_class
from root_table import brute_root_table


def naive_order(a, p):
    d, x = 1, a
    while x != 1:
        x = x * a % p
        d += 1
    return d


def _census_reference(ctx):
    """Every residue enumerated as v^2, with two full-size powers each: the
    reference of the census that order_census derives from (k, n)."""
    p, k, n = ctx.p, ctx.k, ctx.n
    half = 1 << (k - 1)
    class_of = {ctx.zn_pow(2 * t): t for t in range(half)}
    hist = [0] * half
    exact = 0
    two_exp = 1 << (k - 2) if k >= 2 else 0
    for v in range(1, (p + 1) // 2):
        a = v * v % p
        hist[class_of[pow(a, n, p)]] += 1
        if k >= 2:
            if pow(a, two_exp, p) == p - 1:
                exact += 1
        elif a == 1:
            exact += 1
    qr = (p - 1) // 2
    return DensityReport(
        p, k, n, qr, hist[0], exact, tuple(hist), Fraction(hist[0], qr), Fraction(exact, qr)
    )


def test_census_matches_reference_below_3000():
    for p in primes_in_range(3, 3000):
        ctx = make_context(p)
        assert order_census(ctx) == _census_reference(ctx), p


@pytest.mark.parametrize("p,k", [(40961, 13), (65537, 16), (786433, 18)])
def test_census_matches_reference_at_high_k(p, k):
    ctx = make_context(p)
    assert ctx.k == k
    assert order_census(ctx) == _census_reference(ctx)


def test_census_p13():
    rep = order_census(make_context(13))
    assert (rep.p, rep.k, rep.n) == (13, 2, 3)
    assert rep.qr_count == 6
    assert rep.odd_order_count == 3  # the subgroup {1, 3, 9}
    assert rep.odd_order_fraction == Fraction(1, 2)
    assert rep.exact_2k1_order_count == 1  # only 12 = -1 has order 2
    assert rep.exact_2k1_fraction == Fraction(1, 6)
    assert rep.class_histogram == (3, 3)


def test_census_p41():
    rep = order_census(make_context(41))
    assert rep.odd_order_fraction == Fraction(1, 4)
    assert rep.exact_2k1_fraction == Fraction(1, 10)
    assert rep.class_histogram == (5, 5, 5, 5)


def test_census_p7_k1():
    rep = order_census(make_context(7))
    assert rep.qr_count == 3
    assert rep.odd_order_fraction == Fraction(1, 1)
    assert rep.class_histogram == (3,)
    assert rep.exact_2k1_order_count == 1  # only the identity has order 1


def test_census_matches_naive_orders():
    for p in [13, 17, 41, 73]:
        ctx = make_context(p)
        rep = order_census(ctx)
        odd = sum(1 for a in brute_root_table(p) if naive_order(a, p) % 2 == 1)
        exact = sum(
            1 for a in brute_root_table(p) if naive_order(a, p) == 1 << (ctx.k - 1)
        )
        assert rep.odd_order_count == odd
        assert rep.exact_2k1_order_count == exact


def test_census_classes_match_residue_class():
    for p in [13, 17, 41, 97]:
        ctx = make_context(p)
        rep = order_census(ctx)
        hist = [0] * (1 << (ctx.k - 1))
        for a in brute_root_table(p):
            hist[residue_class(ctx, a)] += 1
        assert tuple(hist) == rep.class_histogram


def test_exact_laws_sweep():
    # both probability statements are exact counting identities at fixed p
    for p in primes_in_range(3, 2000):
        ctx = make_context(p)
        rep = order_census(ctx)
        assert sum(rep.class_histogram) == rep.qr_count
        assert rep.class_histogram[0] == ctx.n
        assert all(c == ctx.n for c in rep.class_histogram)
        assert rep.odd_order_count == ctx.n
        assert rep.odd_order_fraction == Fraction(1, 1 << (ctx.k - 1))
        if ctx.k >= 2:
            assert rep.exact_2k1_order_count == 1 << (ctx.k - 2)
            assert rep.exact_2k1_fraction == Fraction(1, 2 * ctx.n)


def test_multiplier_census_examples():
    # p = 17 has n = 1: one residue per bucket; p = 7 has k = 1: one bucket
    for p, want in [(17, (1,) * 8), (13, (3, 3)), (7, (3,))]:
        assert multiplier_histogram(order_census(make_context(p))) == want


def test_multiplier_census_matches_per_element():
    for p in [13, 17, 41, 97]:
        ctx = make_context(p)
        half = 1 << (ctx.k - 1)
        hist = [0] * half
        for a in brute_root_table(p):
            hist[(-residue_class(ctx, a)) % half] += 1
        assert tuple(hist) == multiplier_histogram(order_census(ctx))


def test_bucket_zero_is_odd_order_class():
    for p in [13, 41, 17, 97]:
        ctx = make_context(p)
        assert multiplier_histogram(order_census(ctx))[0] == ctx.n


def test_fractions_are_exact_rationals():
    rep = order_census(make_context(41))
    assert isinstance(rep.odd_order_fraction, Fraction)
    assert isinstance(rep.exact_2k1_fraction, Fraction)


def test_coverage_trend_fixed_k():
    # with k fixed, 1 - 1/(2n) climbs toward 1 as n grows
    for k in (2, 3, 4):
        rows = []
        for p in primes_in_range(3, 4000):
            ctx = make_context(p)
            if ctx.k != k:
                continue
            cov = multiplier_coverage(order_census(ctx))
            assert cov == 1 - Fraction(1, 2 * ctx.n)
            rows.append((ctx.n, cov))
        rows.sort()
        covs = [c for _, c in rows]
        assert covs == sorted(covs)
        assert covs[-1] > Fraction(9, 10)


def test_small_share_for_k_at_least_8():
    # smallest prime with 2^8 dividing p - 1 exactly: census must show < 1%
    p = next(q for q in primes_in_range(3, 10_000) if make_context(q).k == 8)
    assert p == 257
    rep = order_census(make_context(p))
    assert rep.odd_order_fraction == Fraction(1, 128)
    assert rep.odd_order_fraction < Fraction(1, 100)


@pytest.mark.parametrize("p,k", [(786433, 18), (1179649, 17), (2752513, 17)])
def test_census_accepts_every_k_up_to_the_bound(p, k):
    # the three primes below 2^22 with k > 16 keep their census
    ctx = make_context(p)
    assert ctx.k == k <= DENSITY_MAX_K
    rep = order_census(ctx)
    assert rep.qr_count == (p - 1) // 2
    assert rep.class_histogram == (ctx.n,) * (1 << (k - 1))
    assert rep.odd_order_count == ctx.n
    assert rep.exact_2k1_order_count == 1 << (k - 2)
    assert rep.odd_order_fraction == Fraction(1, 1 << (k - 1))
    assert rep.exact_2k1_fraction == Fraction(1, 2 * ctx.n)


def test_census_bound():
    # 11 2^19 + 1 is the smallest prime with k = 19; Goldilocks has k = 32
    for p, k in [(5767169, 19), (18446744069414584321, 32)]:
        ctx = make_context(p)
        assert ctx.k == k > DENSITY_MAX_K
        with pytest.raises(
            ValueError, match=rf"^density supports k<=18 \(DENSITY_MAX_K\); p={p} has k={k}$"
        ):
            order_census(ctx)
