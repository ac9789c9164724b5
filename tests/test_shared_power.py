"""The class evaluator's one shared power per call.

Each call takes u = a^((n-1)/2) and derives a^((n+1)/2) = a u and a^n =
a^((n+1)/2) u = g^s, g = z^n; the class lift reads s 8 bits per table
lookup, and the low bit of s, Euler's symbol, serves as the screen.  These
tests pin the count that follows from (p, k) alone, the screen on every small
prime, and the Fermat primes, where n = 1 and the shared power is 1.
"""

import random

import pytest

from sqrtmodp.formulas import NotAResidue, sqrt_auto, sqrt_f1, sqrt_f2, sqrt_f3, sqrt_f4
from sqrtmodp.modarith import (
    PrimeContext,
    decompose,
    is_prime,
    legendre,
    make_context,
    primes_in_range,
)
from sqrtmodp.synthesis import sqrt_synth

from root_table import brute_root_table

F_BY_K = {1: sqrt_f1, 2: sqrt_f2, 3: sqrt_f3, 4: sqrt_f4}
GOLDILOCKS = (1 << 64) - (1 << 32) + 1
HIGH_K_PRIMES = (786433, 2013265921, 2130706433, GOLDILOCKS)  # k = 18, 27, 24, 32
LARGE_PRIMES = (
    2147483647,  # 2^31 - 1
    2305843009213693951, 2305843009213693693, 2305843009213693561, 2305843009213691569,
    1208925819614629174706111, 1208925819614629174704869,
    1208925819614629174704889, 1208925819614629174706033,
    2013265921, 2130706433, GOLDILOCKS,
)


def pow_cost(e):
    """Square-and-multiply cost of x^e, as MulCounter charges it."""
    return e.bit_length() - 1 + e.bit_count() - 1 if e else 0


def expected_count(p, k):
    n = (p - 1) >> k
    w = min(8, k)  # bits of the class index read per table lookup
    front = pow_cost((n - 1) // 2) + 2 + (k - w)  # u, a u, a^((n+1)/2) u, squarings
    rows = (k + 7) // 8  # rows of zn_rows, one per 8 bits of an exponent of g
    windows = -(-k // w)
    # each window after the first divides the known digits out: a product per row
    divide_out = (windows - 1) * rows
    # the multiplier g^(-s/2): a product per 8-bit digit of s/2, which has k - 1 bits
    multiplier = (k - 1 + 7) // 8
    return front + divide_out + multiplier


def smallest_prime_with_k(k):
    n = 1
    while not is_prime((n << k) + 1):
        n += 2
    return (n << k) + 1


@pytest.mark.parametrize("p", [smallest_prime_with_k(k) for k in range(1, 19)] + list(LARGE_PRIMES))
def test_count_follows_from_p_and_k(p):
    ctx = make_context(p)
    want = expected_count(p, ctx.k)
    rng = random.Random(p)
    for r in [1, 2, *(rng.randrange(1, p) for _ in range(5))]:
        assert sqrt_auto(ctx, r * r % p).mul_count == want


@pytest.mark.parametrize("k", [1, 2, 8, 9, 16, 17, 24, 32])
def test_context_prices_the_lift_once(k):
    # _cost is derived with the context, built by make_context or by hand
    p = smallest_prime_with_k(k)
    ctx = make_context(p)
    n, z = ctx.n, ctx.z
    by_hand = PrimeContext(p, k, n, z)
    assert ctx._cost == by_hand._cost == expected_count(p, k)
    assert sqrt_auto(by_hand, 1).mul_count == expected_count(p, k)


def test_screen_matches_legendre_below_1500():
    for p in primes_in_range(3, 1500):
        ctx = make_context(p)
        fns = [sqrt_auto, sqrt_synth]
        if ctx.k in F_BY_K:
            fns.append(F_BY_K[ctx.k])
        for a in range(1, p):
            residue = legendre(a, p) == 1
            for fn in fns:
                try:
                    out = fn(ctx, a)
                except NotAResidue:
                    assert not residue, (p, a, fn.__name__)
                else:
                    assert residue and out.root * out.root % p == a, (p, a, fn.__name__)


@pytest.mark.parametrize("p", HIGH_K_PRIMES)
def test_nonresidue_z_is_rejected_at_high_k(p):
    ctx = make_context(p)
    for fn in (sqrt_auto, sqrt_synth):
        with pytest.raises(NotAResidue):
            fn(ctx, ctx.z)


def test_fermat_prime_65537_every_residue():
    p = 65537
    k, n = decompose(p)
    assert (k, n) == (16, 1)  # (n - 1) / 2 = 0: the shared power is 1
    ctx = make_context(p)
    assert sqrt_auto(ctx, 0).root == 0
    for a, (root, coroot) in brute_root_table(p).items():
        out = sqrt_auto(ctx, a)
        assert (out.root, out.coroot) == (root, coroot)
