"""The class evaluator's one shared power per call.

Each call takes u = a^((n-1)/2) and derives a^((n+1)/2) = a u and a^n =
a^((n+1)/2) u = g^s, g = z^n; the class lift reads s 8 bits per table
lookup, and the low bit of s, Euler's symbol, serves as the screen.  These
tests pin the count that follows from (p, k) alone, the screen on every small
prime, and the Fermat primes, where n = 1 and the shared power is 1.

The power itself is taken by the addition chain its context plans once,
ctx._power; the last tests pin that plan: it rebuilds its exponent, it is
taken only at the primes just below a power of two, and the class lift and
both oracles all walk it.
"""

import random

import pytest

from sqrtmodp import modarith, oracles
from sqrtmodp.formulas import NotAResidue, roots, sqrt_auto
from sqrtmodp.modarith import (
    MulCounter,
    PrimeContext,
    _power_plan,
    decompose,
    is_prime,
    legendre,
    make_context,
    primes_in_range,
)
from sqrtmodp.oracles import direct_sqrt, tonelli_shanks

from root_table import brute_root_table
from test_lift import LARGE_K_PRIMES
from test_oracles import LARGE_P_GRID

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
        for a in range(1, p):
            residue = legendre(a, p) == 1
            try:
                out = sqrt_auto(ctx, a)
            except NotAResidue:
                assert not residue, (p, a)
            else:
                assert residue and out.root * out.root % p == a, (p, a)


@pytest.mark.parametrize("p", HIGH_K_PRIMES)
def test_nonresidue_z_is_rejected_at_high_k(p):
    ctx = make_context(p)
    with pytest.raises(NotAResidue):
        sqrt_auto(ctx, ctx.z)


def test_fermat_prime_65537_every_residue():
    p = 65537
    k, n = decompose(p)
    assert (k, n) == (16, 1)  # (n - 1) / 2 = 0: the shared power is 1
    ctx = make_context(p)
    assert sqrt_auto(ctx, 0).root == 0
    for a, (root, coroot) in brute_root_table(p).items():
        out = sqrt_auto(ctx, a)
        assert (out.root, out.coroot) == (root, coroot)


# perfbench's high_k primes, k = 5..16, about 24 bits each
HIGH_K_BENCH_PRIMES = (
    16777121, 16777153, 16776833, 16776961, 16769537, 16770049,
    16709633, 16699393, 16736257, 16760833, 15630337, 16580609,
)


def seeded_primes(seed, bits):
    """For each length in bits, the first prime at or after a seeded random
    odd number of that length."""
    rng, found = random.Random(seed), []
    for b in bits:
        q = rng.randrange(1 << (b - 1), 1 << b) | 1
        while not is_prime(q):
            q += 2
        found.append(q)
    return found


SEEDED_PRIMES = seeded_primes(29, range(20, 82))


def steps(plan):
    """The plan's first exponent and its (f, r) steps as a list."""
    e0, chain = plan
    out = []
    while chain:
        step, chain = chain
        out.append(step)
    return e0, out


def rebuild(plan):
    """The exponent a plan takes: E <- E f + r from E = e0."""
    e, chain = steps(plan)
    for f, r in chain:
        e = e * f + r
    return e


def walk(plan, a, p):
    """a^e mod p by the plan, for e = rebuild(plan)."""
    e0, chain = steps(plan)
    u = pow(a, e0, p)
    for f, r in chain:
        u = pow(u, f, p) * pow(a, r, p) % p
    return u


def test_plan_rebuilds_every_exponent_below_2_to_12(monkeypatch):
    # at the rule's bound no exponent this small takes a chain; with the
    # bound lifted every one does, and its chain must rebuild it too
    for e in range(1 << 12):
        assert _power_plan(e) == (e, ())
    monkeypatch.setattr(modarith, "_CHAIN_SAVES", -(1 << 12))
    for e in range(1 << 12):
        assert rebuild(_power_plan(e)) == e, e


@pytest.mark.parametrize(
    "p",
    # LARGE_K_PRIMES[2:]: k = 56, 64 and 72
    [65537, 97, *LARGE_P_GRID, *HIGH_K_PRIMES, *LARGE_K_PRIMES[2:], *SEEDED_PRIMES],
)
def test_plan_takes_the_shared_power(p):
    # e = (n - 1)/2: 0 at 65537 and 1 at 97, then the large_p grid, the
    # fields and seeded primes; the plan rebuilds e, and its walk, with a = 1
    # and p - 1 among the inputs, matches one builtin pow
    ctx = make_context(p)
    e = ctx.n >> 1
    assert rebuild(ctx._power) == e
    rng = random.Random(p)
    for a in [1, p - 1, *(rng.randrange(2, p - 1) for _ in range(8))]:
        want = pow(a, e, p)
        c = MulCounter()
        assert c.shared_power(ctx, a) == walk(ctx._power, a, p) == want, (p, a)
        assert c.count == pow_cost(e)  # square-and-multiply, whatever the chain


@pytest.mark.parametrize("p", [*LARGE_P_GRID, GOLDILOCKS])
def test_chain_is_taken_below_a_power_of_two(p):
    # the 31-, 61- and 80-bit primes of large_p and Goldilocks
    assert steps(make_context(p)._power)[1]


def test_no_chain_below_3000_nor_at_high_k():
    # sweep's primes, high_k's, 786433, BabyBear and KoalaBear keep one
    # builtin pow
    for p in [*primes_in_range(3, 3000), *HIGH_K_BENCH_PRIMES, *HIGH_K_PRIMES[:3]]:
        ctx = make_context(p)
        assert ctx._power == (ctx.n >> 1, ()), p


def test_tail_step_at_2_to_61_bits():
    # (n - 1)/2 = 2^57 - 25: a run of 52 ones, then 00111
    assert steps(make_context(2305843009213693561)._power)[1][-1] == (32, 7)


class _Bounded(MulCounter):
    """A counter that stops a loop that would never end."""

    def mul(self, x, y, p):
        if self.count > 10_000:
            raise RuntimeError("runaway")
        return super().mul(x, y, p)


@pytest.mark.parametrize("p", [2999, 16777121, 2147483647, 2305843009213693561, GOLDILOCKS])
def test_every_path_walks_the_context_plan(p, monkeypatch):
    # no chain at 2999 and 16777121, a chain at the others.  A first
    # exponent one too large gives u = a^(e + F), F the product of the
    # steps' f (1 with no chain), and a u^2 = a^(n + 2F) lies outside the
    # 2-power roots of unity unless the odd part of a's order divides F:
    # sqrt_auto finds no log of it, direct calls a residue a nonresidue and
    # tonelli's loop never ends, which the bounded counter stops.  roots,
    # over a one-value sequence, is held to the plan as sqrt_auto is.  So
    # no path keeps a power of its own
    monkeypatch.setattr(oracles, "MulCounter", _Bounded)
    k, n = decompose(p)
    ctx = PrimeContext(p, k, n, make_context(p).z)
    e0, chain = ctx._power
    rng = random.Random(p)
    rs = [rng.randrange(2, p - 1) for _ in range(4)]
    paths = {
        "sqrt_auto": lambda a: sqrt_auto(ctx, a).root,
        "roots": lambda a: roots(ctx, [a])[0],
        "tonelli_shanks": lambda a: tonelli_shanks(ctx, a).root,
        "direct_sqrt": lambda a: direct_sqrt(ctx, a).root,
    }
    for fn in paths.values():
        for r in rs:
            assert fn(r * r % p) in (r, p - r)
    ctx._power = e0 + 1, chain
    for name, fn in paths.items():
        for r in rs:
            try:
                root = fn(r * r % p)
            except (KeyError, NotAResidue, RuntimeError):
                continue
            assert root not in (r, p - r), (name, r)
