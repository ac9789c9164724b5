import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtmodp import modarith
from sqrtmodp.modarith import (
    MulCounter,
    is_prime,
    legendre,
    make_context,
    mod_pow,
    primes_in_range,
)

from prime_search import primes_with_k

SMALL_PRIMES = primes_in_range(3, 1000)
GOLDILOCKS = (1 << 64) - (1 << 32) + 1


def sieve_is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


@pytest.mark.parametrize("p,want", [(7, (1, 3)), (41, (3, 5)), (17, (4, 1)), (3, (1, 1)), (97, (5, 3))])
def test_decompose(p, want):
    # make_context splits p - 1 = 2^k n, n odd
    ctx = make_context(p)
    assert (ctx.k, ctx.n) == want


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 9, 15, 91, 100])
def test_decompose_rejects(bad):
    with pytest.raises(ValueError):
        make_context(bad)


def test_decompose_reconstructs():
    for p in SMALL_PRIMES:
        ctx = make_context(p)
        k, n = ctx.k, ctx.n
        assert p - 1 == (1 << k) * n
        assert n % 2 == 1
        assert k >= 1


@pytest.mark.parametrize("m,want", [(0, False), (1, False), (2, True), (41, True), (91, False), (7919, True)])
def test_is_prime_examples(m, want):
    assert is_prime(m) is want


@given(st.integers(min_value=0, max_value=100_000))
def test_is_prime_matches_trial_division(m):
    assert is_prime(m) == sieve_is_prime(m)


def test_is_prime_large_known():
    assert is_prime((1 << 61) - 1)  # Mersenne
    assert not is_prime((1 << 61) + 1)
    with pytest.raises(ValueError):
        is_prime(10**25)
    with pytest.raises(ValueError, match="primality bound"):
        is_prime(modarith._MR_BOUND)  # the bound is a strong pseudoprime


# The smallest strong pseudoprime to the first t prime bases, t = 1..7, 9
# and 12: the bounds of the tiers of 2..41 prefixes that is_prime once had.
SPSP_BY_TIER = [
    2047,  # base 2
    1373653,  # 2, 3
    25326001,  # 2..5
    3215031751,  # 2..7
    2152302898747,  # 2..11
    3474749660383,  # 2..13
    341550071728321,  # 2..19
    3825123056546413051,  # 2..31
    318665857834031151167461,  # 2..37
]
# The bases of is_prime's tiers below 2^64: Jaeschke's and Sinclair's sets.
JAESCHKE = (2, 7, 61)
SINCLAIR = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def strong_probable_prime(m, a):
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, m)
    if x in (1, m - 1):
        return True
    for _ in range(r - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


@pytest.mark.parametrize("m", SPSP_BY_TIER)
def test_is_prime_rejects_each_tiers_pseudoprime(m):
    assert not is_prime(m)
    with pytest.raises(ValueError, match=f"{m} is not an odd prime"):
        make_context(m)


def test_is_prime_tiers_end_at_a_pseudoprime():
    # below each tier's bound its bases are proven; the bound itself fools
    # them, except 2^64, where Sinclair's verified range ends
    tiers = modarith._MR_TIERS
    witnesses = tuple(primes_in_range(2, 41))
    assert modarith._MR_WITNESSES == witnesses
    assert tiers == (
        (2047, (2,)),
        (1373653, (2, 3)),
        (25326001, (2, 3, 5)),
        (4759123141, JAESCHKE),
        (1 << 64, SINCLAIR),
        (318665857834031151167461, witnesses[:12]),
        (modarith._MR_BOUND, witnesses),
    )
    for bound, bases in tiers:
        if bound != 1 << 64:
            assert all(strong_probable_prime(bound, a) for a in bases), bound
    assert 4759123141 == 48781 * 97561
    assert 318665857834031151167461 == 399165290221 * 798330580441


@pytest.mark.parametrize("base,exp,p,want", [(3, 4, 7, 4), (5, 0, 13, 1), (2, 5, 13, 6), (0, 0, 7, 1)])
def test_mod_pow_examples(base, exp, p, want):
    assert mod_pow(base, exp, p) == want


@given(
    st.sampled_from(primes_in_range(3, 1 << 10)),
    st.integers(min_value=0, max_value=1 << 10),
    st.integers(min_value=0, max_value=63),
)
def test_mod_pow_matches_naive(p, base, exp):
    base %= p
    naive = 1
    for _ in range(exp):
        naive = naive * base % p
    assert mod_pow(base, exp, p) == naive


@pytest.mark.parametrize("exp,cost", [(0, 0), (1, 0), (2, 1), (4, 2), (5, 3), (0b1011, 5)])
def test_mod_pow_count_model(exp, cost):
    # left-to-right square-and-multiply: floor(log2 e) squarings + popcount(e)-1
    c = MulCounter()
    assert c.pow(3, exp, 101) == mod_pow(3, exp, 101)
    assert c.count == cost


def test_mul_counter_accumulates():
    c = MulCounter()
    assert c.mul(3, 4, 7) == 5
    assert c.mul(6, 6, 7) == 1
    assert c.count == 2


@pytest.mark.parametrize("a,p,want", [(4, 7, 1), (3, 7, -1), (0, 41, 0), (1, 13, 1)])
def test_legendre_examples(a, p, want):
    assert legendre(a, p) == want


def test_legendre_rejects_out_of_range():
    with pytest.raises(ValueError):
        legendre(7, 7)
    with pytest.raises(ValueError):
        legendre(-1, 7)


@pytest.mark.parametrize("a,p", [(1, 2), (0, 2), (3, 4), (1, 4), (2, 10), (0, 1), (0, -3)])
def test_legendre_rejects_even_or_small_modulus(a, p):
    # legendre(1, 2) once returned -1 though 1 = 1^2 mod 2
    with pytest.raises(ValueError, match=f"p={p}"):
        legendre(a, p)


def test_legendre_is_the_jacobi_symbol_at_odd_composites():
    assert legendre(2, 15) == 1  # (2/3)(2/5) = (-1)(-1), yet 2 is no square mod 15
    assert legendre(3, 9) == 0
    assert legendre(5, 21) == legendre(2, 3) * legendre(5, 7)


def _euler_legendre(a, p):
    """Euler's criterion, the power legendre once took: the reference."""
    if a == 0:
        return 0
    return -1 if pow(a, (p - 1) // 2, p) == p - 1 else 1


def _euler_nonresidue(p):
    return next(z for z in range(2, p) if _euler_legendre(z, p) == -1)


# the large_p grid of the benchmark (31, 61 and 80 bits, k = 1..4), then
# 786433 (k = 18), KoalaBear, BabyBear and Goldilocks
GRID_PRIMES = [
    2147483647, 2147483629, 2147483497, 2147483249,
    2305843009213693951, 2305843009213693693, 2305843009213693561, 2305843009213691569,
    1208925819614629174706111, 1208925819614629174704869,
    1208925819614629174704889, 1208925819614629174706033,
    786433, 2130706433, 2013265921, GOLDILOCKS,
]


def test_legendre_matches_euler_below_2000():
    for p in primes_in_range(3, 2000):
        assert [legendre(a, p) for a in range(p)] == [_euler_legendre(a, p) for a in range(p)], p


@pytest.mark.parametrize("p", GRID_PRIMES)
def test_legendre_matches_euler_at_grid_primes(p):
    rng = random.Random(p)
    for a in [rng.randrange(p) for _ in range(500)] + [1, 2, p - 1]:
        assert legendre(a, p) == _euler_legendre(a, p), a


@given(st.sampled_from(primes_in_range(3, 1 << 14) + GRID_PRIMES), st.data())
@settings(max_examples=200)
def test_legendre_is_multiplicative(p, data):
    a = data.draw(st.integers(min_value=0, max_value=p - 1))
    b = data.draw(st.integers(min_value=0, max_value=p - 1))
    assert legendre(a * b % p, p) == legendre(a, p) * legendre(b, p)


def test_context_nonresidue_matches_euler_scan():
    # every z in every document is the one the Euler scan picked
    for p in primes_in_range(3, 10_000) + GRID_PRIMES:
        assert make_context(p).z == _euler_nonresidue(p), p


@given(st.sampled_from(primes_in_range(3, 1 << 14)), st.data())
@settings(max_examples=60)
def test_legendre_matches_root_existence(p, data):
    a = data.draw(st.integers(min_value=1, max_value=p - 1))
    has_root = any(r * r % p == a for r in range(1, p))
    assert (legendre(a, p) == 1) == has_root


def test_half_of_nonzero_residues_are_squares():
    for p in primes_in_range(3, 300):
        squares = {r * r % p for r in range(1, p)}
        assert len(squares) == (p - 1) // 2
        assert sum(legendre(a, p) == 1 for a in range(1, p)) == (p - 1) // 2


@pytest.mark.parametrize("p,want", [(13, 2), (41, 3), (17, 3), (3, 2), (7, 3), (97, 5)])
def test_find_nonresidue(p, want):
    assert make_context(p).z == want


def test_find_nonresidue_is_smallest():
    for p in SMALL_PRIMES[:60]:
        z = make_context(p).z
        assert legendre(z, p) == -1
        assert all(legendre(w, p) == 1 for w in range(2, z))


@pytest.mark.parametrize("p,k,n,z", [(41, 3, 5, 3), (13, 2, 3, 2), (7, 1, 3, 3)])
def test_make_context_examples(p, k, n, z):
    ctx = make_context(p)
    assert (ctx.p, ctx.k, ctx.n, ctx.z) == (p, k, n, z)


def test_make_context_rejects_composite():
    with pytest.raises(ValueError, match="91 is not an odd prime"):
        make_context(91)


@pytest.mark.parametrize("p", [7, 2999, 18446744069414584321])
def test_make_context_tests_primality_once(monkeypatch, p):
    # the proof runs once, and no is_prime on the success path: trial
    # division at 7, the strong rounds to the tier's other bases at 2999
    # (k = 1, n = 1499 >= 2^k), Proth's certificate at Goldilocks
    # (n = 2^32 - 1 < 2^32), where no strong round runs
    primes, rounds = [], []
    strong_rounds = modarith._strong_rounds

    def counting_is_prime(m):
        primes.append(m)
        return is_prime(m)

    def counting_rounds(m, r, plan, bases):
        rounds.append((m, bases))
        return strong_rounds(m, r, plan, bases)

    monkeypatch.setattr(modarith, "is_prime", counting_is_prime)
    monkeypatch.setattr(modarith, "_strong_rounds", counting_rounds)
    assert make_context(p).p == p
    assert primes == []
    assert rounds == {7: [], 2999: [(2999, (2, 3))], GOLDILOCKS: []}[p]


# the smallest prime 2^k n + 1 (n odd) for k = 1, 8, 9, 16, 18 and 20, then
# KoalaBear, BabyBear and Goldilocks
PRIME_WITH_K = {
    1: 3, 8: 257, 9: 7681, 16: 65537, 18: 786433, 20: 7340033,
    24: 2130706433, 27: 2013265921, 32: GOLDILOCKS,
}


@pytest.mark.parametrize("k", PRIME_WITH_K)
def test_zn_pow_contract(k):
    p = PRIME_WITH_K[k]
    ctx = make_context(p)
    assert ctx.k == k
    rows = -(-k // 8)
    assert len(ctx.zn_rows) == rows
    assert sum(map(len, ctx.zn_rows)) <= rows * 256
    if k <= 8:  # the one row is every power
        assert ctx.zn_rows == (tuple(pow(ctx.z, j * ctx.n, p) for j in range(1 << k)),)
    for j in [0, 255, 256, 1 << (k - 1), (1 << k) - 1, (1 << k) + 3, -1]:
        assert ctx.zn_pow(j) == pow(ctx.z, j * ctx.n, p), j
    assert ctx.zn_pow(1 << (k - 1)) == p - 1
    c = MulCounter()
    # a zero digit is not skipped: the cost follows from k
    assert c.lookup(ctx, 0) == ctx.zn_pow(0) == 1
    assert c.lookup(ctx, -1) == ctx.zn_pow(-1)
    assert c.count == 2 * (rows - 1)
    if k <= 8:  # the class table: g^(-2j) -> g^j, None for the one class at k = 1
        assert ctx._log is None
        g = pow(ctx.z, ctx.n, p)
        assert ctx._classes == {
            pow(g, -2 * j, p): pow(g, j, p) if k > 1 else None for j in range(1 << (k - 1))
        }
        return
    assert ctx._classes is None
    w = min(8, k)  # the log table reads w bits: h^(-d) -> d, h = z^(2^(k-w) n)
    h = pow(ctx.z, ctx.n << (k - w), p)
    assert ctx._log == {pow(h, -d, p): d for d in range(1 << w)}


@st.composite
def prime_with_k(draw):
    """A prime 2^k n + 1 with n odd: the first at or above a drawn odd n."""
    k = draw(st.integers(min_value=1, max_value=64))
    n = draw(st.integers(min_value=0, max_value=1 << 12)) * 2 + 1
    return primes_with_k(k, 1, n)[0]


@given(prime_with_k(), st.integers(min_value=-(1 << 70), max_value=1 << 70))
@settings(max_examples=60, deadline=None)
def test_zn_pow_matches_pow(p, j):
    ctx = make_context(p)
    assert ctx.zn_pow(j) == pow(ctx.z, j * ctx.n, p)


@pytest.mark.parametrize("p", [7, 786433, 2013265921, GOLDILOCKS])
def test_make_context_rejects_a_residue_as_z(monkeypatch, p):
    # 4 is a residue mod every odd prime: the rows' z^(2^(k-1) n) is then
    # 1, not -1, and the PrimeContext that make_context builds must refuse
    # it, for every k
    monkeypatch.setattr(modarith, "_smallest_nonresidue", lambda p: 4)
    with pytest.raises(ArithmeticError, match=f"p={p}"):
        make_context(p)


def test_z_power_engine_identities():
    # the two facts every bracket identity rests on
    for p in SMALL_PRIMES:
        ctx = make_context(p)
        assert pow(ctx.z, (1 << (ctx.k - 1)) * ctx.n, p) == p - 1
        assert pow(ctx.z, (1 << ctx.k) * ctx.n, p) == 1


def test_primes_in_range():
    assert primes_in_range(3, 20) == [3, 5, 7, 11, 13, 17, 19]
    assert primes_in_range(10, 10) == []
    assert primes_in_range(20, 3) == []
    naive = [m for m in range(2, 500) if sieve_is_prime(m)]
    assert primes_in_range(2, 499) == naive
