"""make_context's proof and is_prime, held to the prefix Miller-Rabin test
the package once had (formula_reference.prefix_is_prime).

make_context must accept exactly the primes and refuse every composite as
"{m} is not an odd prime": every odd m below 2^20, seeded m of each bit
length 21..81, Proth-shaped m = n 2^k + 1 with n < 2^k among them, and the
composites that each step of the proof exists for.
"""

import random

import pytest

from sqrtmodp import modarith
from sqrtmodp.modarith import _power_plan, is_prime, make_context

from formula_reference import prefix_is_prime, search_power_plan

GOLDILOCKS = (1 << 64) - (1 << 32) + 1


def context_or_error(m):
    try:
        return make_context(m)
    except ValueError as exc:
        return str(exc)


def assert_proof(m):
    """is_prime and make_context agree with the reference at odd m >= 3."""
    prime = prefix_is_prime(m)
    assert is_prime(m) is prime, m
    out = context_or_error(m)
    if prime:
        assert out.p == m and (out.n << out.k) + 1 == m and out.n & 1, m
    else:
        assert out == f"{m} is not an odd prime"
    return prime


def test_every_odd_m_below_2_20():
    primes = sum(assert_proof(m) for m in range(3, 1 << 20, 2))
    assert primes == 82024  # pi(2^20) less the prime 2


def seeded(bits, count=60):
    """count odd m of the given bit length, count Proth-shaped ones
    n 2^k + 1 with n odd and n < 2^k, and the first prime of each shape
    from a seeded start, found by the reference."""
    rng = random.Random(bits)
    ms = [rng.randrange(1 << (bits - 1), 1 << bits) | 1 for _ in range(count)]
    for _ in range(count):
        k = rng.randrange((bits + 1) // 2, bits)
        ms.append((rng.randrange(1 << (bits - k - 1), 1 << (bits - k)) | 1) << k | 1)
    m = rng.randrange(1 << (bits - 1), 1 << bits) | 1
    while not prefix_is_prime(m):
        m += 2
    k = (bits + 1) // 2
    n = 1 << (bits - k - 1) | 1
    while not prefix_is_prime((n << k) + 1):
        n += 2
    return ms + [m, (n << k) + 1]


@pytest.mark.parametrize("bits", range(21, 82))
def test_seeded_m_of_each_bit_length(bits):
    ms = seeded(bits)
    assert all(m.bit_length() == bits for m in ms)
    assert sum(map(assert_proof, ms)) >= 2


# The composites each step of the proof exists for: the strong pseudoprimes
# that end the tiers, old and new; the Fermat composites 2^32 + 1 and
# 2^64 + 1, Proth-shaped (k = 32, n = 1 and k = 64, n = 1) with no factor
# <= 41; and squares, (2^40 + 1)^2 among them, Proth-shaped with no factor
# <= 41 and no Jacobi symbol -1.
COMPOSITES = [
    2047, 1373653, 25326001, 3215031751, 4759123141, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    4294967297, 18446744073709551617,
    25, 49, 1208925819616828197961729,
]


@pytest.mark.parametrize("m", COMPOSITES)
def test_named_composites_are_not_odd_primes(m):
    assert not prefix_is_prime(m)
    assert not is_prime(m)
    with pytest.raises(ValueError, match=f"^{m} is not an odd prime$"):
        make_context(m)


@pytest.mark.parametrize("root", [43, 1000003, (1 << 31) - 1, (1 << 40) + 1])
def test_a_square_is_refused_before_the_search(monkeypatch, root):
    # a square has no Jacobi symbol -1, so the search would run to its cap
    monkeypatch.setattr(modarith, "_smallest_nonresidue", lambda p: pytest.fail(f"searched {p}"))
    with pytest.raises(ValueError, match=f"^{root * root} is not an odd prime$"):
        make_context(root * root)


@pytest.mark.parametrize("p", [7, 786433, 2013265921, GOLDILOCKS, 2305843009213693561])
def test_no_nonresidue_below_the_cap_stands_at_a_prime(monkeypatch, p):
    # at a prime the search's own error stands: p is prime, z was not found
    monkeypatch.setattr(modarith, "_Z_CAP", 3)
    with pytest.raises(ArithmeticError, match=f"no nonresidue below 3 mod p={p}"):
        make_context(p)


@pytest.mark.parametrize("m", [4294967297, 18446744073709551617, 3215031751, 4759123141])
def test_no_nonresidue_below_the_cap_at_a_composite(monkeypatch, m):
    monkeypatch.setattr(modarith, "_Z_CAP", 3)
    with pytest.raises(ValueError, match=f"^{m} is not an odd prime$"):
        make_context(m)


def test_power_plan_returns_cheap_powers_at_once():
    # no chain saves 12 products where the power costs fewer: the early
    # return plans what the full search plans
    assert all(_power_plan(e) == search_power_plan(e) for e in range(1 << 16))
    for e in [(1 << 30) - 1, (1 << 60) - 3, (GOLDILOCKS - 1) >> 33, 2305843009213693561 >> 4]:
        assert _power_plan(e) == search_power_plan(e), e
    # 2^18 - 1 costs 34 products by square-and-multiply and 22 by its chain:
    # it saves exactly 12, so the chain is taken
    e = (1 << 18) - 1
    assert _power_plan(e) == search_power_plan(e) == (3, ((5, 0), ((34, 1), ((513, 0), ()))))
