"""Prime contexts and the modular arithmetic primitives everything else consumes.

Every prime handled by this package has the shape p = 2^k * n + 1 with n odd.
A PrimeContext bundles that decomposition with a deterministic quadratic
nonresidue z and the powers z^(j*n) (a table for k <= 20), which drive all
the square-root machinery in the other modules.
"""

from dataclasses import dataclass, field

__all__ = [
    "MulCounter",
    "PrimeContext",
    "decompose",
    "find_nonresidue",
    "is_prime",
    "legendre",
    "make_context",
    "mod_pow",
    "primes_in_range",
]

# Witness set proven deterministic for every m below this bound (covers 64 bits).
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Above this k no z^(j*n) table (2^k entries) is kept and each power is a full
# pow; KoalaBear (k = 24), BabyBear (k = 27) and Goldilocks (k = 32) are above.
_TABLE_K_CAP = 20


def _pow_cost(e: int) -> int:
    """Cost of x^e by square-and-multiply: floor(log2 e) + popcount(e) - 1."""
    return e.bit_length() + e.bit_count() - 2 if e > 0 else 0


class MulCounter:
    """Tallies modular multiplications; squarings count as multiplications.

    Powers are charged _pow_cost.  tonelli, direct and evaluate tally live;
    the class formula's count is the paper's cost, from (n, k) alone.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def mul(self, x: int, y: int, p: int) -> int:
        self.count += 1
        return x * y % p


def mod_pow(base: int, exp: int, p: int, counter: MulCounter | None = None) -> int:
    """base**exp mod p, with exp = 0 giving 1 (including 0**0)."""
    if counter is not None:
        counter.count += _pow_cost(exp)
    return pow(base, exp, p)


def is_prime(m: int) -> bool:
    """Deterministic primality test, exact for all m below ~3.3e24."""
    if m >= _MR_BOUND:
        raise ValueError(f"p={m} is not below the primality bound {_MR_BOUND}")
    if m < 2:
        return False
    for q in _MR_WITNESSES:
        if m == q:
            return True
        if m % q == 0:
            return False
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def decompose(p: int) -> tuple[int, int]:
    """Split p - 1 = 2^k * n with n odd; p must be an odd prime >= 3."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    n, k = p - 1, 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k, n


def legendre(a: int, p: int) -> int:
    """Euler-criterion symbol: 0 for a = 0, +1 for residues, -1 for nonresidues."""
    if not 0 <= a < p:
        raise ValueError(f"residue {a} out of range for modulus {p}")
    if a == 0:
        return 0
    return -1 if pow(a, (p - 1) // 2, p) == p - 1 else 1


def _smallest_nonresidue(p: int) -> int:
    """Smallest z >= 2 with legendre(z, p) = -1, for a p already validated."""
    for z in range(2, p):
        if legendre(z, p) == -1:
            return z
    raise ArithmeticError(f"no nonresidue below {p}")  # unreachable for odd primes


def find_nonresidue(p: int) -> int:
    """Smallest z >= 2 with legendre(z, p) = -1; deterministic by construction."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return _smallest_nonresidue(p)


@dataclass(frozen=True)
class PrimeContext:
    """A validated odd prime p = 2^k * n + 1 (n odd) with nonresidue z.

    For k <= _TABLE_K_CAP, zn_pows[j] = z^(j*n) mod p for j in [0, 2^k);
    above it zn_pows is None and zn_pow computes each power.  z^n generates
    the 2-part of the multiplicative group: period 2^k, z^(2^(k-1) n) = -1.
    Instances are immutable and safe to share across workers.
    """

    p: int
    k: int
    n: int
    z: int
    zn_pows: tuple[int, ...] | None = field(default=None, repr=False)

    def zn_pow(self, j: int) -> int:
        """z^(j*n) mod p; j is reduced mod 2^k, the order of z^n."""
        j &= (1 << self.k) - 1
        if self.zn_pows is not None:
            return self.zn_pows[j]
        return pow(self.z, j * self.n, self.p)

    def half_pow(self, m: int, counter: MulCounter | None = None) -> int:
        """(2^-1)^m mod p, the scale in front of every bracket of terms."""
        return mod_pow((self.p + 1) // 2, m, self.p, counter)


def make_context(p: int) -> PrimeContext:
    """Validate p, decompose p - 1, pick z, and tabulate z^(j*n) if k <= 20.

    decompose runs the one primality test; the nonresidue search relies on it.
    """
    k, n = decompose(p)
    z = _smallest_nonresidue(p)
    table = None
    if k <= _TABLE_K_CAP:
        w = pow(z, n, p)
        pows = [1] * (1 << k)
        for j in range(1, 1 << k):
            pows[j] = pows[j - 1] * w % p
        if pows[1 << (k - 1)] != p - 1:
            raise ArithmeticError(f"power table inconsistent for p={p}")
        table = tuple(pows)
    return PrimeContext(p, k, n, z, table)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, by sieve; intended for desk-scale sweeps."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]
