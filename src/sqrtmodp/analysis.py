"""Exact order-class statistics over the quadratic residues of one prime.

All fractions are exact rationals so the counting laws can be asserted as
equalities: the odd-order share is 1/2^(k-1) and, for k >= 2, the share of
residues of order exactly 2^(k-1) is 1/(2n).
"""

from fractions import Fraction
from typing import NamedTuple

from .modarith import PrimeContext

__all__ = [
    "CENSUS_LIMIT",
    "DensityReport",
    "multiplier_coverage",
    "multiplier_histogram",
    "order_census",
]

CENSUS_LIMIT = 1 << 22


class DensityReport(NamedTuple):
    """Counts of quadratic residues by class index and by order behaviour."""

    p: int
    k: int
    n: int
    qr_count: int
    odd_order_count: int
    exact_2k1_order_count: int
    class_histogram: tuple[int, ...]
    odd_order_fraction: Fraction
    exact_2k1_fraction: Fraction


def _odd_prime_factors(n: int) -> list[int]:
    """The distinct prime factors of odd n, by trial division."""
    out, q = [], 3
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 2
    if n > 1:
        out.append(n)
    return out


def _residue_generator(ctx: PrimeContext) -> int:
    """gamma = c^2 for the smallest c >= 2 whose square has order (p-1)/2.

    The order is tested against the prime factors q of 2^(k-1) n: gamma
    generates the residues iff gamma^((p-1)/(2q)) != 1 for each of them.
    """
    p, k, n = ctx.p, ctx.k, ctx.n
    m = (p - 1) // 2
    primes = ([2] if k >= 2 else []) + _odd_prime_factors(n)
    for c in range(2, p):
        gamma = c * c % p
        if all(pow(gamma, m // q, p) != 1 for q in primes):
            return gamma
    raise ArithmeticError(f"no generator of the residues mod p={p}")  # p prime: unreachable


def order_census(ctx: PrimeContext) -> DensityReport:
    """Exact per-class counts over all residues, by full enumeration.

    Residues are enumerated as the powers gamma^i, i < (p-1)/2, of one
    generator gamma of the residue group, hitting each exactly once; finding
    gamma takes the odd prime factors of n, by trial division (n < 2^21
    under CENSUS_LIMIT).  A residue has odd order iff a^n = 1 (class 0), and
    order exactly 2^(k-1) iff a^(2^(k-2)) = -1 (k >= 2) or a = 1 (k = 1).
    Both powers advance by one product per step, as powers of gamma^n and
    gamma^(2^(k-2)), and both walks must end back at 1.
    """
    p, k, n = ctx.p, ctx.k, ctx.n
    if p > CENSUS_LIMIT:
        raise ValueError(f"order_census supports p<={CENSUS_LIMIT} (CENSUS_LIMIT), got p={p}")
    half = 1 << (k - 1)
    class_of = {ctx.zn_pow(2 * t): t for t in range(half)}
    hist = [0] * half
    gamma = _residue_generator(ctx)
    step_n = pow(gamma, n, p)
    step_e, target = (pow(gamma, 1 << (k - 2), p), p - 1) if k >= 2 else (gamma, 1)
    an = ae = 1
    exact = 0
    qr = (p - 1) // 2
    for _ in range(qr):
        hist[class_of[an]] += 1
        if ae == target:
            exact += 1
        an = an * step_n % p
        ae = ae * step_e % p
    if an != 1 or ae != 1:
        raise ArithmeticError(f"residue walk did not close for p={p}")
    return DensityReport(
        p,
        k,
        n,
        qr,
        hist[0],
        exact,
        tuple(hist),
        Fraction(hist[0], qr),
        Fraction(exact, qr),
    )


def multiplier_histogram(report: DensityReport) -> tuple[int, ...]:
    """Histogram over multiplier exponents e = -t mod 2^(k-1), one bucket per e:
    how many residues take z^(en) in their root a^((n+1)/2) z^(en).  Bucket
    e = 0 is exactly the odd-order class."""
    hist = report.class_histogram
    half = len(hist)
    return tuple(hist[(-e) % half] for e in range(half))


def multiplier_coverage(report: DensityReport) -> Fraction:
    """Share of residues whose order is not the full 2-power 2^(k-1).

    Equals 1 - 1/(2n) for k >= 2, so it climbs toward 1 as n grows with k
    fixed; reported as a trend, never asserted as a limit.
    """
    return 1 - report.exact_2k1_fraction
