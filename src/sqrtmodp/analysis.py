"""Exact order-class statistics over the quadratic residues of one prime.

Every count is derived from (k, n), not enumerated.  The residues form a
cyclic group of order 2^(k-1) n, and a -> a^n maps it onto the subgroup of
order 2^(k-1) that class indices t label, with a kernel of n elements: each
class holds exactly n residues, class 0 is the odd-order residues, and
phi(2^(k-1)) = 2^(k-2) residues have order exactly 2^(k-1) (one, the
residue 1, at k = 1).  So the odd-order share is 1/2^(k-1) and, for k >= 2,
the share of residues of order exactly 2^(k-1) is 1/(2n); the fractions are
exact rationals.  The tests enumerate the residues and check these counts.
Since every class holds n residues, the histogram over multiplier exponents
e = -t mod 2^(k-1) equals the class histogram, and the census's fractions
are the predicted laws themselves: the density document writes each under
its measured and its predicted key.
"""

from fractions import Fraction
from typing import NamedTuple

from .modarith import PrimeContext

__all__ = [
    "DENSITY_MAX_K",
    "DensityReport",
    "order_census",
]

# The histograms hold 2^(k-1) entries each; 18 admits every prime below 2^22.
DENSITY_MAX_K = 18


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


def order_census(ctx: PrimeContext) -> DensityReport:
    """Exact per-class counts over all residues, derived from (k, n).

    Each of the 2^(k-1) classes holds n residues, n have odd order and
    2^(k-2) (1 at k = 1) have order exactly 2^(k-1); see the module
    docstring.  Refuses k > DENSITY_MAX_K, where the histograms grow too
    large to print.
    """
    p, k, n = ctx.p, ctx.k, ctx.n
    if k > DENSITY_MAX_K:
        raise ValueError(f"density supports k<={DENSITY_MAX_K} (DENSITY_MAX_K); p={p} has k={k}")
    half = 1 << (k - 1)
    qr = (p - 1) // 2
    exact = half // 2 or 1  # 2^(k-2); at k = 1, the residue 1 alone
    return DensityReport(
        p, k, n, qr, n, exact, (n,) * half, Fraction(n, qr), Fraction(exact, qr)
    )

