"""Exact order-class statistics over the quadratic residues of one prime.

Every count is derived from (k, n), not enumerated.  The residues form a
cyclic group of order 2^(k-1) n, and a -> a^n maps it onto the subgroup of
order 2^(k-1) that class indices t label, with a kernel of n elements: each
class holds exactly n residues, class 0 is the odd-order residues, and
phi(2^(k-1)) = 2^(k-2) residues have order exactly 2^(k-1) (one, the
residue 1, at k = 1).  So the odd-order share is 1/2^(k-1) and, for k >= 2,
the share of residues of order exactly 2^(k-1) is 1/(2n); each share is
written as an exact rational "a/b" in lowest terms, "1" when whole.  The
tests enumerate the residues and check these counts.  Since every class
holds n residues, the histogram over multiplier exponents e = -t mod 2^(k-1)
equals the class histogram, and the census's shares are the predicted laws
themselves: the density document writes each under its measured and its
predicted key.
"""

from math import gcd

from .modarith import PrimeContext

__all__ = [
    "DENSITY_MAX_K",
    "order_census",
]

# The histograms hold 2^(k-1) entries each; 18 admits every prime below 2^22.
DENSITY_MAX_K = 18


def _share(count: int, total: int) -> str:
    # count/total in lowest terms, as str(Fraction) writes it
    d = gcd(count, total)
    return str(count // d) if d == total else f"{count // d}/{total // d}"


def order_census(ctx: PrimeContext) -> dict:
    """The density document: exact per-class counts over all residues,
    derived from (k, n).

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
    odd_share, exact_share = _share(n, qr), _share(exact, qr)
    hist = [n] * half
    return {
        "kind": "density_report",
        "p": p,
        "k": k,
        "n": n,
        "qr_count": qr,
        "odd_order_count": n,
        "odd_order_fraction": odd_share,
        "predicted_odd_order_fraction": odd_share,
        "exact_2k1_order_count": exact,
        "exact_2k1_fraction": exact_share,
        "predicted_exact_2k1_fraction": exact_share if k >= 2 else None,
        "class_histogram": hist,
        "multiplier_histogram": hist,
    }
