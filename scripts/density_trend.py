#!/usr/bin/env python3
"""Trend table: with k fixed and n growing, the share of residues whose root
needs no full-order multiplier climbs toward 1 (it equals 1 - 1/(2n)).

Usage: python scripts/density_trend.py --k 3 --pmax 4000
"""

import argparse
from fractions import Fraction

from sqrtmodp.analysis import order_census
from sqrtmodp.modarith import make_context, primes_in_range


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--pmax", type=int, default=4000)
    args = ap.parse_args()

    rows = []
    for p in primes_in_range(3, args.pmax):
        ctx = make_context(p)
        if ctx.k == args.k:
            rows.append((ctx.n, p, order_census(ctx)))
    rows.sort()

    print(f"primes with k = {args.k}, p <= {args.pmax}")
    print(f"{'p':>8} {'n':>6} {'odd-order':>12} {'exact 2^(k-1)':>14} {'coverage':>12}")
    for n, p, doc in rows:
        exact = doc["exact_2k1_fraction"]
        cov = 1 - Fraction(exact)
        print(
            f"{p:>8} {n:>6} {doc['odd_order_fraction']:>12} "
            f"{exact:>14} {str(cov):>12}  (~{float(cov):.4f})"
        )


if __name__ == "__main__":
    main()
