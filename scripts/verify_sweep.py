#!/usr/bin/env python3
"""Exhaustive correctness sweep with a per-class summary.

Usage: python scripts/verify_sweep.py --pmax 10000 --method auto
"""

import argparse
import time
from collections import Counter

from sqrtmodp.cli import METHODS, run_verification


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pmin", type=int, default=3)
    ap.add_argument("--pmax", type=int, default=10_000)
    ap.add_argument("--method", choices=METHODS, default="auto")
    args = ap.parse_args()

    t0 = time.perf_counter()
    rep = run_verification(args.pmin, args.pmax, args.method)
    dt = time.perf_counter() - t0
    primes_by_k = Counter(pc.k for pc in rep.primes)
    residues_by_k = Counter()
    for pc in rep.primes:
        residues_by_k[pc.k] += pc.residues_checked

    print(f"method={args.method} range=[{args.pmin}, {args.pmax}]")
    print(f"{'k':>3} {'primes':>8} {'residues':>10}")
    for k in sorted(primes_by_k):
        print(f"{k:>3} {primes_by_k[k]:>8} {residues_by_k[k]:>10}")
    print(
        f"total: {len(rep.primes)} primes, {rep.total_residues} residues, "
        f"{'PASS' if rep.passed else 'FAIL'} in {dt:.1f}s "
        f"({rep.total_residues / dt if dt else 0.0:,.0f} residues/s)"
    )
    raise SystemExit(0 if rep.passed else 1)


if __name__ == "__main__":
    main()
