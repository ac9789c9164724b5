#!/usr/bin/env python3
"""Mean modular-multiplication counts per method over a few primes.

The class-formula evaluator reads every window of the class index, whatever
its digits, so its count is constant per prime (min = max), while the
iterative baseline's count depends on the residue's class index.

Usage: python scripts/bench_table.py --primes 17,41,113,449 --trials 64
"""

import argparse

from sqrtmodp.cli import run_bench


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", default="17,41,113,449,3329")
    ap.add_argument("--trials", type=int, default=64)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print(f"{'p':>8} {'method':>9} {'mean':>9} {'min':>6} {'max':>6}  shape")
    for p in (int(s) for s in args.primes.split(",")):
        doc = run_bench(p, args.trials, None, args.seed)
        for r in doc["records"]:
            shape = "constant" if r["constant_across_inputs"] else "varies"
            print(
                f"{p:>8} {r['method']:>9} {r['mean_mults']:>9.2f} "
                f"{r['min_mults']:>6} {r['max_mults']:>6}  {shape}"
            )


if __name__ == "__main__":
    main()
