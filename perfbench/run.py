#!/usr/bin/env python3
"""Benchmark of sqrtmodp: one workload per process, one thread.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from a separate traced pass) with ``--trace 1``.  See
README.md in this directory for the workloads and metrics.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# The standard modules the package imports are loaded here, before any timed
# set-up, so that every set-up repetition pays the same import cost.
import dataclasses  # noqa: F401
import fractions  # noqa: F401
import functools  # noqa: F401

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import CheckFailed  # noqa: E402
from refclock import REF_S, Meter, reference  # noqa: E402
from workloads import WORKLOADS, load_package  # noqa: E402


def percentile(sorted_values, q: float, half_width: float = 0.005) -> float:
    """The q-quantile of an ascending sequence, as the mean of the values
    ranked within ``half_width`` of it.  Each workload mixes inputs whose
    costs differ by a fixed factor in fixed proportions; averaging over one
    percentile point keeps the figure from jumping across the gap when a
    quantile falls near a boundary between two such classes."""
    n = len(sorted_values)
    lo = int((q - half_width) * (n - 1))
    hi = max(lo + 1, round((q + half_width) * (n - 1)) + 1)
    return statistics.fmean(sorted_values[lo:hi])


def timed_setup(wl) -> float:
    """One set-up from a fresh import, scaled for machine speed by the mean
    of a reference taken just before and just after it."""
    before = reference(wl.reference)
    t0 = time.perf_counter()
    wl.setup(load_package())
    dt = time.perf_counter() - t0
    return dt * REF_S / ((before + reference(wl.reference)) / 2)


def run_rounds(wl, meter, seconds: float, rounds: int | None = None):
    """Whole rounds until ``seconds`` have passed (or exactly ``rounds``)."""
    attempted = failed = done = 0
    t_end = time.perf_counter() + seconds
    while True:
        a, f = wl.round(meter)
        attempted, failed, done = attempted + a, failed + f, done + 1
        if done == rounds or rounds is None and time.perf_counter() >= t_end:
            return attempted, failed, done


def end_to_end(cls, seed: int, seconds: float):
    setups, wl = [], None
    for _ in range(cls.setup_reps):
        wl = None  # drop the previous set-up's modules and caches first
        gc.collect()
        wl = cls(seed)
        setups.append(timed_setup(wl))
    meter = Meter(wl.reference)
    attempted, failed, rounds = run_rounds(wl, meter, seconds)
    # Read before sorting the per-op times, whose size depends on the run.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = sorted(meter.op_s)
    print(f"raw ops/s {(attempted - failed) / meter.raw_s:.1f}, median reference "
          f"{statistics.median(meter.ref_s) * 1e3:.4f} ms, {rounds} rounds", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((attempted - failed) / rounds / meter.round_s(), "1/s"),
        "op_us_p50": (percentile(ops, 0.50) * 1e6, "us"),
        "op_us_p99": (percentile(ops, 0.99) * 1e6, "us"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return attempted, failed, metrics


def traced(cls, seed: int, seconds: float):
    from layers import layer_metrics
    from spans import Tracer

    wl = cls(seed)
    wl.setup(load_package())
    plain = Meter(wl.reference)
    attempted, failed, rounds = run_rounds(wl, plain, seconds / 4)
    tracer = Tracer()
    tracer.install({m: getattr(wl.pkg, m) for m in vars(wl.pkg)})
    try:
        with_spans = Meter(wl.reference)
        with tracer.span(f"{wl.name}.rounds"):
            a, f, _ = run_rounds(wl, with_spans, 0, rounds)
        metrics = layer_metrics(tracer, wl.pkg, seed)
    finally:
        tracer.uninstall()
    metrics["trace.overhead_pct"] = (
        (with_spans.corrected_s / plain.corrected_s - 1) * 100, "%")
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{wl.name}.jsonl.gz")
    return attempted + a, failed + f, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    run = traced if args.trace else end_to_end
    try:
        attempted, failed, metrics = run(WORKLOADS[args.workload], args.seed, args.seconds)
    except CheckFailed as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
