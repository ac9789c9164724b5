"""Per-layer metrics, from spans recorded around calls into each layer.

Every traced run gives the same set of metrics, whichever workload it was
for: each layer is timed on the inputs of the workload it shows on (the
README maps each metric to the end-to-end metric it should move).  Times
are scaled for machine speed by ``REF_S`` over the median of references
taken between the probes.
"""

import random
import statistics
import tracemalloc

from refclock import REF_S, Meter, reference
from workloads import HighK, LargeP, Reports, Sweep

__all__ = ["layer_metrics"]

CALLS_PER_PRIME = 16


def _mean_ns(tracer, name, lo, hi=None) -> float:
    spans = tracer.select(name, lo, hi)
    return statistics.fmean(tracer.duration_ns(i) for i in spans) if spans else 0.0


def _large_p(tracer, pkg, rng, out, refs):
    """Screen, powers and whole calls on the large_p grid, per prime."""
    ma, fo = pkg.modarith, pkg.formulas
    brackets, screens, powers = [], [], []
    for p in LargeP.PRIMES:
        ctx = ma.make_context(p)
        k, n = ctx.k, ctx.n
        inputs = [r * r % p for r in (rng.randrange(1, p) for _ in range(CALLS_PER_PRIME))]
        mark = len(tracer)
        for a in inputs:
            ma.legendre(a, p)
        screen = _mean_ns(tracer, "modarith.legendre", mark)
        mark = len(tracer)
        for a in inputs:
            ma.mod_pow(a, (n + 1) // 2, p)
            ma.mod_pow(a, n, p)
        power = _mean_ns(tracer, "modarith.mod_pow", mark)
        mark = len(tracer)
        counts = {fo.sqrt_auto(ctx, a).mul_count for a in inputs}
        call = _mean_ns(tracer, "formulas.sqrt_auto", mark)
        tag = f"k{k}_{p.bit_length()}"
        out[f"formulas.sqrt_auto_us.{tag}"] = (call / 1e3, "us")
        out[f"formulas.mul_count.{tag}"] = (max(counts), "count")
        # f1 computes only a^((n+1)/2); f2..f4 also a^n.
        brackets.append(call - screen - power * (1 if k == 1 else 2))
        screens.append(screen)
        powers.append(power)
        refs.append(reference())
    out["formulas.bracket_us"] = (statistics.fmean(brackets) / 1e3, "us")
    out["modarith.legendre_us"] = (statistics.fmean(screens) / 1e3, "us")
    out["modarith.mod_pow_us"] = (statistics.fmean(powers) / 1e3, "us")


def _high_k(tracer, pkg, rng, out, refs):
    """Formula build, its size at k = 16, and sqrt_synth per k."""
    sy, fo, ma = pkg.synthesis, pkg.formulas, pkg.modarith
    for k, p in HighK.PRIMES.items():
        mark = len(tracer)
        sy.synthesize(k)
        out[f"synthesis.synthesize_ms.k{k}"] = (_mean_ns(tracer, "synthesis.synthesize", mark) / 1e6, "ms")
        ctx = ma.make_context(p)
        fo.sqrt_auto(ctx, 4)  # builds the cached formula
        mark = len(tracer)
        counts = [
            fo.sqrt_auto(ctx, r * r % p).mul_count
            for r in (rng.randrange(1, p) for _ in range(max(1, HighK.CALLS[k] // 64)))
        ]
        out[f"synthesis.sqrt_synth_us.k{k}"] = (_mean_ns(tracer, "synthesis.sqrt_synth", mark) / 1e3, "us")
        out[f"synthesis.mul_count_min.k{k}"] = (min(counts), "count")
        out[f"synthesis.mul_count_max.k{k}"] = (max(counts), "count")
        refs.append(reference())
    for p in HighK.BEYOND_MAX_K:
        ma.make_context(p)
    tracemalloc.start()
    try:
        f = sy.synthesize(16)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del f
    out["synthesis.formula_mb.k16"] = (size / 2**20, "MB")


def _sweep(tracer, pkg, seed, out, refs):
    wl = Sweep(seed)
    wl.setup(pkg)
    mark = len(tracer)
    wl.round(Meter())
    refs.append(reference())
    own = tracer.self_ns(mark)
    runs = tracer.select("cli.run_verification", mark)
    out["cli.run_verification_self_s"] = (sum(own[i] for i in runs) / 1e9, "s")
    out["oracles.brute_root_table_ms"] = (_mean_ns(tracer, "oracles.brute_root_table", mark) / 1e6, "ms")


def _reports(tracer, pkg, seed, out, refs):
    wl = Reports(seed)
    wl.setup(pkg)
    mark = len(tracer)
    wl.round(Meter())
    refs.append(reference())
    own = tracer.self_ns(mark)
    by_cmd: dict[str, list[int]] = {}
    mains = [i for i in tracer.select("cli.main", mark) if tracer.parent[i] < mark]
    for (argv, _), i in zip(wl.commands, mains, strict=True):
        by_cmd.setdefault(argv[0], []).append(own[i])
    for cmd, vals in by_cmd.items():
        out[f"cli.main_self_us.{cmd}"] = (statistics.fmean(vals) / 1e3, "us")
    out["cli.report_bytes"] = (wl.round_bytes, "bytes")
    out["synthesis.expand_ms"] = (_mean_ns(tracer, "synthesis.expand", mark) / 1e6, "ms")
    render = tracer.select("synthesis.render_text", mark) + tracer.select("synthesis.render_math", mark)
    out["synthesis.render_ms"] = (statistics.fmean(tracer.duration_ns(i) for i in render) / 1e6, "ms")
    out["analysis.order_census_ms"] = (_mean_ns(tracer, "analysis.order_census", mark) / 1e6, "ms")


def _oracles(tracer, pkg, rng, out, refs):
    """tonelli and direct on the prime the reports workload benches."""
    p = Reports.BENCH_P
    ctx = pkg.modarith.make_context(p)
    inputs = [r * r % p for r in (rng.randrange(1, p) for _ in range(CALLS_PER_PRIME))]
    for name, fn in (("tonelli", "tonelli_shanks"), ("direct", "direct_sqrt")):
        mark = len(tracer)
        counts = [getattr(pkg.oracles, fn)(ctx, a).mul_count for a in inputs]
        out[f"oracles.{name}_us"] = (_mean_ns(tracer, f"oracles.{fn}", mark) / 1e3, "us")
        out[f"oracles.{name}_mul_count"] = (statistics.fmean(counts), "count")
    refs.append(reference())


def layer_metrics(tracer, pkg, seed: int) -> dict:
    """Run every probe with ``tracer`` installed on ``pkg``; returns
    ``{name: (value, unit)}``."""
    rng = random.Random(seed)
    out, refs = {}, []
    lo = len(tracer)
    _large_p(tracer, pkg, rng, out, refs)
    _high_k(tracer, pkg, rng, out, refs)
    # The contexts of the large_p and high_k primes, built by the two probes.
    out["modarith.make_context_us"] = (_mean_ns(tracer, "modarith.make_context", lo) / 1e3, "us")
    _oracles(tracer, pkg, rng, out, refs)
    _sweep(tracer, pkg, seed, out, refs)
    _reports(tracer, pkg, seed, out, refs)
    factor = REF_S / statistics.median(refs)
    for name, (value, unit) in out.items():
        if unit in ("us", "ms", "s"):
            out[name] = (value * factor, unit)
    return out
