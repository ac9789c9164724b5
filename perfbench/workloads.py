"""The four workloads: inputs made from the seed, whole rounds of operations,
and a check of every output.

Each workload has ``setup(pkg)`` (contexts, inputs, warm-up) and
``round(meter)``, which runs one round of operations as timed batches and
returns ``(attempted, failed)``.  Every round attempts the same operations,
so the failed share is the same in every run.  Functions are looked up on the
package modules at call time, so a tracer installed on them sees the calls.
"""

import contextlib
import importlib
import io
import json
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks

__all__ = ["LAYERS", "WORKLOADS", "load_package"]

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("modarith", "formulas", "synthesis", "oracles", "analysis", "cli")


def load_package() -> SimpleNamespace:
    """Import the package afresh from the checkout's ``src``; an import left
    over from an earlier set-up is dropped first."""
    for name in [m for m in sys.modules if m == "sqrtmodp" or m.startswith("sqrtmodp.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("sqrtmodp")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"sqrtmodp imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"sqrtmodp.{m}") for m in LAYERS})


def _timed_calls(fn, jobs):
    """Call ``fn(ctx, a)`` for each job, timing each call; returns the
    outcomes (or the ValueError raised) and the per-call seconds."""
    outs, times = [], []
    pc = time.perf_counter
    for ctx, a in jobs:
        t = pc()
        try:
            out = fn(ctx, a)
        except ValueError as exc:
            out = exc
        times.append(pc() - t)
        outs.append(out)
    return outs, times


class LargeP:
    """``sqrt_auto`` on 31-, 61- and 80-bit primes with k = 1..4.

    The three full-size powers dominate each call.  Each batch is two passes
    over the grid; a pass gives 7 calls to each 61- and 80-bit prime with
    k >= 2 and 3 to every other prime.  That puts the median call inside the
    band of three-power calls (94-105 us raw on a 2-vCPU Xeon VM) instead of
    on the gap between that band and the cheap 31-bit and k = 1 calls.
    """

    name = "large_p"
    setup_reps = 11
    reference = "pow"
    PRIMES = (
        2147483647, 2147483629, 2147483497, 2147483249,
        2305843009213693951, 2305843009213693693, 2305843009213693561, 2305843009213691569,
        1208925819614629174706111, 1208925819614629174704869,
        1208925819614629174704889, 1208925819614629174706033,
    )
    POOL = 64  # seeded roots per prime, reused cyclically
    PASSES = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.weights = [
            3 if p.bit_length() == 31 or checks.decompose(p)[0] == 1 else 7
            for p in self.PRIMES
        ]

    def setup(self, pkg) -> None:
        self.pkg = pkg
        self.ctxs = [pkg.modarith.make_context(p) for p in self.PRIMES]
        rng = random.Random(self.seed)
        self.roots = [[rng.randrange(1, p) for _ in range(self.POOL)] for p in self.PRIMES]
        self.squares = [[r * r % p for r in rs] for p, rs in zip(self.PRIMES, self.roots)]
        for ctx, sq in zip(self.ctxs, self.squares):
            pkg.formulas.sqrt_auto(ctx, sq[0])
        self.pos = 0

    def _batch_jobs(self):
        jobs, roots = [], []
        for _ in range(self.PASSES):
            for ctx, rs, sq, w in zip(self.ctxs, self.roots, self.squares, self.weights):
                for j in range(self.pos, self.pos + w):
                    jobs.append((ctx, sq[j % self.POOL]))
                    roots.append(rs[j % self.POOL])
            self.pos += 7
        return jobs, roots

    def round(self, meter):
        jobs, roots = self._batch_jobs()
        outs = meter.batch(lambda: _timed_calls(self.pkg.formulas.sqrt_auto, jobs))
        for (ctx, _), r, out in zip(jobs, roots, outs):
            if isinstance(out, Exception):
                raise out
            checks.check_root(ctx.p, r, out.root, out.coroot)
        return len(jobs), 0


class HighK:
    """``sqrt_auto`` on ~24-bit primes with k = 5..16, where it runs
    ``sqrt_synth``; the exponential bracket and the formula build dominate.

    Calls per round halve as k grows (one call at k = 16 costs about a
    thousand at k = 5), so each k takes a similar share of the time.  k = 5
    gets 1024 calls rather than 2048 and k = 12 gets 24 rather than 16, so
    that the median call falls inside the k = 6 group and the 99th
    percentile inside the k = 12 group, not on a boundary between groups.
    Four primes with k > 16 are attempted once per round at a = 4 (root 2);
    today ``synthesize`` rejects k > 16, so these calls fail every time.
    """

    name = "high_k"
    setup_reps = 3
    reference = "walk"
    PRIMES = {
        5: 16777121, 6: 16777153, 7: 16776833, 8: 16776961, 9: 16769537, 10: 16770049,
        11: 16709633, 12: 16699393, 13: 16736257, 14: 16760833, 15: 15630337, 16: 16580609,
    }
    CALLS = {5: 1024, 6: 1024, 7: 512, 8: 256, 9: 128, 10: 64, 11: 32, 12: 24, 13: 8, 14: 4, 15: 2, 16: 1}
    BEYOND_MAX_K = (786433, 2130706433, 2013265921, (1 << 64) - (1 << 32) + 1)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, pkg) -> None:
        self.pkg = pkg
        self.rng = random.Random(self.seed)
        self.ctxs = {k: pkg.modarith.make_context(p) for k, p in self.PRIMES.items()}
        self.beyond = [pkg.modarith.make_context(p) for p in self.BEYOND_MAX_K]
        self.inputs = self._inputs()
        for ctx in self.ctxs.values():
            pkg.formulas.sqrt_auto(ctx, 4)

    def _inputs(self):
        """One round's jobs per k, as (ctx, a) pairs and the roots r."""
        out = []
        for k, ctx in self.ctxs.items():
            rs = [self.rng.randrange(1, ctx.p) for _ in range(self.CALLS[k])]
            jobs = [(ctx, r * r % ctx.p) for r in rs]
            if k == 16:
                jobs += [(ctx, 4) for ctx in self.beyond]
                rs += [2] * len(self.beyond)
            out.append((jobs, rs))
        return out

    def round(self, meter):
        attempted = failed = 0
        for k, (jobs, rs) in zip(self.PRIMES, self.inputs):
            outs = meter.batch(lambda: _timed_calls(self.pkg.formulas.sqrt_auto, jobs), k)
            for (ctx, _), r, out in zip(jobs, rs, outs):
                attempted += 1
                if isinstance(out, ValueError):
                    if ctx.k <= 16:
                        raise out
                    failed += 1
                    continue
                checks.check_root(ctx.p, r, out.root, out.coroot)
        self.inputs = self._inputs()
        return attempted, failed


class Sweep:
    """``cli.run_verification(3, P, "auto")`` over every prime up to P, every
    residue checked against brute force: the ``verify`` command.

    The range is cut into chunks of about 1,000 residues (about 7 ms), each
    one timed batch; an operation is one residue verified.  Its per-op time
    is the chunk's time over its residue count.
    """

    name = "sweep"
    setup_reps = 11
    reference = "mixed"
    P = 3000
    CHUNK = 1000
    SAMPLE = 64  # roots squared back per round

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.primes = checks.primes_upto(self.P)
        self.chunks, lo, acc = [], 3, 0
        for p in self.primes:
            acc += (p - 1) // 2
            if acc >= self.CHUNK or p == self.primes[-1]:
                self.chunks.append((lo, p))
                lo, acc = p + 1, 0

    def setup(self, pkg) -> None:
        self.pkg = pkg
        # Warm the lazily built formula of every k in the range.
        first_of_k = {}
        for p in self.primes:
            first_of_k.setdefault(checks.decompose(p)[0], p)
        for p in first_of_k.values():
            pkg.formulas.sqrt_auto(pkg.modarith.make_context(p), 1)

    def _verify(self, lo, hi):
        t = time.perf_counter()
        rep = self.pkg.cli.run_verification(lo, hi, "auto")
        return rep, [(time.perf_counter() - t) / rep.total_residues]

    def round(self, meter):
        attempted = 0
        for lo, hi in self.chunks:
            rep = meter.batch(lambda: self._verify(lo, hi), lo)
            rows = [(pc.p, pc.k, pc.n, pc.z, pc.residues_checked, len(pc.failures)) for pc in rep.primes]
            checks.check_verification(rows, rep.total_residues, rep.passed, lo, hi)
            attempted += rep.total_residues
        for _ in range(self.SAMPLE):
            p = self.rng.choice(self.primes)
            r = self.rng.randrange(1, p)
            out = self.pkg.formulas.sqrt_auto(self.pkg.modarith.make_context(p), r * r % p)
            if out.root * out.root % p != r * r % p:
                raise checks.CheckFailed(f"sweep sample: {out.root}^2 != {r * r % p} mod {p}")
        return attempted, 0


_P31, _P61, _P80, _P24 = 2147483647, 2305843009213693561, 1208925819614629174706033, 16769537


class Reports:
    """``cli.main`` in-process, stdout captured, over a fixed command list.

    The only workload that runs argument parsing, the JSON codecs, ``expand``
    and the renderers, ``order_census`` and the ``tonelli``/``direct``
    oracles.  Each command is one timed batch.  The weights keep every
    command under a quarter of the round's time; 16 of the 21 commands cost
    about 2 ms, so the median falls inside that band, and the dearest
    command (``expand`` at k = 9, 1 in 21) holds the 99th percentile.
    """

    name = "reports"
    setup_reps = 11
    reference = "mixed"
    SMALL_K6 = 193  # checks the k = 6 structured formula at every residue
    BENCH_P = _P61

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, pkg) -> None:
        self.pkg = pkg
        rng = random.Random(self.seed)
        cmds = []
        for p in (_P31, _P61, _P80, _P24):
            for _ in range(2):
                r = rng.randrange(1, p)
                cmds.append((["sqrt", "--p", str(p), "--a", str(r * r % p)], ("root", p, r)))
        nonresidue = checks.smallest_nonresidue(_P61)
        cmds += [(["sqrt", "--p", str(_P61), "--a", str(nonresidue)], ("nonresidue", _P61, nonresidue))] * 2
        for fmt in ("text", "math", "structured"):
            cmds += [(["synthesize", "--k", "6", "--format", fmt], None)] * 2
        cmds += [(["expand", "--p", "3329"], None), (["expand", "--p", "7681"], None)]
        cmds += [(["density", "--p", "3329"], None), (["density", "--p", "7681"], None)]
        cmds += [(["bench", "--p", str(self.BENCH_P), "--trials", "20", "--seed", str(self.seed)], None)] * 2
        cmds += [(["verify", "--pmin", "3", "--pmax", "200"], None)]
        self.commands = cmds
        self.residues = {
            p: [r * r % p for r in (rng.randrange(1, p) for _ in range(8))] for p in (3329, 7681)
        }
        for argv, _ in cmds:  # warm-up: builds the formulas sqrt and bench cache
            self._run(argv)

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.pkg.cli.main(argv)
        return (rc, out.getvalue()), [time.perf_counter() - t]

    def check(self, argv, extra, rc, text) -> None:
        """Check one command's exit code and stdout; ``extra`` is
        ``("root", p, r)`` or ``("nonresidue", p, a)`` for ``sqrt``."""
        cmd = argv[0]
        if cmd == "sqrt" and extra[0] == "nonresidue":
            checks.check_nonresidue(rc, text, extra[1], extra[2])
            return
        if rc != 0:
            raise checks.CheckFailed(f"{argv} exited {rc}")
        if cmd == "sqrt":
            _, p, r = extra
            doc = json.loads(text)
            checks.check_sqrt_doc(doc, p, r * r % p)
            checks.check_root(p, r, doc["root"], doc["coroot"])
        elif cmd == "synthesize":
            if argv[4] == "structured":
                checks.check_structured(json.loads(text), 6, self.SMALL_K6)
            else:
                checks.check_rendered(text.strip(), 6, argv[4])
        elif cmd == "expand":
            p = int(argv[2])
            checks.check_expand(json.loads(text), p, self.residues[p])
        elif cmd == "density":
            checks.check_density(json.loads(text), int(argv[2]))
        elif cmd == "bench":
            checks.check_bench(json.loads(text), int(argv[2]), int(argv[4]))
        else:
            doc = json.loads(text)
            rows = [(d["p"], d["k"], d["n"], d["z"], d["residues_checked"], len(d["failures"])) for d in doc["primes"]]
            checks.check_verification(rows, doc["total_residues"], doc["pass"], 3, 200)

    def round(self, meter):
        self.round_bytes = 0
        for i, (argv, extra) in enumerate(self.commands):
            rc, text = meter.batch(lambda: self._run(argv), i)
            self.check(argv, extra, rc, text)
            self.round_bytes += len(text.encode())
        return len(self.commands), 0


WORKLOADS = {w.name: w for w in (Sweep, LargeP, HighK, Reports)}
