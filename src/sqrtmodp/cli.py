"""Command-line frontend: sqrt, synthesize, verify, expand, density, bench.

Every method is named once, in _METHODS: the module and function that
compute it and the k it needs, if any.  Commands look the function up when
they start, so a patched module attribute is the one that runs.

Each handler, _cmd_<command>, returns its report and exit code and writes
nothing to stdout: a dict for a JSON document, a str for synthesize's text
and math.  main is the one place a report leaves the process: it
serializes a dict, writes --out, which every command takes, then stdout, so
a failed write leaves stdout empty; a handler's stderr lines come first.
JSON reports are byte-stable for fixed arguments and write-only: no command
reads one back.  The records are NamedTuples and carry no wall time: the
verify and bench commands time the call whose time they print to stderr.
The verify and bench documents take their entries from the PrimeCheck,
Failure and BenchRecord fields, in field order, written as objects through
_asdict (json would write a bare tuple as a list).  Exit codes: 0
success/pass, 1 usage or internal failure, 2 not a quadratic residue.
"""

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from typing import NamedTuple

from . import analysis, formulas, modarith, oracles, synthesis

__all__ = [
    "BenchRecord",
    "BenchReport",
    "Failure",
    "PrimeCheck",
    "VerificationReport",
    "bench_to_doc",
    "density_to_doc",
    "main",
    "main_entry",
    "run_bench",
    "run_verification",
    "verification_to_doc",
]

def _brute_outcome(ctx: modarith.PrimeContext, a: int) -> formulas.SqrtOutcome:
    roots = oracles.brute_force_sqrt(ctx.p, a)
    if not roots:
        raise formulas.NotAResidue(f"{a} is not a quadratic residue mod {ctx.p}")
    return formulas.SqrtOutcome(min(roots), max(roots), "brute", ctx.p)


# name -> (module, function name, the k it needs or None)
_METHODS = {
    "auto": (formulas, "sqrt_auto", None),
    "f1": (formulas, "sqrt_f1", 1),
    "f2": (formulas, "sqrt_f2", 2),
    "f3": (formulas, "sqrt_f3", 3),
    "f4": (formulas, "sqrt_f4", 4),
    "synth": (synthesis, "sqrt_synth", None),
    "tonelli": (oracles, "tonelli_shanks", None),
    "direct": (oracles, "direct_sqrt", None),
    "brute": (sys.modules[__name__], "_brute_outcome", None),
}
METHODS = tuple(_METHODS)


def _method(name: str):
    """The method's function, read from its module now, and the k it needs."""
    if name not in _METHODS:
        raise ValueError(f"unknown method {name!r}")
    mod, fn_name, k = _METHODS[name]
    return getattr(mod, fn_name), k


class Failure(NamedTuple):
    a: int
    root: int
    coroot: int
    expected: tuple[int, int]


class PrimeCheck(NamedTuple):
    p: int
    k: int
    n: int
    z: int
    residues_checked: int
    failures: tuple[Failure, ...]


class VerificationReport(NamedTuple):
    pmin: int
    pmax: int
    method: str
    k_filter: int | None
    primes: tuple[PrimeCheck, ...]
    total_residues: int
    passed: bool


def run_verification(
    pmin: int, pmax: int, method: str = "auto", k_filter: int | None = None
) -> VerificationReport:
    """Check the chosen method on every residue of every prime in
    [pmin, pmax]; class-specific methods skip non-matching primes.

    The roots are walked, not tabled: each r in 1..(p-1)/2 is the canonical
    root of a distinct residue a = r^2 mod p, so the method is called once
    per a, in ascending r, and its outcome must square to a and equal the
    pair (r, p - r).  No table is built: failures aside, the memory is O(1)
    per prime.

    An inverted range, or a k_filter that no prime the method accepts can
    meet, is an error; an ordered range with no prime in it is an empty pass.
    A method that raises NotAResidue on a residue is at fault, and the sweep
    stops with an ArithmeticError naming the method, p and a."""
    if pmin > pmax:
        raise ValueError(f"pmin={pmin} is above pmax={pmax}; the range is inverted")
    if pmax > oracles.BRUTE_LIMIT:
        raise ValueError(
            f"verify supports pmax<={oracles.BRUTE_LIMIT} (BRUTE_LIMIT), got pmax={pmax}"
        )
    fn, method_k = _method(method)
    if k_filter is not None and (k_filter < 1 or method_k not in (None, k_filter)):
        need = f"k={method_k}" if method_k else "k >= 1"
        raise ValueError(f"method {method} needs {need}; --k {k_filter} selects no prime")
    checks = []
    total = 0
    for p in modarith.primes_in_range(max(pmin, 3), pmax):
        k = ((p - 1) & (1 - p)).bit_length() - 1  # 2-adic valuation of p - 1
        if k_filter not in (None, k) or method_k not in (None, k):
            continue
        ctx = modarith.make_context(p)
        failures = []
        half = (p - 1) // 2
        try:
            for r in range(1, half + 1):
                a = r * r % p
                root, coroot, _, _ = fn(ctx, a)
                if root * root % p != a or root != r or coroot != p - r:
                    failures.append(Failure(a, root, coroot, (r, p - r)))
        except formulas.NotAResidue as exc:
            raise ArithmeticError(
                f"method {method} raised NotAResidue on the residue a={a} of p={p}: {exc}"
            ) from exc
        checks.append(PrimeCheck(p, ctx.k, ctx.n, ctx.z, half, tuple(failures)))
        total += half
    passed = all(not pc.failures for pc in checks)
    return VerificationReport(pmin, pmax, method, k_filter, tuple(checks), total, passed)


def verification_to_doc(rep: VerificationReport) -> dict:
    return {
        "kind": "verification_report",
        "pmin": rep.pmin,
        "pmax": rep.pmax,
        "method": rep.method,
        "k_filter": rep.k_filter,
        "primes": [
            {**pc._asdict(), "failures": [f._asdict() for f in pc.failures]}
            for pc in rep.primes
        ],
        "total_primes": len(rep.primes),
        "total_residues": rep.total_residues,
        "pass": rep.passed,
    }


class BenchRecord(NamedTuple):
    method: str
    p: int
    trials: int
    total_mults: int
    mean_mults: float
    min_mults: int
    max_mults: int
    constant_across_inputs: bool


class BenchReport(NamedTuple):
    p: int
    trials: int
    seed: int
    records: tuple[BenchRecord, ...]


def _sample_residues(ctx: modarith.PrimeContext, trials: int, seed: int) -> list[int]:
    """Linear scan from the seed, keeping a iff legendre(a) = +1."""
    out = []
    a = seed % ctx.p or 1
    while len(out) < trials:
        if modarith.legendre(a, ctx.p) == 1:
            out.append(a)
        a += 1
        if a == ctx.p:
            a = 1
    return out


def _default_methods(ctx: modarith.PrimeContext) -> list[str]:
    fk = [f"f{ctx.k}"] if ctx.k <= 4 else []
    return ["auto", *fk, "synth", "direct", "tonelli"]


def run_bench(
    p: int, trials: int, methods: list[str] | None = None, seed: int = 1
) -> BenchReport:
    """Per-method multiplication counts over a deterministic residue sample."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # an unknown name and brute above its limit, which depends on p alone,
    # are usage errors, reported before any context is built
    fns = None if methods is None else [_method(m) for m in methods]
    if p > oracles.BRUTE_LIMIT and "brute" in (methods or ()):
        raise ValueError(f"brute supports p<={oracles.BRUTE_LIMIT} (BRUTE_LIMIT), got p={p}")
    c0 = time.perf_counter()
    ctx = modarith.make_context(p)
    print(f"bench context on p={p}: {time.perf_counter() - c0:.3f}s", file=sys.stderr)
    if methods is None:
        methods = _default_methods(ctx)
        fns = [_method(m) for m in methods]
    for m, (_, need_k) in zip(methods, fns):
        if need_k not in (None, ctx.k):
            raise ValueError(f"method {m} needs k={need_k}, p={p} has k={ctx.k}")
    sample = _sample_residues(ctx, trials, seed)
    records = []
    for m, (fn, _) in zip(methods, fns):
        m0 = time.perf_counter()
        counts = [fn(ctx, a).mul_count for a in sample]
        print(
            f"bench {m} on p={p}: {time.perf_counter() - m0:.3f}s",
            file=sys.stderr,
        )
        total = sum(counts)
        records.append(
            BenchRecord(
                m,
                p,
                trials,
                total,
                total / trials,
                min(counts),
                max(counts),
                min(counts) == max(counts),
            )
        )
    return BenchReport(p, trials, seed, tuple(records))


def bench_to_doc(rep: BenchReport) -> dict:
    return {
        "kind": "bench_report",
        "p": rep.p,
        "trials": rep.trials,
        "seed": rep.seed,
        "records": [r._asdict() for r in rep.records],
    }


def density_to_doc(rep: analysis.DensityReport) -> dict:
    predicted_exact = str(Fraction(1, 2 * rep.n)) if rep.k >= 2 else None
    return {
        "kind": "density_report",
        "p": rep.p,
        "k": rep.k,
        "n": rep.n,
        "qr_count": rep.qr_count,
        "odd_order_count": rep.odd_order_count,
        "odd_order_fraction": str(rep.odd_order_fraction),
        "predicted_odd_order_fraction": str(Fraction(1, 1 << (rep.k - 1))),
        "exact_2k1_order_count": rep.exact_2k1_order_count,
        "exact_2k1_fraction": str(rep.exact_2k1_fraction),
        "predicted_exact_2k1_fraction": predicted_exact,
        "class_histogram": list(rep.class_histogram),
        "multiplier_histogram": list(analysis.multiplier_histogram(rep)),
    }


def _cmd_sqrt(args) -> tuple[dict, int]:
    ctx = modarith.make_context(args.p)
    fn, _ = _method(args.method)
    out = fn(ctx, args.a)
    return {"kind": "sqrt_outcome", "p": args.p, "a": args.a, **out._asdict()}, 0


# --format -> the synthesis function that renders the formula, named so that
# a patched module attribute is the one that runs; the keys are the choices
_FORMATS = {"text": "render_text", "structured": "formula_to_doc", "math": "render_math"}


def _cmd_synthesize(args) -> tuple[dict | str, int]:
    return getattr(synthesis, _FORMATS[args.format])(synthesis.synthesize(args.k)), 0


def _cmd_verify(args) -> tuple[dict, int]:
    t0 = time.perf_counter()
    rep = run_verification(args.pmin, args.pmax, args.method, args.k)
    dt = time.perf_counter() - t0
    print(
        f"verify: {len(rep.primes)} primes, {rep.total_residues} residues, "
        f"{'pass' if rep.passed else 'FAIL'} in {dt:.2f}s "
        f"({rep.total_residues / dt if dt else 0.0:,.0f} residues/s)",
        file=sys.stderr,
    )
    return verification_to_doc(rep), 0 if rep.passed else 1


def _cmd_expand(args) -> tuple[dict, int]:
    ctx = modarith.make_context(args.p)
    poly = synthesis.expand(ctx)
    ok = synthesis.degree_check(poly, ctx)
    doc = {
        "kind": "expanded_polynomial",
        "p": ctx.p,
        "k": ctx.k,
        "n": ctx.n,
        "z": ctx.z,
        "polynomial": poly.text(),
        "terms": [[ex, co] for ex, co in poly.terms],
        "degree": poly.degree,
        "term_count": len(poly.terms),
        "expected_degree": (1 << (ctx.k - 1)) * ctx.n - (ctx.n - 1) // 2,
        "max_terms": 1 << (ctx.k - 1),
        "degree_check": "PASS" if ok else "FAIL",
    }
    return doc, 0 if ok else 1


def _cmd_density(args) -> tuple[dict, int]:
    return density_to_doc(analysis.order_census(modarith.make_context(args.p))), 0


def _cmd_bench(args) -> tuple[dict, int]:
    methods = args.methods.split(",") if args.methods else None
    t0 = time.perf_counter()
    rep = run_bench(args.p, args.trials, methods, args.seed)
    print(f"bench: total {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return bench_to_doc(rep), 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which this CLI reserves for
    # nonresidue inputs; route usage errors to exit 1 instead.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sqrtmodp",
        description="Square roots modulo primes p = 2^k*n + 1: closed-form "
        "evaluators, general-k synthesis, oracles, statistics, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every command writes one report, to stdout and to --out
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--out", default=None, help="also write the report here")

    sq = sub.add_parser("sqrt", parents=[report], help="compute one square root")
    sq.add_argument("--p", type=int, required=True, help="odd prime modulus")
    sq.add_argument("--a", type=int, required=True, help="residue in [0, p)")
    sq.add_argument("--method", choices=METHODS, default="auto")
    sq.set_defaults(func=_cmd_sqrt)

    sy = sub.add_parser("synthesize", parents=[report], help="print the general-k formula")
    sy.add_argument("--k", type=int, required=True)
    sy.add_argument("--format", choices=tuple(_FORMATS), default="text")
    sy.set_defaults(func=_cmd_synthesize)

    ve = sub.add_parser(
        "verify", parents=[report], help="check method(r^2) = (r, p - r) over a prime range"
    )
    ve.add_argument("--pmin", type=int, required=True)
    ve.add_argument("--pmax", type=int, required=True)
    ve.add_argument("--k", type=int, default=None, help="only primes with this k")
    ve.add_argument("--method", choices=METHODS, default="auto")
    ve.set_defaults(func=_cmd_verify)

    ex = sub.add_parser("expand", parents=[report], help="expand the formula for one prime")
    ex.add_argument("--p", type=int, required=True)
    ex.set_defaults(func=_cmd_expand)

    de = sub.add_parser(
        "density",
        parents=[report],
        help=f"exact order-class counts for one prime, k<={analysis.DENSITY_MAX_K}",
        description="Exact order-class counts for one prime p = 2^k*n + 1, derived "
        "from (k, n): n residues per class; the tests check them against an "
        "enumeration of every residue.",
    )
    de.add_argument("--p", type=int, required=True)
    de.set_defaults(func=_cmd_density)

    be = sub.add_parser("bench", parents=[report], help="multiplication-count benchmark")
    be.add_argument("--p", type=int, required=True)
    be.add_argument("--trials", type=int, default=100)
    be.add_argument("--methods", default=None, help="comma-separated method list")
    be.add_argument("--seed", type=int, default=1)
    be.set_defaults(func=_cmd_bench)

    return parser


# Built on the first main call, not at import: building costs about 1 ms,
# twenty times a parse, and parsing leaves the parser unchanged.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        report, code = args.func(args)
        text = report if isinstance(report, str) else json.dumps(report, indent=2)
        # The file first: a failed write must not leave a report on stdout.
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        print(text)
        return code
    except formulas.NotAResidue as exc:
        print(f"not a quadratic residue: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main())
