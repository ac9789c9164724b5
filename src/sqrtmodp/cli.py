"""Command-line frontend: sqrt, synthesize, verify, expand, density, bench.

main parses once: an argv that starts with a command's name goes to that
command's own parser, taken from the one cached build_parser() result; any
other argv goes to the top-level parser, which only prints help or refuses
it, with the same message and exit code.

Every method is named once, in _METHODS: the module and function that
compute it, the k it needs, if any, and the function that verify runs over
many residues, if any.  Commands look the function up when they start, so
a patched module attribute is the one that runs.

Each handler, _cmd_<command>, returns its report and exit code and writes
nothing to stdout: a dict for a JSON document, a str for synthesize's text
and math.  main is the one place a report leaves the process: it
serializes a dict with _json, writes --out, which every command takes, then
stdout, so a failed write leaves stdout empty; a handler's stderr lines come
first.  _json writes the bytes of json.dumps(doc, indent=2), whose
pure-Python indenting encoder it replaces, and refuses any type it does not
know.  JSON reports are byte-stable for fixed arguments and write-only: no
command reads one back.  The reports carry no wall time: the verify and
bench commands time the call whose time they print to stderr.  The verify
document takes its entries from the PrimeCheck and Failure fields, in
field order, written as objects through _asdict (_json refuses a
NamedTuple).  synthesize --format structured prints the document that
synthesis.synthesize returns, as it is, and text and math render that
document through the synthesis renderer named in _FORMATS.  bench and
density print the document that run_bench and
analysis.order_census return, as it is (run_bench runs each distinct
function once, so auto, f1..f4 and synth, one evaluator, share one run and
print its time on their stderr lines), and expand writes its document
from the terms that synthesis.expand returns.  bench and sqrt build the
context first, so a p that is not an odd prime is refused as such, then
check each method against it with one check, _method.  Exit codes: 0
success/pass, 1 usage or internal failure, 2 not a quadratic residue.  A
method that refuses a residue that verify or bench chose is at fault: exit
1, naming the method and the a and p that its NotAResidue names.
"""

import argparse
import functools
import json
import sys
import time
from typing import NamedTuple

from . import analysis, formulas, modarith, oracles, synthesis

__all__ = [
    "Failure",
    "METHODS",
    "PrimeCheck",
    "VerificationReport",
    "main",
    "main_entry",
    "run_bench",
    "run_verification",
    "verification_to_doc",
]

# name -> (module, function name, the k it needs or None, the function verify
# runs over many residues or None); auto, f1..f4 and synth are one
# evaluator, the class formula, and f1..f4 take one k each
_METHODS = {
    "auto": (formulas, "sqrt_auto", None, "roots"),
    "f1": (formulas, "sqrt_auto", 1, "roots"),
    "f2": (formulas, "sqrt_auto", 2, "roots"),
    "f3": (formulas, "sqrt_auto", 3, "roots"),
    "f4": (formulas, "sqrt_auto", 4, "roots"),
    "synth": (formulas, "sqrt_auto", None, "roots"),
    "tonelli": (oracles, "tonelli_shanks", None, None),
    "direct": (oracles, "direct_sqrt", None, None),
    "brute": (oracles, "_brute_sqrt", None, None),
}
METHODS = tuple(_METHODS)


def _method(name: str, ctx: modarith.PrimeContext | None = None):
    """The method's function, read from its module now, and the k it needs.
    Refuses an unknown name and, given a context, an f1..f4 for another k or
    brute above BRUTE_LIMIT."""
    if name not in _METHODS:
        raise ValueError(f"unknown method {name!r}")
    mod, fn_name, need_k, _ = _METHODS[name]
    if ctx is not None:
        if need_k not in (None, ctx.k):
            raise ValueError(f"method {name} needs k={need_k}, p={ctx.p} has k={ctx.k}")
        if name == "brute" and ctx.p > oracles.BRUTE_LIMIT:
            raise ValueError(
                f"brute supports p<={oracles.BRUTE_LIMIT} (BRUTE_LIMIT), got p={ctx.p}"
            )
    return getattr(mod, fn_name), need_k


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


# residues per call of a method's sequence function in verify: one call for
# each prime below 8194, and no more than this many roots held at once
_CHUNK = 4096


def run_verification(
    pmin: int, pmax: int, method: str = "auto", k_filter: int | None = None
) -> VerificationReport:
    """Check the chosen method on every residue of every prime in
    [pmin, pmax]; class-specific methods skip non-matching primes.

    The roots are walked, not tabled: each r in 1..(p-1)/2 is the canonical
    root of a distinct residue a = r^2 mod p, so the method runs once per a,
    in ascending r, and its (root, coroot) must equal the pair (r, p - r).
    That root squares to a, so no square is taken.  One loop serves every
    method, over chunks of _CHUNK residues: one chunk for each prime below
    8194.  The class formula (auto, f1..f4, synth) runs a chunk in one call
    of formulas.roots, read from the module now, and its coroot is
    p - root; the other methods are called once per residue.  No table is
    built: failures aside, the memory is bounded by one chunk's residues
    and roots, whatever p.

    An inverted range, or a k_filter that no prime the method accepts can
    meet, is an error; an ordered range with no prime in it is an empty pass.
    A method that raises NotAResidue on a residue is at fault, and the sweep
    stops with an ArithmeticError naming the method and the a and p that
    the exception names."""
    if pmin > pmax:
        raise ValueError(f"pmin={pmin} is above pmax={pmax}; the range is inverted")
    if pmax > oracles.BRUTE_LIMIT:
        raise ValueError(
            f"verify supports pmax<={oracles.BRUTE_LIMIT} (BRUTE_LIMIT), got pmax={pmax}"
        )
    fn, method_k = _method(method)
    mod, _, _, many_name = _METHODS[method]
    many = getattr(mod, many_name) if many_name else None
    if k_filter is not None and (k_filter < 1 or method_k not in (None, k_filter)):
        need = f"k={method_k}" if method_k else "k >= 1"
        raise ValueError(f"method {method} needs {need}; --k {k_filter} selects no prime")
    checks = []
    total = 0
    for p in modarith.primes_in_range(max(pmin, 3), pmax):
        k = modarith._two_adic(p - 1)
        if k_filter not in (None, k) or method_k not in (None, k):
            continue
        ctx = modarith.make_context(p)
        failures = []
        half = (p - 1) // 2
        try:
            for lo in range(1, half + 1, _CHUNK):
                want = range(lo, min(lo + _CHUNK, half + 1))
                values = [r * r % p for r in want]
                if many:
                    got = many(ctx, values)
                    if got == list(want):
                        continue
                    got = [(root, (p - root) % p) for root in got]
                else:
                    got = [fn(ctx, a)[:2] for a in values]
                failures += [
                    Failure(a, root, coroot, (r, p - r))
                    for r, a, (root, coroot) in zip(want, values, got)
                    if (root, coroot) != (r, p - r)
                ]
        except formulas.NotAResidue as exc:
            raise _refused(method, exc) from exc
        checks.append(PrimeCheck(p, ctx.k, ctx.n, ctx.z, half, tuple(failures)))
        total += half
    passed = all(not pc.failures for pc in checks)
    return VerificationReport(pmin, pmax, method, k_filter, tuple(checks), total, passed)


def _refused(method: str, exc: formulas.NotAResidue) -> ArithmeticError:
    """The error for a method that raised NotAResidue, exc, on a true
    residue: the method is at fault, and exc names the residue and prime."""
    return ArithmeticError(
        f"method {method} raised NotAResidue on the residue a={exc.a} of p={exc.p}: {exc}"
    )


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


def run_bench(
    p: int, trials: int, methods: list[str] | None = None, seed: int = 1
) -> dict:
    """The bench document: per-method multiplication counts over a
    deterministic residue sample.  Each distinct function runs once: a
    method whose function already ran in this bench (auto, f1..f4 and synth
    are one evaluator) takes that run's counts, and its stderr line prints
    that run's time."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    c0 = time.perf_counter()
    ctx = modarith.make_context(p)
    dt = time.perf_counter() - c0
    # checked against the context, as sqrt checks its method, so a p that is
    # not an odd prime reads as such; a refusal prints no timing line
    if methods is None:
        fk = [f"f{ctx.k}"] if 1 <= ctx.k <= 4 else []
        methods = ["auto", *fk, "synth", "direct", "tonelli"]
    fns = [_method(m, ctx) for m in methods]
    print(f"bench context on p={p}: {dt:.3f}s", file=sys.stderr)
    sample = _sample_residues(ctx, trials, seed)
    records = []
    runs = {}  # function -> its counts over the sample and their time
    for m, (fn, _) in zip(methods, fns):
        if fn not in runs:
            m0 = time.perf_counter()
            try:
                counts = [fn(ctx, a).mul_count for a in sample]
            except formulas.NotAResidue as exc:  # the sample holds residues only
                raise _refused(m, exc) from exc
            runs[fn] = counts, time.perf_counter() - m0
        counts, dt = runs[fn]
        print(f"bench {m} on p={p}: {dt:.3f}s", file=sys.stderr)
        total = sum(counts)
        records.append(
            {
                "method": m,
                "p": p,
                "trials": trials,
                "total_mults": total,
                "mean_mults": total / trials,
                "min_mults": min(counts),
                "max_mults": max(counts),
                "constant_across_inputs": min(counts) == max(counts),
            }
        )
    return {"kind": "bench_report", "p": p, "trials": trials, "seed": seed, "records": records}


def _cmd_sqrt(args) -> tuple[dict, int]:
    # the report names the method that ran, but auto the context's tag:
    # f1..f4 at k <= 4, synth above
    ctx = modarith.make_context(args.p)
    fn, _ = _method(args.method, ctx)
    doc = {"kind": "sqrt_outcome", "p": args.p, "a": args.a, **fn(ctx, args.a)._asdict()}
    if args.method != "auto":
        doc["method"] = args.method
    return doc, 0


# --format -> the synthesis function that renders the formula's document,
# named so that a patched module attribute is the one that runs, or None for
# structured, which prints the document itself; the keys are the choices
_FORMATS = {"text": "render_text", "structured": None, "math": "render_math"}


def _cmd_synthesize(args) -> tuple[dict | str, int]:
    doc = synthesis.synthesize(args.k)
    render = _FORMATS[args.format]
    return (getattr(synthesis, render)(doc) if render else doc), 0


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
    terms = synthesis.expand(ctx)
    half = 1 << (ctx.k - 1)
    want = half * ctx.n - (ctx.n - 1) // 2
    degree = terms[0][0]
    ok = degree == want and len(terms) == half
    # every exponent is i n + (n+1)/2 >= 1, so no term is a bare constant
    bits = []
    for ex, co in terms:
        head = "" if co == 1 else str(co)
        bits.append(f"{head}x" if ex == 1 else f"{head}x^{ex}")
    doc = {
        "kind": "expanded_polynomial",
        "p": ctx.p,
        "k": ctx.k,
        "n": ctx.n,
        "z": ctx.z,
        "polynomial": " + ".join(bits),
        "terms": terms,
        "degree": degree,
        "term_count": len(terms),
        "expected_degree": want,
        "max_terms": half,
        "degree_check": "PASS" if ok else "FAIL",
    }
    return doc, 0 if ok else 1


def _cmd_density(args) -> tuple[dict, int]:
    return analysis.order_census(modarith.make_context(args.p)), 0


def _cmd_bench(args) -> tuple[dict, int]:
    methods = args.methods.split(",") if args.methods else None
    t0 = time.perf_counter()
    doc = run_bench(args.p, args.trials, methods, args.seed)
    print(f"bench: total {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return doc, 0


_str = json.encoder.encode_basestring_ascii
_INTS = frozenset([int])
_FLOATS = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _json(obj, nl: str = "\n") -> str:
    """obj written byte for byte as json.dumps(obj, indent=2) writes it.

    json.dumps runs its pure-Python encoder whenever indent is set; this
    writer dispatches on the exact type and writes a list of plain ints in
    one join, about twice as fast on the CLI's documents.  It takes dict
    (str keys), list, tuple, str, int, float, bool and None; any other type,
    a subclass or a non-str key raises TypeError, so it never writes bytes
    that json.dumps would not.  nl is the newline and indent that precede
    obj's closing bracket.
    """
    t = type(obj)
    if t is int:
        return int.__repr__(obj)
    if t is str:
        return _str(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        items = []
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_str(key)}: {_json(value, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        if set(map(type, obj)) == _INTS:  # no bool: its type is not int
            items = map(int.__repr__, obj)
        else:
            items = [_json(value, inner) for value in obj]
        return f"[{inner}{(',' + inner).join(items)}{nl}]"
    if t is float:
        return "NaN" if obj != obj else _FLOATS.get(obj) or float.__repr__(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


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
    parser.commands = sub.choices  # command name -> its parser, for main
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
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    try:
        # the top-level parser only sees an argv it answers with help or refuses
        sub = parser.commands.get(argv[0]) if argv else None
        if sub is None:
            args = parser.parse_args(argv)
        else:
            args = sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        report, code = args.func(args)
        text = report if isinstance(report, str) else _json(report)
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
