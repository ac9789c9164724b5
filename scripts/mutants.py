#!/usr/bin/env python3
"""Mutation run over a fixed list of functions: each mutant is one operator
swap, tested by the tier-1 suite with -x in a temporary copy of the repo.

Usage: python scripts/mutants.py [--function modarith.is_prime] [--limit N]
           [--tests tests/test_modarith.py ...]

--function takes module.function or module.Class.method, listed or not; the
default is every function in FUNCTIONS.  Without --tests, the mutated
module's own tests/test_<module>.py runs first, then every other test file,
each named, so a killed mutant stops early at its first failure (named after
a directory, a file keeps the directory's order).

At one site at a time a mutant swaps a binary operator (+ and -, << and >>,
& and |, % and //) or a comparison (< and <=, > and >=, == and !=, is and
is not, in and not in), or adds 1 to an integer constant.  Each mutant's
module is written into the copy and the tests run there with -x under a
wall-clock limit of TIMEOUT = 300 s, with this script's own smoke tests,
every test named test_mutants_script*, deselected (they would mutate the
mutant again).  A mutant is killed when a test fails, survived when all
pass, and timed out at the limit.  A survivor listed in
scripts/mutants_equivalent.txt, one "name | reason" a line, reads as
equivalent: no input tells it from the original.  The name of a mutant is
"module.function: before -> after", with " #i" for the i-th site of the
same text in the function.  Exit status 0 when every mutant is killed or
equivalent, 1 otherwise.
"""

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = ROOT / "scripts" / "mutants_equivalent.txt"
FUNCTIONS = (
    "modarith.is_prime",
    "modarith.make_context",
    "modarith._smallest_nonresidue",
    "modarith._strong_rounds",
    "modarith._chain_pow",
    "modarith._power_plan",
    "formulas._walk",
    "formulas.sqrt_auto",
    "formulas.roots",
    "cli._json",
    "cli.main",
    "cli.run_bench",
    "cli.run_verification",
    "synthesis.synthesize",
    "synthesis._body",
)
TIMEOUT = 300  # seconds for one mutant's tests
SELF_TEST = "tests/test_scripts.py::test_mutants_script"  # --deselect takes a prefix

_BINOPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Mod: ast.FloorDiv, ast.FloorDiv: ast.Mod,
}
_CMPOPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def _swaps(node):
    """The mutated copies of one node: a swapped operator or constant + 1."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        yield ast.BinOp(node.left, _BINOPS[type(node.op)](), node.right)
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _CMPOPS:
                ops = [*node.ops[:i], _CMPOPS[type(op)](), *node.ops[i + 1 :]]
                yield ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield ast.Constant(node.value + 1)


def _nodes(fn):
    """fn's nodes in source order, none inside an f-string."""
    out, todo = [], [fn]
    while todo:
        node = todo.pop()
        if node is not fn:
            out.append(node)
        if not isinstance(node, ast.JoinedStr):
            todo.extend(reversed(list(ast.iter_child_nodes(node))))
    return out


def _find(qualname):
    """(module path, function node) for module.function or module.Class.method;
    ValueError when there is no such function."""
    module, *names = qualname.split(".")
    path = ROOT / "src" / "sqrtmodp" / f"{module}.py"
    if not names or not path.is_file():
        raise ValueError(f"{qualname}: not module.function or module.Class.method")
    node = ast.parse(path.read_bytes())
    for i, name in enumerate(names):
        kind = ast.FunctionDef if i == len(names) - 1 else ast.ClassDef
        node = next((n for n in node.body if isinstance(n, kind) and n.name == name), None)
        if node is None:
            raise ValueError(f"{qualname}: no such function")
    return path, node


def mutants(qualname):
    """(name, module path in the repo, mutated source) for each mutant of
    module.function or module.Class.method."""
    path, fn = _find(qualname)
    source = path.read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    seen = {}
    for node in _nodes(fn):
        for new in _swaps(node):
            lo = starts[node.lineno - 1] + node.col_offset
            hi = starts[node.end_lineno - 1] + node.end_col_offset
            before = source[lo:hi].decode()
            after = ast.unparse(new)
            name = f"{qualname}: {' '.join(before.split())} -> {after}"
            seen[name] = seen.get(name, 0) + 1
            if seen[name] > 1:
                name += f" #{seen[name]}"
            yield name, path.relative_to(ROOT), source[:lo] + f"({after})".encode() + source[hi:]


def default_tests(qualname):
    """tests/test_<module>.py, then every other test file, each by name."""
    first = f"tests/test_{qualname.split('.')[0]}.py"
    files = sorted(f"tests/{f.name}" for f in (ROOT / "tests").glob("test_*.py"))
    return [first, *(f for f in files if f != first)] if first in files else files


def run_tests(copy, tests):
    """('killed', first failure), ('survived', '') or ('timeout', '')."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--deselect", SELF_TEST, *tests]
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", ""
    if proc.returncode == 0:
        return "survived", ""
    first = next(
        (line.split(" - ")[0] for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))),
        f"exit {proc.returncode}",
    )
    return "killed", first


def read_equivalent(path):
    """name -> reason from "name | reason" lines; # starts a comment."""
    out = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, reason = line.rsplit(" | ", 1)
            out[name.strip()] = reason.strip()
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--function", action="append",
                    help="only this function (repeatable); default: every one in FUNCTIONS")
    ap.add_argument("--limit", type=int, default=None, help="only the first N mutants")
    ap.add_argument("--tests", nargs="*", default=None,
                    help="pytest paths; default: tier-1, the module's own tests first")
    args = ap.parse_args()

    equivalent = read_equivalent(EQUIVALENT)
    try:
        todo = [(f, m) for f in args.function or FUNCTIONS for m in mutants(f)][: args.limit]
    except ValueError as exc:
        ap.error(str(exc))
    tally = {"killed": 0, "survived": 0, "timeout": 0, "equivalent": 0}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        for func, (name, rel, source) in todo:
            original = (copy / rel).read_bytes()
            (copy / rel).write_bytes(source)
            t0 = time.perf_counter()
            try:
                outcome, detail = run_tests(copy, args.tests or default_tests(func))
            finally:
                (copy / rel).write_bytes(original)
            if outcome == "survived" and name in equivalent:
                outcome, detail = "equivalent", equivalent[name]
            tally[outcome] += 1
            print(f"{outcome:<10} {time.perf_counter() - t0:6.1f}s  {name}"
                  + (f"  [{detail}]" if detail else ""), flush=True)
    print(f"total: {len(todo)} mutants, " + ", ".join(f"{v} {k}" for k, v in tally.items()))
    raise SystemExit(0 if tally["survived"] == tally["timeout"] == 0 else 1)


if __name__ == "__main__":
    main()
