"""Every exported name resolves, so `from ... import *` and tools that walk
__all__ never meet a stale entry; the package exports each library module's
names as the module's own objects, and no two modules export one name; no
exported type is a dataclass, importing the command line loads none of
dataclasses, inspect, fractions and decimal, and importing the package loads
no argparse, so both stay cheap to import; no module imports after its first definition,
so no import cycle hides there; the arithmetic takes no counter, the
scripts use only public names, no file imports a name it never uses,
every module.name the README, the package or the scripts mention exists,
only formulas._walk reads the tables of the walk above k = 8, and the
refusal's message is written once, in formulas.NotAResidue."""

import ast
import collections
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sqrtmodp
from sqrtmodp import analysis, cli, formulas, modarith, oracles, synthesis


MODULES = [analysis, cli, formulas, modarith, oracles, synthesis]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves(mod):
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_all_resolves_and_is_sorted():
    names = sqrtmodp.__all__
    assert [name for name in names if not hasattr(sqrtmodp, name)] == []
    assert names == sorted(set(names))


LIBRARY = [mod for mod in MODULES if mod is not cli]


def test_package_reexports_each_module_name_as_the_same_object():
    assert sqrtmodp.__all__ == sorted(name for mod in LIBRARY for name in mod.__all__)
    stale = [
        (mod.__name__, name)
        for mod in LIBRARY
        for name in mod.__all__
        if getattr(sqrtmodp, name) is not getattr(mod, name)
    ]
    assert stale == []


def test_module_all_lists_are_disjoint():
    # the package star-imports every library module, so a name exported by
    # two of them would be shadowed silently by the later import
    counts = collections.Counter(name for mod in LIBRARY for name in mod.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_no_exported_name_is_a_dataclass():
    # A dataclass execs its generated methods when its module is imported, a
    # NamedTuple does not; the records are NamedTuples and PrimeContext is a
    # plain class with __slots__.
    found = {
        name
        for mod in MODULES
        for name in mod.__all__
        if dataclasses.is_dataclass(getattr(mod, name))
    }
    assert found == set()


def _fresh_modules(code: str) -> str:
    # a fresh interpreter, since this one has loaded them all for the tests
    src = str(Path(sqrtmodp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_dataclasses_inspect_or_fractions():
    # the density shares are written by math.gcd, so no Fraction (and with it
    # decimal and numbers) is loaded for them
    heavy = "{'dataclasses', 'inspect', 'fractions', 'decimal'}"
    code = f"import sys, sqrtmodp.cli; print(sorted({heavy} & set(sys.modules)))"
    assert _fresh_modules(code) == "[]\n"


def test_package_import_loads_no_cli():
    # the command line stays out of the package's star imports
    code = "import sys, sqrtmodp; print(sorted({'argparse', 'sqrtmodp.cli'} & set(sys.modules)))"
    assert _fresh_modules(code) == "[]\n"


def test_prime_context_takes_p_k_n_z():
    # the rows and the class or log table are derived, so they cannot disagree with z
    params = list(inspect.signature(modarith.PrimeContext).parameters)
    assert params == ["p", "k", "n", "z"]
    assert repr(modarith.make_context(41)) == "PrimeContext(p=41, k=3, n=5, z=3)"


@pytest.mark.parametrize(
    "fn", [modarith.mod_pow, modarith.PrimeContext.zn_pow], ids=lambda f: f.__qualname__
)
def test_arithmetic_takes_no_counter(fn):
    # only MulCounter tallies: a counted method calls its mul, pow and lookup
    assert "counter" not in inspect.signature(fn).parameters


def test_modules_import_nothing_after_their_first_definition():
    # a late import is how an import cycle between modules hides
    late = []
    for path in sorted(Path(sqrtmodp.__file__).parent.glob("*.py")):
        defined = False
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = True
            elif defined and any(
                isinstance(sub, (ast.Import, ast.ImportFrom)) for sub in ast.walk(node)
            ):
                late.append(f"{path.name}:{node.lineno}")
    assert late == []


ROOT = Path(__file__).resolve().parents[1]


def test_scripts_import_no_private_names():
    # every name a script imports from the package is in its module's __all__
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    not_public = [
        (path.name, node.module, alias.name)
        for path in scripts
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sqrtmodp")
        for alias in node.names
        if alias.name not in importlib.import_module(node.module).__all__
    ]
    assert not_public == []


def _unused_imports(path: Path) -> list[str]:
    """Names path imports and never reads; a name in its __all__ is read,
    and a star import binds nothing to check."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(
                sub.value
                for sub in ast.walk(node.value)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            )
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in bound.items()
        if name not in used
    ]


def test_no_file_imports_a_name_it_never_uses():
    # no linter is a test dependency; a stale import is what a deletion leaves
    paths = [
        path for d in ("src/sqrtmodp", "scripts", "tests") for path in (ROOT / d).rglob("*.py")
    ]
    assert len(paths) > 20
    assert [line for path in paths for line in _unused_imports(path)] == []


# modarith.PrimeContext, sqrtmodp.formulas.roots or cli._json, to the last
# dotted name; a file name, such as cli.py, is not a reference
_REFERENCE = re.compile(
    r"(?<![\w.])(?:sqrtmodp\.)?(modarith|formulas|synthesis|oracles|analysis|cli)"
    r"((?:\.(?!py\b)[A-Za-z_]\w*)+)"
)


def test_every_module_reference_in_the_prose_resolves():
    # a renamed or deleted function leaves its name in the docs and the
    # docstrings; each reference is looked up, attribute by attribute
    paths = [
        ROOT / "README.md",
        *sorted((ROOT / "src" / "sqrtmodp").glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
    ]
    found, unresolved = 0, []
    for path in paths:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for match in _REFERENCE.finditer(line):
                found += 1
                obj = importlib.import_module(f"sqrtmodp.{match[1]}")
                for name in match[2][1:].split("."):
                    if not hasattr(obj, name):
                        unresolved.append(f"{path.relative_to(ROOT)}:{number}: {match[0]}")
                        break
                    obj = getattr(obj, name)
    assert found > 20
    assert unresolved == []


def _scoped_nodes(node, scope):
    """(scope, child) for each node under node, scope the dotted name of
    the module and the functions and classes that enclose the child."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(child, f"{scope}.{child.name}")
            continue
        yield scope, child
        yield from _scoped_nodes(child, scope)


def _package_nodes():
    for path in sorted((ROOT / "src" / "sqrtmodp").glob("*.py")):
        yield from _scoped_nodes(ast.parse(path.read_text()), path.stem)


def test_only_the_walk_reads_the_walk_tables():
    # the windowed walk above k = 8 is written once, in formulas._walk, which
    # sqrt_auto and roots both call: no other function reads the context's
    # walk plan, log table or multiplier rows, so no second copy of the walk
    # can come back.  The stores that build them in modarith.PrimeContext
    # are not reads
    tables = {"_steps", "_log", "_t_rows"}
    found = sorted(
        {
            (scope, node.attr)
            for scope, node in _package_nodes()
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in tables
        }
    )
    assert found == [("formulas._walk", attr) for attr in sorted(tables)]


def test_the_refusal_message_is_written_once():
    # every method raises NotAResidue(a, p), whose __str__ writes the one
    # message; a raise site that writes its own text would say it twice
    found = [
        scope
        for scope, node in _package_nodes()
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "is not a quadratic residue mod" in node.value
    ]
    assert found == ["formulas.NotAResidue.__str__"]
