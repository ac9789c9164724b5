"""Every exported name resolves, so `from ... import *` and tools that walk
__all__ never meet a stale entry; the exported record types stay cheap to
define at import; the arithmetic takes no counter, and the scripts use only
public names."""

import ast
import dataclasses
import inspect
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


def test_only_prime_context_is_a_dataclass():
    # A dataclass execs its generated methods when its module is imported, a
    # NamedTuple does not; the records are NamedTuples.  PrimeContext needs
    # what a tuple cannot give: fields derived once and left out of equality.
    found = {
        name
        for mod in MODULES
        for name in mod.__all__
        if dataclasses.is_dataclass(getattr(mod, name))
    }
    assert found == {"PrimeContext"}


@pytest.mark.parametrize(
    "fn", [modarith.mod_pow, modarith.PrimeContext.zn_pow, oracles.residue_class],
    ids=lambda f: f.__qualname__,
)
def test_arithmetic_takes_no_counter(fn):
    # only MulCounter tallies: a counted method calls its mul, pow and lookup
    assert "counter" not in inspect.signature(fn).parameters


def test_scripts_import_no_private_names():
    scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
    assert scripts
    private = [
        (path.name, alias.name)
        for path in scripts
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sqrtmodp")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
