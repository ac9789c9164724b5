"""Every exported name resolves, so `from ... import *` and tools that walk
__all__ never meet a stale entry; no exported type is a dataclass, and
importing the command line loads neither dataclasses nor inspect, so the
package stays cheap to import; the arithmetic takes no counter, and the
scripts use only public names."""

import ast
import dataclasses
import inspect
import os
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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since this one has loaded both for the tests
    src = str(Path(sqrtmodp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = "import sys, sqrtmodp.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_prime_context_takes_p_k_n_z():
    # the rows and the log table are derived, so they cannot disagree with z
    params = list(inspect.signature(modarith.PrimeContext).parameters)
    assert params == ["p", "k", "n", "z"]
    assert repr(modarith.make_context(41)) == "PrimeContext(p=41, k=3, n=5, z=3)"


@pytest.mark.parametrize(
    "fn", [modarith.mod_pow, modarith.PrimeContext.zn_pow], ids=lambda f: f.__qualname__
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
