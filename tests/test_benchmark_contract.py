"""What the benchmark in `perfbench/` needs of the package, read from its
source and checked here, so that a deletion which would stop every
benchmark run fails a test first.

`perfbench/workloads.py` imports each module named in `LAYERS`, and the
workloads and per-layer probes call the package as `pkg.<layer>.<name>`,
`self.pkg.<layer>.<name>` or through an alias bound to `pkg.<layer>`.  Each
such static reference must resolve.  The workloads also read attributes off
what the package returns: the sweep reads the verification report and its
rows, and every workload and probe reads the outcome of each root it
computes.  Those objects must keep the attributes, and each one listed here
must be read somewhere in `perfbench/`, so that the list follows the
benchmark.  Nothing under `perfbench/` is changed or imported here; its
files are parsed.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layers() -> tuple[str, ...]:
    for node in ast.parse((PERFBENCH / "workloads.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no LAYERS")


LAYERS = _layers()


def _layer_of(node) -> str | None:
    """The layer of `pkg.<layer>` or `self.pkg.<layer>`, else None."""
    if not (isinstance(node, ast.Attribute) and node.attr in LAYERS):
        return None
    base = node.value
    if isinstance(base, ast.Name) and base.id == "pkg":
        return node.attr
    if (
        isinstance(base, ast.Attribute)
        and base.attr == "pkg"
        and isinstance(base.value, ast.Name)
        and base.value.id == "self"
    ):
        return node.attr
    return None


def _aliases(scope) -> dict[str, str]:
    """Names bound to `pkg.<layer>` in scope: `ma = pkg.modarith` and
    `ma, fo = pkg.modarith, pkg.formulas`."""
    out = {}
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                pairs = [(target, node.value)]
            elif isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            else:
                continue
            for name, value in pairs:
                layer = _layer_of(value)
                if isinstance(name, ast.Name) and layer:
                    out[name.id] = layer
    return out


def _references() -> set[tuple[str, str, str]]:
    """(file, layer, name) for every static reference into a layer."""
    refs = set()
    for fname in ("workloads.py", "layers.py"):
        tree = ast.parse((PERFBENCH / fname).read_text())
        # an alias is looked up in the function that binds it
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
            aliases = _aliases(scope) if scope is not tree else {}
            for node in ast.walk(scope):
                if not isinstance(node, ast.Attribute):
                    continue
                layer = _layer_of(node.value)
                if layer is None and isinstance(node.value, ast.Name):
                    layer = aliases.get(node.value.id)
                if layer:
                    refs.add((fname, layer, node.attr))
    return refs


@pytest.mark.parametrize("layer", LAYERS)
def test_every_benchmark_layer_imports(layer):
    importlib.import_module(f"sqrtmodp.{layer}")


def test_every_benchmark_reference_resolves():
    refs = _references()
    # make_context, sqrt_auto and cli.main at least; a parse that finds
    # nothing checks nothing
    assert len({(layer, name) for _, layer, name in refs}) >= 3
    unresolved = [
        f"perfbench/{fname}: {layer}.{name}"
        for fname, layer, name in sorted(refs)
        if not hasattr(importlib.import_module(f"sqrtmodp.{layer}"), name)
    ]
    assert unresolved == []


# attributes perfbench reads off cli.run_verification's report, off each of
# its rows, and off the outcome of every root it checks or counts
REPORT_ATTRS = ("primes", "total_residues", "passed")
ROW_ATTRS = ("p", "k", "n", "z", "residues_checked", "failures")
OUTCOME_ATTRS = ("root", "coroot", "mul_count")


def test_benchmark_reads_every_listed_attribute():
    read = {
        node.attr
        for path in PERFBENCH.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    listed = REPORT_ATTRS + ROW_ATTRS + OUTCOME_ATTRS
    assert [name for name in listed if name not in read] == []


def test_verification_report_keeps_the_attributes_the_benchmark_reads():
    rep = importlib.import_module("sqrtmodp.cli").run_verification(3, 50, "auto")
    assert [name for name in REPORT_ATTRS if not hasattr(rep, name)] == []
    assert len(rep.primes) == 14 and rep.passed
    for row in rep.primes:
        assert [name for name in ROW_ATTRS if not hasattr(row, name)] == []
    assert rep.total_residues == sum(row.residues_checked for row in rep.primes)


@pytest.mark.parametrize(
    "layer,name",
    [("formulas", "sqrt_auto"), ("oracles", "tonelli_shanks"), ("oracles", "direct_sqrt")],
)
def test_outcomes_keep_the_attributes_the_benchmark_reads(layer, name):
    ctx = importlib.import_module("sqrtmodp.modarith").make_context(41)
    out = getattr(importlib.import_module(f"sqrtmodp.{layer}"), name)(ctx, 4)
    assert [attr for attr in OUTCOME_ATTRS if not hasattr(out, attr)] == []
    assert (out.root, out.coroot) == (2, 39) and out.mul_count > 0
