"""Every exported name resolves, so `from ... import *` and tools that walk
__all__ never meet a stale entry, and the exported record types stay cheap
to define at import."""

import dataclasses

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


def test_only_three_exported_dataclasses():
    # A dataclass execs its generated methods when its module is imported, a
    # NamedTuple does not; the plain records are NamedTuples.  These three
    # need what a tuple cannot give: PrimeContext's derived fields, and the
    # reports' wall time left out of equality.
    found = {
        name
        for mod in MODULES
        for name in mod.__all__
        if dataclasses.is_dataclass(getattr(mod, name))
    }
    assert found == {"BenchReport", "PrimeContext", "VerificationReport"}
