"""Every exported name resolves, so `from ... import *` and tools that walk
__all__ never meet a stale entry."""

import pytest

import sqrtmodp
from sqrtmodp import analysis, cli, formulas, modarith, oracles, synthesis


@pytest.mark.parametrize(
    "mod", [analysis, cli, formulas, modarith, oracles, synthesis], ids=lambda m: m.__name__
)
def test_module_all_resolves(mod):
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_all_resolves_and_is_sorted():
    names = sqrtmodp.__all__
    assert [name for name in names if not hasattr(sqrtmodp, name)] == []
    assert names == sorted(set(names))
