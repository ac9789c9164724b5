"""Golden-byte tests: the exact stdout and exit code of fixed CLI commands.

Each case in `tests/golden/cases.json` names a command line and its exit
code; its stdout is stored byte for byte in `tests/golden/<name>.out`.  A
change to any report's bytes, key order or exit code fails here.  After a
deliberate format change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sqrtmodp import cli, formulas
from sqrtmodp.formulas import SqrtOutcome

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@contextlib.contextmanager
def _fault(name):
    """`fault: "f2_root_plus_1"` makes sqrt_auto, the function --method f2
    runs, return root + 1."""
    if name is None:
        yield
        return
    assert name == "f2_root_plus_1"
    orig = formulas.sqrt_auto

    def corrupted(ctx, a):
        out = orig(ctx, a)
        wrong = (out.root + 1) % ctx.p
        return SqrtOutcome(wrong, (ctx.p - wrong) % ctx.p, out.method, out.mul_count)

    formulas.sqrt_auto = corrupted
    try:
        yield
    finally:
        formulas.sqrt_auto = orig


def _run(case):
    out = io.StringIO()
    with _fault(case.get("fault")), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(case["argv"])
    return rc, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden(case):
    rc, out = _run(case)
    assert rc == case["rc"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text()


JSON_CASES = [c["name"] for c in CASES if (GOLDEN / f"{c['name']}.out").read_text()[:1] == "{"]


@pytest.mark.parametrize("name", JSON_CASES)
def test_golden_json_round_trips_through_the_writer(name):
    # the writer alone reproduces every JSON golden from its parsed document
    out = (GOLDEN / f"{name}.out").read_text()
    assert cli._json(json.loads(out)) + "\n" == out


def _regenerate():
    for case in CASES:
        rc, out = _run(case)
        case["rc"] = rc
        (GOLDEN / f"{case['name']}.out").write_text(out)
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n")


if __name__ == "__main__":
    _regenerate()
    print(f"wrote {len(CASES)} golden cases to {GOLDEN}", file=sys.stderr)
