"""The record types are NamedTuples: what they must keep from the frozen
dataclasses they replaced.

They stay immutable, keep their field names in order, compare and hash by
value, and reach the JSON documents as objects, never as bare lists.  The
verification and bench reports carry no wall time, so two runs with the same
arguments give equal reports; the commands time the calls themselves.
"""

import json

import pytest

from sqrtmodp import analysis, cli, formulas, oracles, synthesis
from sqrtmodp.modarith import make_context

import formula_reference

FIELDS = {
    synthesis.Factor: ("j", "c"),
    synthesis.Term: ("e", "factors"),
    synthesis.SymbolicFormula: ("k", "terms"),
    formula_reference.SignedFactor: ("sign", "j", "c"),
    formula_reference.RenderedTerm: ("e", "factors"),
    synthesis.ExpandedPolynomial: ("p", "terms"),
    analysis.DensityReport: (
        "p",
        "k",
        "n",
        "qr_count",
        "odd_order_count",
        "exact_2k1_order_count",
        "class_histogram",
        "odd_order_fraction",
        "exact_2k1_fraction",
    ),
    cli.Failure: ("a", "root", "coroot", "expected"),
    cli.PrimeCheck: ("p", "k", "n", "z", "residues_checked", "failures"),
    cli.VerificationReport: (
        "pmin",
        "pmax",
        "method",
        "k_filter",
        "primes",
        "total_residues",
        "passed",
    ),
    cli.BenchRecord: (
        "method",
        "p",
        "trials",
        "total_mults",
        "mean_mults",
        "min_mults",
        "max_mults",
        "constant_across_inputs",
    ),
    cli.BenchReport: ("p", "trials", "seed", "records"),
}


_tonelli = oracles.tonelli_shanks


def _wrong_coroot(ctx, a):
    out = _tonelli(ctx, a)
    return formulas.SqrtOutcome(out.root, out.root, out.method, out.mul_count)


def _samples(monkeypatch):
    """One instance of each record type, as the package builds it."""
    f = synthesis.synthesize(3)
    rendered = formula_reference.normalize_signs(f)[1]
    ctx = make_context(13)
    # a wrong coroot: the class formula's roots gives the root alone, so the
    # fault goes into tonelli, which verify calls once per residue
    monkeypatch.setattr(oracles, "tonelli_shanks", _wrong_coroot)
    verification = cli.run_verification(3, 7, "tonelli", 1)
    check = verification.primes[0]
    bench = cli.run_bench(17, 4, ["auto"])
    return {
        synthesis.Factor: f.terms[1].factors[0],
        synthesis.Term: f.terms[1],
        synthesis.SymbolicFormula: f,
        formula_reference.SignedFactor: rendered.factors[0],
        formula_reference.RenderedTerm: rendered,
        synthesis.ExpandedPolynomial: synthesis.expand(ctx),
        analysis.DensityReport: analysis.order_census(ctx),
        cli.Failure: check.failures[0],
        cli.PrimeCheck: check,
        cli.VerificationReport: verification,
        cli.BenchRecord: bench.records[0],
        cli.BenchReport: bench,
    }


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_keep_the_dataclass_order(cls):
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_records_are_immutable(cls, monkeypatch):
    obj = _samples(monkeypatch)[cls]
    assert type(obj) is cls
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_equal_formulas_compare_and_hash_equal():
    a, b = synthesis.synthesize(6), synthesis.synthesize(6)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != synthesis.synthesize(5)


def test_verification_doc_writes_failures_as_objects():
    failure = cli.Failure(2, 3, 3, (3, 4))
    check = cli.PrimeCheck(7, 1, 3, 3, 3, (failure,))
    rep = cli.VerificationReport(3, 7, "f1", None, (check,), 3, False)
    doc = json.loads(json.dumps(cli.verification_to_doc(rep)))
    assert doc["primes"] == [
        {
            "p": 7,
            "k": 1,
            "n": 3,
            "z": 3,
            "residues_checked": 3,
            "failures": [{"a": 2, "root": 3, "coroot": 3, "expected": [3, 4]}],
        }
    ]
    assert list(doc["primes"][0]["failures"][0]) == list(FIELDS[cli.Failure])


def test_reports_compare_equal_across_runs():
    a, b = cli.run_verification(3, 100), cli.run_verification(3, 100)
    assert a is not b and a == b and hash(a) == hash(b)
    x, y = cli.run_bench(17, 4), cli.run_bench(17, 4)
    assert x is not y and x == y and hash(x) == hash(y)
