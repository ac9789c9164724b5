"""The record types are collections.namedtuple classes: what they must keep
from the frozen dataclasses they replaced.

They stay immutable, keep their field names in order, compare and hash by
value, survive a pickle round trip, and reach the JSON documents as objects,
never as bare lists.  The verification report and the bench document carry
no wall time, so two runs with the same arguments give equal reports; the
commands time the calls themselves.  The symbolic formula is no record:
synthesize returns its document, a dict, which compares by value and does
not hash.
"""

import json
import pickle

import pytest

from sqrtmodp import cli, formulas, modarith, oracles, synthesis

import formula_reference

FIELDS = {
    formulas.SqrtOutcome: ("root", "coroot", "method", "mul_count"),
    formula_reference.SignedFactor: ("sign", "j", "c"),
    formula_reference.RenderedTerm: ("e", "factors"),
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
}


_tonelli = oracles.tonelli_shanks


def _wrong_coroot(ctx, a):
    out = _tonelli(ctx, a)
    return formulas.SqrtOutcome(out.root, out.root, out.method, out.mul_count)


def _samples(monkeypatch):
    """One instance of each record type, as the package builds it."""
    f = synthesis.synthesize(3)
    rendered = formula_reference.normalize_signs(f)[1]
    # a wrong coroot: the class formula's roots gives the root alone, so the
    # fault goes into tonelli, which verify calls once per residue
    monkeypatch.setattr(oracles, "tonelli_shanks", _wrong_coroot)
    verification = cli.run_verification(3, 7, "tonelli", 1)
    check = verification.primes[0]
    return {
        formulas.SqrtOutcome: formulas.sqrt_auto(modarith.make_context(41), 2),
        formula_reference.SignedFactor: rendered.factors[0],
        formula_reference.RenderedTerm: rendered,
        cli.Failure: check.failures[0],
        cli.PrimeCheck: check,
        cli.VerificationReport: verification,
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


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_records_survive_a_pickle_round_trip(cls, monkeypatch):
    # pickle finds the class by its module and name, so a record bound to
    # another name than the one it was built with would fail here
    obj = _samples(monkeypatch)[cls]
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls
    assert back == obj and hash(back) == hash(obj)
    assert back._asdict() == obj._asdict()


def test_equal_formulas_compare_equal():
    a, b = synthesis.synthesize(6), synthesis.synthesize(6)
    assert a is not b
    assert a == b
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
    assert x == y and x is not y
