"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete.  Every tolerance here is exact (integer or rational
equality); there are no floating-point comparisons to calibrate.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

from sqrtmodp import cli
from sqrtmodp.analysis import order_census
from sqrtmodp.formulas import sqrt_auto
from sqrtmodp.modarith import make_context, primes_in_range
from sqrtmodp.oracles import direct_sqrt, tonelli_shanks
from sqrtmodp.synthesis import expand, synthesize

from formula_reference import degree_check, evaluate, normalize_signs
from prime_search import primes_with_k
from root_table import brute_root_table


@contextmanager
def criterion(num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS [{time.perf_counter() - t0:.1f}s]")


def test_criterion_1_exhaustive_sweep():
    # every prime 3 <= p < 10000, every residue: sqrt_auto squares back and
    # {root, coroot} equals the brute-force root set; zero failures
    with criterion(1, "exhaustive sqrt_auto sweep, 3 <= p < 10000"):
        rep = cli.run_verification(3, 9999, "auto")
        assert rep.passed
        assert len(rep.primes) == 1228
        assert rep.total_residues == sum((p - 1) // 2 for p in primes_in_range(3, 9999))
        assert all(not pc.failures for pc in rep.primes)


def test_criterion_2_printed_formula_fidelity():
    # sign-normalized synthesis reproduces the four classical product forms
    # term for term (order-insensitive, factors keyed by level)
    from test_synthesis import GOLDEN_K2, GOLDEN_K3, GOLDEN_K4, _canon, _golden

    with criterion(2, "printed-form fidelity for k = 1..4"):
        f1 = synthesize(1)
        assert len(f1["terms"]) == 1 and f1["terms"][0]["factors"] == []
        assert _canon(normalize_signs(synthesize(2))) == _golden(GOLDEN_K2)
        assert _canon(normalize_signs(synthesize(3))) == _golden(GOLDEN_K3)
        assert _canon(normalize_signs(synthesize(4))) == _golden(GOLDEN_K4)
        # spot-check the extremal terms of the k = 4 bracket explicitly
        rendered = {rt.e: rt for rt in normalize_signs(synthesize(4))}
        assert [(sf.sign, sf.j, sf.c) for sf in rendered[7].factors] == [
            (-1, 2, 0),
            (-1, 1, 4),
            (-1, 0, 6),
        ]
        assert [(sf.sign, sf.j, sf.c) for sf in rendered[0].factors] == [
            (1, 2, 0),
            (1, 1, 0),
            (1, 0, 0),
        ]


def test_criterion_3_expansion_structure():
    # degree exactly 2^(k-1) n - (n-1)/2 and exactly 2^(k-1) terms for every
    # prime below 5000 with 2 <= k <= 6; p = 13 pinned to its golden value
    with criterion(3, "expanded degree/length, p < 5000, 2 <= k <= 6"):
        assert expand(make_context(13)) == ((5, 3), (2, 11))
        checked = 0
        for p in primes_in_range(3, 4999):
            ctx = make_context(p)
            if not 2 <= ctx.k <= 6:
                continue
            terms = expand(ctx)
            want = (1 << (ctx.k - 1)) * ctx.n - (ctx.n - 1) // 2
            assert terms[0][0] == want
            assert len(terms) == 1 << (ctx.k - 1)
            assert degree_check(terms, ctx)
            checked += 1
        assert checked > 300


def test_criterion_4_high_k_validity():
    # synthesized formulas for k = 5..8 pass the squaring identity on every
    # residue of the first five primes of each class; zero failures
    with criterion(4, "squaring identity for k = 5..8, five primes each"):
        for k in (5, 6, 7, 8):
            primes = primes_with_k(k, 5)
            f = synthesize(k)
            for p in primes:
                ctx = make_context(p)
                assert ctx.k == k
                for a, pair in brute_root_table(p).items():
                    root, coroot = evaluate(f, ctx, a)
                    assert root * root % p == a
                    assert (root, coroot) == pair


def test_criterion_5_exact_density_laws():
    # odd-order share 1/2^(k-1) and (k >= 2) exact-order share 1/(2n), as
    # equalities of rationals, for every prime below 10000; tolerance zero
    with criterion(5, "exact density laws, p < 10000"):
        for p in primes_in_range(3, 9999):
            ctx = make_context(p)
            doc = order_census(ctx)
            assert Fraction(doc["odd_order_fraction"]) == Fraction(1, 1 << (ctx.k - 1))
            if ctx.k >= 2:
                assert Fraction(doc["exact_2k1_fraction"]) == Fraction(1, 2 * ctx.n)


def test_criterion_6_oracle_agreement():
    # sqrt_auto, tonelli_shanks, and direct_sqrt give identical root pairs on
    # every residue of every prime below 2000
    with criterion(6, "oracle agreement, p < 2000"):
        for p in primes_in_range(3, 1999):
            ctx = make_context(p)
            for a, pair in brute_root_table(p).items():
                for fn in (sqrt_auto, tonelli_shanks, direct_sqrt):
                    out = fn(ctx, a)
                    assert (out.root, out.coroot) == pair


def test_criterion_7_determinism():
    # repeated runs produce byte-identical structured reports
    with criterion(7, "byte-identical verify and bench reports"):
        v1 = json.dumps(cli.verification_to_doc(cli.run_verification(3, 2000)), indent=2)
        v2 = json.dumps(cli.verification_to_doc(cli.run_verification(3, 2000)), indent=2)
        assert v1 == v2
        b1 = json.dumps(cli.run_bench(97, 50, None, 7), indent=2)
        b2 = json.dumps(cli.run_bench(97, 50, None, 7), indent=2)
        assert b1 == b2


def test_criterion_8_bench_shape():
    # the class lift charges every window, so it costs the same on every
    # input, while the iterative baseline varies with the class index
    with criterion(8, "constant formula counts vs varying iteration counts"):
        for p, tag in ((17, "f4"), (41, "f3"), (13, "f2")):
            doc = cli.run_bench(p, (p - 1) // 2, None, 1)  # every residue
            by_method = {r["method"]: r for r in doc["records"]}
            assert by_method[tag]["constant_across_inputs"]
            assert by_method["auto"]["constant_across_inputs"]
            assert not by_method["tonelli"]["constant_across_inputs"]
