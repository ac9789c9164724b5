import json
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtmodp.formulas import sqrt_auto
from sqrtmodp.modarith import make_context, primes_in_range
from sqrtmodp.synthesis import (
    MAX_K,
    ExpandedPolynomial,
    degree_check,
    expand,
    formula_to_doc,
    normalize_signs,
    render_math,
    render_text,
    sqrt_synth,
    synthesize,
)

from formula_reference import evaluate, evaluate_at, expanded_at, term_values
from root_table import brute_root_table


def first_primes_with_k(k, count):
    found = []
    for p in primes_in_range(3, 1 << 14):
        ctx = make_context(p)
        if ctx.k == k:
            found.append(p)
            if len(found) == count:
                break
    return found


# ---------------------------------------------------------------------------
# structure


def test_synthesize_bounds():
    with pytest.raises(ValueError):
        synthesize(0)
    with pytest.raises(ValueError):
        synthesize(MAX_K + 1)


@pytest.mark.parametrize("k", range(1, 11))
def test_structural_counts(k):
    f = synthesize(k)
    assert f.k == k
    assert len(f.terms) == 1 << (k - 1)
    for term in f.terms:
        assert 0 <= term.e < 1 << (k - 1)
        assert len(term.factors) == k - 1
        assert [fc.j for fc in term.factors] == list(range(k - 2, -1, -1))
        for fc in term.factors:
            assert 0 <= fc.c < 1 << k
    # the class-0 term is the all-plus one
    assert f.terms[0].e == 0
    assert all(fc.c == 0 for fc in f.terms[0].factors)


def test_k1_is_bare_power():
    f = synthesize(1)
    assert len(f.terms) == 1
    assert f.terms[0].e == 0
    assert f.terms[0].factors == ()


# ---------------------------------------------------------------------------
# printed-form fidelity: the classical hand-derived product forms for small k,
# written in their traditional order; comparison is order-insensitive.


def _canon(rendered):
    return {(rt.e, frozenset((sf.j, sf.sign, sf.c) for sf in rt.factors)) for rt in rendered}


def _golden(terms):
    return {(e, frozenset(factors)) for e, factors in terms}


GOLDEN_K2 = [
    (1, [(0, -1, 0)]),  # z^n (1 - x^n)
    (0, [(0, 1, 0)]),  # (1 + x^n)
]

GOLDEN_K3 = [
    (3, [(1, -1, 0), (0, -1, 2)]),  # z^3n (1 - x^2n)(1 - x^n z^2n)
    (1, [(1, -1, 0), (0, 1, 2)]),  # z^n  (1 - x^2n)(1 + x^n z^2n)
    (2, [(1, 1, 0), (0, -1, 0)]),  # z^2n (1 + x^2n)(1 - x^n)
    (0, [(1, 1, 0), (0, 1, 0)]),  # (1 + x^2n)(1 + x^n)
]

GOLDEN_K4 = [
    (7, [(2, -1, 0), (1, -1, 4), (0, -1, 6)]),  # z^7n (1-x^4n)(1-x^2n z^4n)(1-x^n z^6n)
    (5, [(2, -1, 0), (0, -1, 2), (1, 1, 4)]),  # z^5n (1-x^4n)(1-x^n z^2n)(1+x^2n z^4n)
    (3, [(2, -1, 0), (1, -1, 4), (0, 1, 6)]),  # z^3n (1-x^4n)(1-x^2n z^4n)(1+x^n z^6n)
    (1, [(2, -1, 0), (0, 1, 2), (1, 1, 4)]),  # z^n  (1-x^4n)(1+x^n z^2n)(1+x^2n z^4n)
    (6, [(2, 1, 0), (1, -1, 0), (0, -1, 4)]),  # z^6n (1+x^4n)(1-x^2n)(1-x^n z^4n)
    (2, [(2, 1, 0), (1, -1, 0), (0, 1, 4)]),  # z^2n (1+x^4n)(1-x^2n)(1+x^n z^4n)
    (4, [(2, 1, 0), (1, 1, 0), (0, -1, 0)]),  # z^4n (1+x^4n)(1+x^2n)(1-x^n)
    (0, [(2, 1, 0), (1, 1, 0), (0, 1, 0)]),  # (1+x^4n)(1+x^2n)(1+x^n)
]


@pytest.mark.parametrize("k,golden", [(2, GOLDEN_K2), (3, GOLDEN_K3), (4, GOLDEN_K4)])
def test_printed_form_agreement(k, golden):
    assert _canon(normalize_signs(synthesize(k))) == _golden(golden)


def test_normalize_sign_folding_examples():
    f3 = synthesize(3)
    # term t=1, level j=0 carries z^6n; folding gives (1 - x^n z^2n)
    sf = normalize_signs(f3)[1].factors[1]
    assert (sf.sign, sf.j, sf.c) == (-1, 0, 2)
    f4 = synthesize(4)
    # term t=1, level j=2 carries z^8n; folding gives (1 - x^4n)
    sf = normalize_signs(f4)[1].factors[0]
    assert (sf.sign, sf.j, sf.c) == (-1, 2, 0)
    # c = 0 keeps its plus sign
    sf = normalize_signs(f4)[0].factors[0]
    assert (sf.sign, sf.j, sf.c) == (1, 2, 0)


# ---------------------------------------------------------------------------
# evaluation


@pytest.mark.parametrize(
    "p,a,root",
    [(17, 13, 8), (97, 1, 1), (193, 4, 2)],
)
def test_evaluate_examples(p, a, root):
    ctx = make_context(p)
    assert evaluate(synthesize(ctx.k), ctx, a)[0] == root


def test_squaring_identity_small_primes():
    # every residue of every prime below the bound, k = 1..4
    for p in primes_in_range(3, 1500):
        ctx = make_context(p)
        if ctx.k > 4:
            continue
        f = synthesize(ctx.k)
        for a, pair in brute_root_table(p).items():
            root, coroot = evaluate(f, ctx, a)
            assert root * root % p == a
            assert (root, coroot) == pair


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_squaring_identity_high_k(k):
    f = synthesize(k)
    for p in first_primes_with_k(k, 2):
        ctx = make_context(p)
        for a, pair in brute_root_table(p).items():
            assert evaluate(f, ctx, a) == pair


def test_synth_matches_hardcoded_small_k():
    for p in [7, 13, 41, 17, 113, 73]:
        ctx = make_context(p)
        for a in brute_root_table(p):
            assert sqrt_synth(ctx, a).root == sqrt_auto(ctx, a).root


def test_selector_exclusivity():
    for p in [13, 41, 17, 97]:
        ctx = make_context(p)
        f = synthesize(ctx.k)
        for a in brute_root_table(p):
            vals = term_values(f, ctx, a)
            nonzero = [(t, v) for t, v in enumerate(vals) if v]
            assert len(nonzero) == 1
            t, v = nonzero[0]
            assert v == (1 << (ctx.k - 1)) * ctx.zn_pow(f.terms[t].e) % p


# ---------------------------------------------------------------------------
# expansion


def _expand_reference(ctx):
    """The bracket multiplied out term by term: about 4^(k-1) updates."""
    f = _formula(ctx.k)
    p, n = ctx.p, ctx.n
    width = 1 << (f.k - 1)
    acc = [0] * width  # coefficient of x^(i*n) inside the bracket
    for term in f.terms:
        poly = {0: ctx.zn_pow(term.e)}
        for fc in term.factors:
            w = ctx.zn_pow(fc.c)
            step = 1 << fc.j
            poly.update({i + step: v * w % p for i, v in poly.items()})
        for i, v in poly.items():
            acc[i] = (acc[i] + v) % p
    scale = pow(2, 1 - f.k, p)
    off = (n + 1) // 2
    terms = tuple(
        (i * n + off, acc[i] * scale % p)
        for i in range(width - 1, -1, -1)
        if acc[i]
    )
    return ExpandedPolynomial(p, terms)


@cache
def _formula(k):
    return synthesize(k)


def test_expand_matches_reference_below_6000():
    checked = 0
    for p in primes_in_range(3, 6000):
        ctx = make_context(p)
        assert ctx.k <= 9
        assert expand(ctx) == _expand_reference(ctx), p
        checked += 1
    assert checked == 782


@pytest.mark.parametrize("p,k", [(40961, 13), (65537, 16)])
def test_expand_large_k_exact_terms_and_roots(p, k):
    ctx = make_context(p)
    assert ctx.k == k
    poly = expand(ctx)
    assert len(poly.terms) == 1 << (k - 1)
    assert all(0 < co < p for _, co in poly.terms)
    assert poly.degree == (1 << (k - 1)) * ctx.n - (ctx.n - 1) // 2
    assert degree_check(poly, ctx)
    rng = random.Random(k)
    for r in (rng.randrange(1, p) for _ in range(16)):
        a = r * r % p
        assert pow(expanded_at(poly, a), 2, p) == a


def test_evaluate_at_matches_the_per_term_sum():
    # Horner in x^stride on expand's evenly spaced exponents, and the
    # per-term sum when the spacing is uneven
    def per_term(poly, x):
        return sum(co * pow(x, ex, poly.p) for ex, co in poly.terms) % poly.p

    polys = [expand(make_context(p)) for p in (7, 13, 41, 97, 257, 7681)]
    polys += [
        ExpandedPolynomial(13, ()),
        ExpandedPolynomial(13, ((0, 5),)),
        ExpandedPolynomial(13, ((7, 3),)),
        ExpandedPolynomial(13, ((9, 1), (5, 2), (1, 3))),
        ExpandedPolynomial(13, ((9, 1), (4, 2), (1, 3))),
        ExpandedPolynomial(13, ((2, 4), (1, 6), (0, 12))),
    ]
    for poly in polys:
        for x in range(min(poly.p, 300)):
            assert expanded_at(poly, x) == per_term(poly, x), (poly.p, poly.terms[:3], x)


def test_expand_beyond_max_k_raises():
    with pytest.raises(ValueError, match=r"^expand supports k<=16 \(MAX_K\); p=786433 has k=18$"):
        expand(make_context(786433))


def test_expand_golden_p13():
    ctx = make_context(13)
    poly = expand(ctx)
    assert poly.terms == ((5, 3), (2, 11))
    assert poly.text() == "3x^5 + 11x^2"
    assert poly.degree == 5
    assert degree_check(poly, ctx)
    assert expanded_at(poly, 4) == 11  # cross-check at a = 4


def test_expand_golden_p7():
    ctx = make_context(7)
    poly = expand(ctx)
    assert poly.terms == ((2, 1),)
    assert poly.text() == "x^2"
    assert degree_check(poly, ctx)


def test_expand_p41_structure():
    ctx = make_context(41)
    poly = expand(ctx)
    assert poly.degree == 18  # 2^2 * 5 - 2
    assert [ex for ex, _ in poly.terms] == [18, 13, 8, 3]
    assert degree_check(poly, ctx)


def test_expand_exponents_descending_coeffs_nonzero():
    for p in [13, 41, 17, 97, 193]:
        ctx = make_context(p)
        poly = expand(ctx)
        exps = [ex for ex, _ in poly.terms]
        assert exps == sorted(exps, reverse=True)
        assert all(0 < co < p for _, co in poly.terms)


def test_degree_check_sweep():
    for p in primes_in_range(3, 2000):
        ctx = make_context(p)
        if not 2 <= ctx.k <= 6:
            continue
        assert degree_check(expand(ctx), ctx)


def test_degree_check_rejects_tampering():
    ctx = make_context(13)
    poly = expand(ctx)
    assert not degree_check(ExpandedPolynomial(ctx.p, poly.terms[1:]), ctx)
    # the top term kept, a lower one dropped: right degree, one term short
    assert not degree_check(ExpandedPolynomial(ctx.p, poly.terms[:1]), ctx)


def test_pointwise_agreement_all_points():
    # expanded polynomial and structured evaluation agree at EVERY point,
    # residue or not; they are the same polynomial
    for p in [7, 13, 17, 41, 97]:
        ctx = make_context(p)
        f = synthesize(ctx.k)
        poly = expand(ctx)
        for v in range(p):
            assert expanded_at(poly, v) == evaluate_at(f, ctx, v)


@given(st.sampled_from([193, 257, 353, 449]), st.data())
@settings(max_examples=40)
def test_pointwise_agreement_property(p, data):
    v = data.draw(st.integers(min_value=0, max_value=p - 1))
    ctx = make_context(p)
    f = synthesize(ctx.k)
    assert expanded_at(expand(ctx), v) == evaluate_at(f, ctx, v)


# ---------------------------------------------------------------------------
# rendering


def test_render_text_golden():
    assert render_text(synthesize(1)) == "x^((n+1)/2)"
    assert (
        render_text(synthesize(2))
        == "2^-1 * x^((n+1)/2) * [ (1 + x^(n)) + z^(n)*(1 - x^(n)) ]"
    )
    assert render_text(synthesize(3)) == (
        "2^-2 * x^((n+1)/2) * [ (1 + x^(2n))*(1 + x^(n))"
        " + z^(3n)*(1 - x^(2n))*(1 - x^(n) z^(2n))"
        " + z^(2n)*(1 + x^(2n))*(1 - x^(n))"
        " + z^(n)*(1 - x^(2n))*(1 + x^(n) z^(2n)) ]"
    )


def test_render_text_stable():
    for k in range(1, 9):
        assert render_text(synthesize(k)) == render_text(synthesize(k))


def test_render_math():
    assert render_math(synthesize(1)) == "x^{(n+1)/2}"
    s = render_math(synthesize(3))
    assert s.startswith("2^{-2} x^{(n+1)/2} \\left[")
    assert "z^{3n} (1 - x^{2n}) (1 - x^{n} z^{2n})" in s


def test_structured_doc_carries_the_formula():
    for k in range(1, 7):
        f = synthesize(k)
        doc = json.loads(json.dumps(formula_to_doc(f)))
        terms = tuple(
            (td["e"], tuple((fd["j"], fd["c"]) for fd in td["factors"]))
            for td in doc["terms"]
        )
        assert terms == tuple(
            (t.e, tuple((fc.j, fc.c) for fc in t.factors)) for t in f.terms
        )


def test_structured_doc_fields():
    doc = formula_to_doc(synthesize(3))
    assert doc["kind"] == "sqrt_formula"
    assert doc["k"] == 3
    assert doc["inverse_power_of_two"] == 2
    assert len(doc["terms"]) == 4
    assert doc["terms"][0] == {"t": 0, "e": 0, "factors": [{"j": 1, "c": 0}, {"j": 0, "c": 0}]}
