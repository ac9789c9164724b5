import json
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtmodp import synthesis
from sqrtmodp.modarith import PrimeContext, make_context, primes_in_range
from sqrtmodp.synthesis import (
    MAX_K,
    expand,
    render_math,
    render_text,
    synthesize,
)

from formula_reference import (
    degree_check,
    evaluate,
    evaluate_at,
    expand_per_term,
    expanded_at,
    normalize_signs,
    render_per_term,
    term_values,
)
from prime_search import primes_with_k
from root_table import brute_root_table


# ---------------------------------------------------------------------------
# structure


def test_synthesize_bounds():
    with pytest.raises(ValueError):
        synthesize(0)
    with pytest.raises(ValueError):
        synthesize(MAX_K + 1)
    # the limit itself is built
    assert len(synthesize(MAX_K)["terms"]) == 1 << (MAX_K - 1)


@pytest.mark.parametrize("k", range(1, 11))
def test_structural_counts(k):
    f = synthesize(k)
    assert f["k"] == k
    assert len(f["terms"]) == 1 << (k - 1)
    for term in f["terms"]:
        assert 0 <= term["e"] < 1 << (k - 1)
        assert len(term["factors"]) == k - 1
        assert [fc["j"] for fc in term["factors"]] == list(range(k - 2, -1, -1))
        for fc in term["factors"]:
            assert 0 <= fc["c"] < 1 << k
    # the class-0 term is the all-plus one
    assert f["terms"][0]["e"] == 0
    assert all(fc["c"] == 0 for fc in f["terms"][0]["factors"])


def test_k1_is_bare_power():
    f = synthesize(1)
    assert len(f["terms"]) == 1
    assert f["terms"][0]["e"] == 0
    assert f["terms"][0]["factors"] == []


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
    for p in primes_with_k(k, 2):
        ctx = make_context(p)
        for a, pair in brute_root_table(p).items():
            assert evaluate(f, ctx, a) == pair


def test_selector_exclusivity():
    for p in [13, 41, 17, 97]:
        ctx = make_context(p)
        f = synthesize(ctx.k)
        for a in brute_root_table(p):
            vals = term_values(f, ctx, a)
            nonzero = [(t, v) for t, v in enumerate(vals) if v]
            assert len(nonzero) == 1
            t, v = nonzero[0]
            assert v == (1 << (ctx.k - 1)) * ctx.zn_pow(f["terms"][t]["e"]) % p


# ---------------------------------------------------------------------------
# expansion


def _expand_reference(ctx):
    """The bracket multiplied out term by term: about 4^(k-1) updates."""
    f = _formula(ctx.k)
    p, n = ctx.p, ctx.n
    width = 1 << (f["k"] - 1)
    acc = [0] * width  # coefficient of x^(i*n) inside the bracket
    for term in f["terms"]:
        poly = {0: ctx.zn_pow(term["e"])}
        for fc in term["factors"]:
            w = ctx.zn_pow(fc["c"])
            step = 1 << fc["j"]
            poly.update({i + step: v * w % p for i, v in poly.items()})
        for i, v in poly.items():
            acc[i] = (acc[i] + v) % p
    scale = pow(2, 1 - f["k"], p)
    off = (n + 1) // 2
    return tuple(
        (i * n + off, acc[i] * scale % p)
        for i in range(width - 1, -1, -1)
        if acc[i]
    )


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


@pytest.mark.parametrize(
    "p", sorted({*(primes_with_k(k)[0] for k in range(1, MAX_K + 1)), 3329, 7681, 40961, 65537})
)
def test_expand_matches_per_term_closed_form(p):
    # batch inversion against one lookup and one inverse per term
    ctx = make_context(p)
    assert expand(ctx) == expand_per_term(ctx)


def test_expand_takes_one_inverse_and_no_lookup(monkeypatch):
    ctx = make_context(40961)
    want = expand(ctx)
    inverses = []

    def counted_pow(base, exp, mod=None):
        if exp < 0:
            inverses.append(exp)
        return pow(base, exp, mod)

    def no_lookup(self, j):
        raise AssertionError("expand called zn_pow")

    monkeypatch.setattr(synthesis, "pow", counted_pow, raising=False)
    monkeypatch.setattr(PrimeContext, "zn_pow", no_lookup)
    assert expand(ctx) == want
    assert inverses == [-1]


@pytest.mark.parametrize("p,k", [(40961, 13), (65537, 16)])
def test_expand_large_k_exact_terms_and_roots(p, k):
    ctx = make_context(p)
    assert ctx.k == k
    terms = expand(ctx)
    assert len(terms) == 1 << (k - 1)
    assert all(0 < co < p for _, co in terms)
    assert terms[0][0] == (1 << (k - 1)) * ctx.n - (ctx.n - 1) // 2
    assert degree_check(terms, ctx)
    rng = random.Random(k)
    for r in (rng.randrange(1, p) for _ in range(16)):
        a = r * r % p
        assert pow(expanded_at(terms, p, a), 2, p) == a


def test_evaluate_at_matches_the_per_term_sum():
    # Horner in x^stride on expand's evenly spaced exponents, and the
    # per-term sum when the spacing is uneven
    def per_term(terms, p, x):
        return sum(co * pow(x, ex, p) for ex, co in terms) % p

    polys = [(expand(make_context(p)), p) for p in (7, 13, 41, 97, 257, 7681)]
    polys += [
        ((), 13),
        (((0, 5),), 13),
        (((7, 3),), 13),
        (((9, 1), (5, 2), (1, 3)), 13),
        (((9, 1), (4, 2), (1, 3)), 13),
        (((2, 4), (1, 6), (0, 12)), 13),
    ]
    for terms, p in polys:
        for x in range(min(p, 300)):
            assert expanded_at(terms, p, x) == per_term(terms, p, x), (p, terms[:3], x)


def test_expand_beyond_max_k_raises():
    with pytest.raises(ValueError, match=r"^expand supports k<=16 \(MAX_K\); p=786433 has k=18$"):
        expand(make_context(786433))


def test_expand_golden_p13():
    ctx = make_context(13)
    terms = expand(ctx)
    assert terms == ((5, 3), (2, 11))
    assert degree_check(terms, ctx)
    assert expanded_at(terms, 13, 4) == 11  # cross-check at a = 4


def test_expand_golden_p7():
    ctx = make_context(7)
    terms = expand(ctx)
    assert terms == ((2, 1),)
    assert degree_check(terms, ctx)


def test_expand_p41_structure():
    ctx = make_context(41)
    terms = expand(ctx)
    assert terms[0][0] == 18  # 2^2 * 5 - 2
    assert [ex for ex, _ in terms] == [18, 13, 8, 3]
    assert degree_check(terms, ctx)


def test_expand_exponents_descending_coeffs_nonzero():
    for p in [13, 41, 17, 97, 193]:
        ctx = make_context(p)
        terms = expand(ctx)
        exps = [ex for ex, _ in terms]
        assert exps == sorted(exps, reverse=True)
        # the lowest exponent is (n+1)/2 >= 1: no term is a bare constant
        assert exps[-1] == (ctx.n + 1) // 2
        assert all(0 < co < p for _, co in terms)


def test_degree_check_sweep():
    for p in primes_in_range(3, 2000):
        ctx = make_context(p)
        if not 2 <= ctx.k <= 6:
            continue
        assert degree_check(expand(ctx), ctx)


def test_degree_check_rejects_tampering():
    ctx = make_context(13)
    terms = expand(ctx)
    assert not degree_check(terms[1:], ctx)
    # the top term kept, a lower one dropped: right degree, one term short
    assert not degree_check(terms[:1], ctx)


def test_pointwise_agreement_all_points():
    # expanded polynomial and structured evaluation agree at EVERY point,
    # residue or not; they are the same polynomial
    for p in [7, 13, 17, 41, 97]:
        ctx = make_context(p)
        f = synthesize(ctx.k)
        terms = expand(ctx)
        for v in range(p):
            assert expanded_at(terms, p, v) == evaluate_at(f, ctx, v)


@given(st.sampled_from([193, 257, 353, 449]), st.data())
@settings(max_examples=40)
def test_pointwise_agreement_property(p, data):
    v = data.draw(st.integers(min_value=0, max_value=p - 1))
    ctx = make_context(p)
    f = synthesize(ctx.k)
    assert expanded_at(expand(ctx), p, v) == evaluate_at(f, ctx, v)


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


@pytest.mark.parametrize("k", range(1, 13))
def test_renderers_match_per_term_reference(k):
    # one string per distinct factor against every factor formatted anew
    f = _formula(k)
    assert render_text(f) == render_per_term(f, "text")
    assert render_math(f) == render_per_term(f, "math")


def test_render_text_stable():
    for k in range(1, 9):
        assert render_text(synthesize(k)) == render_text(synthesize(k))


def test_render_math():
    assert render_math(synthesize(1)) == "x^{(n+1)/2}"
    s = render_math(synthesize(3))
    assert s.startswith("2^{-2} x^{(n+1)/2} \\left[")
    assert "z^{3n} (1 - x^{2n}) (1 - x^{n} z^{2n})" in s


@pytest.mark.parametrize("k", range(1, 9))
def test_renderers_key_factors_by_value(k, monkeypatch):
    # a document read back from JSON shares no factor dict; it renders to
    # the same bytes, folding each distinct (j, c) once all the same
    f = synthesize(k)
    copy = json.loads(json.dumps(f))
    want = render_text(f), render_math(f)
    fold = synthesis._fold
    folds = []

    def counted_fold(c, half):
        folds.append(c)
        return fold(c, half)

    monkeypatch.setattr(synthesis, "_fold", counted_fold)
    for doc in (f, copy):
        folds.clear()
        assert (render_text(doc), render_math(doc)) == want
        assert len(folds) == 2 * ((1 << k) - 2)  # 2^k - 2 distinct factors, per renderer


def _paper_formula(k):
    """The sqrt_formula document from the paper's definitions, term by term
    and factor by factor: e = -t mod 2^(k-1), and at each level j from
    k - 2 down to 0, c = -2^(j+1) t mod 2^k."""
    return {
        "kind": "sqrt_formula",
        "k": k,
        "inverse_power_of_two": k - 1,
        "x_exponent": "(n+1)/2",
        "terms": [
            {
                "t": t,
                "e": -t % 2 ** (k - 1),
                "factors": [
                    {"j": j, "c": -(2 ** (j + 1)) * t % 2**k} for j in range(k - 2, -1, -1)
                ],
            }
            for t in range(2 ** (k - 1))
        ],
    }


def test_structured_doc_carries_the_formula():
    # the same keys in the same order, and the same values
    for k in range(1, 13):
        assert json.dumps(synthesize(k)) == json.dumps(_paper_formula(k))


def test_structured_doc_fields():
    doc = synthesize(3)
    assert doc["kind"] == "sqrt_formula"
    assert doc["k"] == 3
    assert doc["inverse_power_of_two"] == 2
    assert len(doc["terms"]) == 4
    assert doc["terms"][0] == {"t": 0, "e": 0, "factors": [{"j": 1, "c": 0}, {"j": 0, "c": 0}]}
