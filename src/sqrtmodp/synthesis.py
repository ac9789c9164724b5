"""General-k construction of the product-form square-root formula.

For p = 2^k n + 1 (n odd) the quadratic residues split into 2^(k-1) classes
by the value of a^n, which is always an even power z^(2tn) of the chosen
nonresidue z.  Each class index t contributes one bracket term: the
multiplier z^(en) with e = -t mod 2^(k-1) (exactly the twist that turns
a^((n+1)/2) into a root on that class), times k-1 indicator factors
(1 + x^(2^j n) z^(cn)) with c = -2^(j+1) t mod 2^k, whose product is
2^(k-1) on the class and 0 everywhere else on the residues.  Summing all
terms and scaling by 2^-(k-1) x^((n+1)/2) yields a single polynomial whose
value at every quadratic residue is a square root of it.

The level-j factor depends only on t mod 2^(k-1-j), so the terms are the
leaves of a binary prefix tree of factors.  At a nonzero residue one child
is 0 and the other 2 at each level, so one term is live, and sqrt_synth,
like sqrt_f1..sqrt_f4, computes only that term from the prime context (the
evaluator lives in formulas): it reads t 8 bits per table lookup, not one
bit per level, with the same count for every nonzero residue, for any k.

The symbolic object, built by synthesize for k <= MAX_K, supports sign
normalization (folding z-exponents at or above 2^(k-1) into minus signs via
z^(2^(k-1) n) = -1) and rendering to text, LaTeX, and a structured document.

Expanded over F_p, the polynomial has exactly 2^(k-1) nonzero terms and
degree 2^(k-1) n - (n-1)/2.  With g = z^n and y = x^n, term t's factors
multiply out to the sum of y^i g^(-2it) over i < 2^(k-1), and its multiplier
is g^(e_t) = -g^(-t) for t >= 1 (1 for t = 0): e_t = -t mod 2^(k-1) is
2^(k-1) - t there, and g^(2^(k-1)) = -1.  Summed over t, the coefficient of
y^i is a geometric series in w = g^-(2i+1), equal to 2w/(w - 1); w has
order 2^k, so it is never 1 and the coefficient is never 0.  expand
computes the polynomial from this closed form, without the symbolic object.
MAX_K limits synthesize and expand, and analysis.DENSITY_MAX_K = 18 limits
density; sqrt, verify and bench work for any k.
"""

from typing import NamedTuple

from .formulas import SqrtOutcome, _class_root
from .modarith import PrimeContext

__all__ = [
    "ExpandedPolynomial",
    "Factor",
    "MAX_K",
    "RenderedTerm",
    "SignedFactor",
    "SymbolicFormula",
    "Term",
    "degree_check",
    "expand",
    "formula_to_doc",
    "normalize_signs",
    "render_math",
    "render_text",
    "sqrt_synth",
    "synthesize",
]

MAX_K = 16


class Factor(NamedTuple):
    """One indicator factor (1 + x^(2^j n) z^(cn))."""

    j: int  # x-exponent level: the factor carries x^(2^j * n)
    c: int  # z-exponent coefficient, in [0, 2^k)


class Term(NamedTuple):
    """One bracket term: z^(en) times factors at levels j = k-2 down to 0."""

    e: int
    factors: tuple[Factor, ...]


class SymbolicFormula(NamedTuple):
    """2^(k-1) terms indexed by residue class; the overall prefactor
    2^-(k-1) x^((n+1)/2) is implicit."""

    k: int
    terms: tuple[Term, ...]


def _factor_c(t: int, j: int, k: int) -> int:
    """z-exponent coefficient of class t's level-j factor: -2^(j+1) t mod 2^k.

    It depends only on t mod 2^(k-1-j), the low k-1-j bits of t.
    """
    return (-(t << (j + 1))) % (1 << k)


def synthesize(k: int) -> SymbolicFormula:
    """Build the k-class formula; no prime is needed, exponents stay symbolic.

    Terms share their Factor instances: one per distinct (j, c) pair.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > MAX_K:
        raise ValueError(
            f"synthesize supports k<={MAX_K} (MAX_K), got k={k}; "
            "sqrt, verify and bench work for any k"
        )
    half = 1 << (k - 1)
    levels = [
        [Factor(j, _factor_c(t, j, k)) for t in range(1 << (k - 1 - j))]
        for j in range(k - 1)
    ]
    terms = tuple(
        Term(
            (-t) % half,
            tuple(levels[j][t % len(levels[j])] for j in range(k - 2, -1, -1)),
        )
        for t in range(half)
    )
    return SymbolicFormula(k, terms)


def sqrt_synth(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Square root of the residue a via the class formula, for any k.

    The value is the synthesized formula's at a, up to sign, wherever
    synthesize exists (the tests check it against that formula, term by
    term), but no formula is built, and the count is the same for every
    nonzero residue of the prime.
    """
    return _class_root(ctx, a, "synth")


class SignedFactor(NamedTuple):
    """A factor after sign folding: (1 sign x^(2^j n) z^(cn)) with c < 2^(k-1)."""

    sign: int  # +1 or -1
    j: int
    c: int


class RenderedTerm(NamedTuple):
    e: int
    factors: tuple[SignedFactor, ...]


def normalize_signs(f: SymbolicFormula) -> tuple[RenderedTerm, ...]:
    """Fold z-exponents >= 2^(k-1) into minus signs via z^(2^(k-1) n) = -1."""
    half = 1 << (f.k - 1)
    out = []
    for term in f.terms:
        folded = tuple(
            SignedFactor(-1, fc.j, fc.c - half)
            if fc.c >= half
            else SignedFactor(1, fc.j, fc.c)
            for fc in term.factors
        )
        out.append(RenderedTerm(term.e, folded))
    return tuple(out)


def _exp_n(m: int) -> str:
    return "n" if m == 1 else f"{m}n"


def _term(rt: RenderedTerm, braces: str, joiner: str) -> str:
    """One sign-normalized term, exponents wrapped in braces "()" or "{}"."""
    lb, rb = braces
    parts = []
    if rt.e:
        parts.append(f"z^{lb}{_exp_n(rt.e)}{rb}")
    for sf in rt.factors:
        sign = "+" if sf.sign > 0 else "-"
        zpart = f" z^{lb}{_exp_n(sf.c)}{rb}" if sf.c else ""
        parts.append(f"(1 {sign} x^{lb}{_exp_n(1 << sf.j)}{rb}{zpart})")
    return joiner.join(parts)


def render_text(f: SymbolicFormula) -> str:
    """Plain-text rendering; byte-stable, suitable for golden comparisons."""
    if f.k == 1:
        return "x^((n+1)/2)"
    body = " + ".join(_term(rt, "()", "*") for rt in normalize_signs(f))
    return f"2^-{f.k - 1} * x^((n+1)/2) * [ {body} ]"


def render_math(f: SymbolicFormula) -> str:
    """LaTeX rendering of the sign-normalized formula."""
    if f.k == 1:
        return "x^{(n+1)/2}"
    body = " + ".join(_term(rt, "{}", " ") for rt in normalize_signs(f))
    return f"2^{{-{f.k - 1}}} x^{{(n+1)/2}} \\left[ {body} \\right]"


def formula_to_doc(f: SymbolicFormula) -> dict:
    """Structured machine-readable document mirroring the Term/Factor fields."""
    return {
        "kind": "sqrt_formula",
        "k": f.k,
        "inverse_power_of_two": f.k - 1,
        "x_exponent": "(n+1)/2",
        "terms": [
            {
                "t": t,
                "e": term.e,
                "factors": [{"j": fc.j, "c": fc.c} for fc in term.factors],
            }
            for t, term in enumerate(f.terms)
        ],
    }


class ExpandedPolynomial(NamedTuple):
    """Sparse coefficient form: (exponent, coefficient) pairs, exponents
    strictly decreasing, coefficients nonzero in [1, p)."""

    p: int
    terms: tuple[tuple[int, int], ...]

    @property
    def degree(self) -> int:
        return self.terms[0][0] if self.terms else -1

    def text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for ex, co in self.terms:
            if ex == 0:
                bits.append(str(co))
            else:
                head = "" if co == 1 else str(co)
                bits.append(f"{head}x" if ex == 1 else f"{head}x^{ex}")
        return " + ".join(bits)


def expand(ctx: PrimeContext) -> ExpandedPolynomial:
    """The formula for ctx's prime multiplied out over F_p, prefactor included.

    The coefficient of x^(i n + (n+1)/2), for each i < 2^(k-1), is
    2^-(k-1) * 2w/(w - 1) with w = g^-(2i+1) and g = z^n, computed as
    2^-(k-1) * 2/(1 - g^(2i+1)): one zn_pow lookup and one inverse.  The
    sum over classes behind it is geometric because e_t = -t mod 2^(k-1)
    (sign -1 for t >= 1); w has order 2^k, so no coefficient is 0 and there
    are exactly 2^(k-1) terms.  Exponents are plain integers, never reduced
    mod x^p - x.
    """
    if ctx.k > MAX_K:
        raise ValueError(
            f"expand supports k<={MAX_K} (MAX_K); p={ctx.p} has k={ctx.k}"
        )
    p, n = ctx.p, ctx.n
    scale = pow(2, 2 - ctx.k, p)
    off = (n + 1) // 2
    terms = tuple(
        (i * n + off, scale * pow(1 - ctx.zn_pow(2 * i + 1), -1, p) % p)
        for i in range((1 << (ctx.k - 1)) - 1, -1, -1)
    )
    return ExpandedPolynomial(p, terms)


def degree_check(poly: ExpandedPolynomial, ctx: PrimeContext) -> bool:
    """True iff the degree is 2^(k-1) n - (n-1)/2 and there are 2^(k-1) terms."""
    want = (1 << (ctx.k - 1)) * ctx.n - (ctx.n - 1) // 2
    return poly.degree == want and len(poly.terms) == 1 << (ctx.k - 1)
