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
is 0 and the other 2 at each level, so one term is live, and
formulas.sqrt_auto computes only that term from the prime context, for any
k: it reads t 8 bits per table lookup, not one bit per level, with the
same count for every nonzero residue.  The command line's synth method runs
it; the tests check it against this module's formula, term by term.

synthesize builds the formula for k <= MAX_K as the sqrt_formula document
that the synthesize command prints with --format structured: each term t
with its multiplier exponent e and its factors, dicts {"j", "c"} that the
terms share, one per distinct (j, c) pair.  render_text and render_math
take that document.  They fold z-exponents at or above 2^(k-1) into minus
signs via z^(2^(k-1) n) = -1, and fold and format each distinct (j, c)
once per call, keyed by its value, so a document read back from JSON,
whose factors share nothing, renders to the same bytes.

Expanded over F_p, the polynomial has exactly 2^(k-1) nonzero terms and
degree 2^(k-1) n - (n-1)/2.  With g = z^n and y = x^n, term t's factors
multiply out to the sum of y^i g^(-2it) over i < 2^(k-1), and its multiplier
is g^(e_t) = -g^(-t) for t >= 1 (1 for t = 0): e_t = -t mod 2^(k-1) is
2^(k-1) - t there, and g^(2^(k-1)) = -1.  Summed over t, the coefficient of
y^i is a geometric series in w = g^-(2i+1), equal to 2w/(w - 1); w has
order 2^k, so it is never 1 and the coefficient is never 0.  expand
computes the polynomial from this closed form, without the document, and
inverts the 2^(k-1) denominators 1 - g^(2i+1) together: one modular
inverse for the whole polynomial.  It returns the polynomial as a tuple of
(exponent, coefficient) pairs, exponents strictly decreasing and every one
at least (n+1)/2, coefficients in [1, p); the expand command writes the
text form.  The closed form fixes the degree and the term count, so no
check of them lives here: the expand command writes them beside the
polynomial, and the tests hold expand to them.
MAX_K limits synthesize and expand, and analysis.DENSITY_MAX_K = 18 limits
density; sqrt, verify and bench work for any k.
"""

from .modarith import PrimeContext

__all__ = [
    "MAX_K",
    "expand",
    "render_math",
    "render_text",
    "synthesize",
]

MAX_K = 16


def _factor_c(t: int, j: int, k: int) -> int:
    """z-exponent coefficient of class t's level-j factor: -2^(j+1) t mod 2^k.

    It depends only on t mod 2^(k-1-j), the low k-1-j bits of t.
    """
    return (-(t << (j + 1))) % (1 << k)


def synthesize(k: int) -> dict:
    """Build the k-class formula as its sqrt_formula document; no prime is
    needed, exponents stay symbolic.

    Term t carries its multiplier exponent e and its factors {"j", "c"},
    one per level j = k-2 down to 0, each the indicator factor
    (1 + x^(2^j n) z^(cn)); the prefactor 2^-(k-1) x^((n+1)/2) is named by
    inverse_power_of_two and x_exponent.  The terms share their factor
    dicts, one per distinct (j, c) pair, so a caller who edits one factor
    edits every term that uses it.
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
        [{"j": j, "c": _factor_c(t, j, k)} for t in range(1 << (k - 1 - j))]
        for j in range(k - 1)
    ]
    return {
        "kind": "sqrt_formula",
        "k": k,
        "inverse_power_of_two": k - 1,
        "x_exponent": "(n+1)/2",
        "terms": [
            {
                "t": t,
                "e": (-t) % half,
                "factors": [levels[j][t % len(levels[j])] for j in range(k - 2, -1, -1)],
            }
            for t in range(half)
        ],
    }


def _fold(c: int, half: int) -> tuple[int, int]:
    """(sign, c') with z^(cn) = sign z^(c'n) and c' < half = 2^(k-1), by
    z^(half n) = -1: the one place the sign fold is made."""
    return (-1, c - half) if c >= half else (1, c)


def _exp_n(m: int) -> str:
    return "n" if m == 1 else f"{m}n"


def _body(f: dict, braces: str, joiner: str) -> str:
    """The bracket's sign-normalized terms joined by " + ", exponents
    wrapped in braces "()" or "{}", each term's parts joined by joiner.

    Each distinct factor value (j, c) is folded and formatted once, whether
    or not its uses share one dict: the terms hold 2^k - 2 distinct factors
    among their (k-1) 2^(k-1) uses.
    """
    lb, rb = braces
    half = 1 << (f["k"] - 1)
    shown = {}
    terms = []
    for term in f["terms"]:
        parts = [f"z^{lb}{_exp_n(term['e'])}{rb}"] if term["e"] else []
        for fc in term["factors"]:
            key = fc["j"], fc["c"]
            if key not in shown:
                sign, c = _fold(fc["c"], half)
                xpart = f"x^{lb}{_exp_n(1 << fc['j'])}{rb}"
                zpart = f" z^{lb}{_exp_n(c)}{rb}" if c else ""
                shown[key] = f"(1 {'+' if sign > 0 else '-'} {xpart}{zpart})"
            parts.append(shown[key])
        terms.append(joiner.join(parts))
    return " + ".join(terms)


def render_text(f: dict) -> str:
    """Plain-text rendering of synthesize's document; byte-stable, suitable
    for golden comparisons."""
    if f["k"] == 1:
        return "x^((n+1)/2)"
    return f"2^-{f['k'] - 1} * x^((n+1)/2) * [ {_body(f, '()', '*')} ]"


def render_math(f: dict) -> str:
    """LaTeX rendering of synthesize's document, sign-normalized."""
    if f["k"] == 1:
        return "x^{(n+1)/2}"
    return f"2^{{-{f['k'] - 1}}} x^{{(n+1)/2}} \\left[ {_body(f, '{}', ' ')} \\right]"


def expand(ctx: PrimeContext) -> tuple[tuple[int, int], ...]:
    """The formula for ctx's prime multiplied out over F_p, prefactor included.

    The coefficient of x^(i n + (n+1)/2), for each i < 2^(k-1), is
    2^-(k-1) * 2w/(w - 1) with w = g^-(2i+1) and g = z^n, that is
    2 / (2^(k-1) d_i) with d_i = 1 - g^(2i+1).  The g^(2i+1) are running
    products of g^2, and the d_i are inverted together (Montgomery's
    batch inversion): prefix products, one inverse of the last, and a
    backward pass that peels one d_i per term, so about 4 products a term
    and one inverse in all, with no zn_pow.  The sum over classes behind the
    closed form is geometric because e_t = -t mod 2^(k-1) (sign -1 for
    t >= 1); w has order 2^k, so no d_i is 0 and there are exactly 2^(k-1)
    terms.  Exponents are plain integers, never reduced mod x^p - x.
    """
    if ctx.k > MAX_K:
        raise ValueError(
            f"expand supports k<={MAX_K} (MAX_K); p={ctx.p} has k={ctx.k}"
        )
    p, n = ctx.p, ctx.n
    g = ctx.zn_rows[0][1]  # z^n: the first row holds its powers g^d
    g2 = g * g % p
    ds, prefix = [], []  # d_i, and d_0 ... d_(i-1)
    gi = g
    acc = 1
    for _ in range(1 << (ctx.k - 1)):
        d = (1 - gi) % p
        ds.append(d)
        prefix.append(acc)
        acc = acc * d % p
        gi = gi * g2 % p
    # 2 / (2^(k-1) d_0 ... d_i), for i from the top down
    inv = 2 * pow((acc << (ctx.k - 1)) % p, -1, p) % p
    off = (n + 1) // 2
    terms = []
    for i in range(len(ds) - 1, -1, -1):
        terms.append((i * n + off, inv * prefix[i] % p))
        inv = inv * ds[i] % p
    return tuple(terms)
