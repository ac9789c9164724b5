"""The synthesized formula evaluated term by term: the tests' reference.

The package computes every root by the class lift, which takes only the one
live term of the bracket.  These helpers evaluate every term of
synthesize(k)'s document at x from its keys instead, so the
differential tests compare the lift with the paper's polynomial itself;
expanded_at evaluates expand's multiplied-out form, degree_check holds it to
the closed form's shape, and residue_class names the live term by the
direct method's bit-by-bit lift.  expand_per_term and
render_per_term are the straightforward forms of expand and the renderers,
which the package computes with one shared inverse and one string per
distinct factor; render_per_term renders normalize_signs(f), the formula
with its signs folded into SignedFactor and RenderedTerm records.

prefix_is_prime is the primality test the package once had, Miller-Rabin
to a prefix of the primes 2..41 by size, each base's power one builtin pow;
make_context's proof and is_prime are held to it.  search_power_plan is
_power_plan's chain search without the early return on cheap powers.
"""

from typing import NamedTuple

from sqrtmodp.formulas import NotAResidue
from sqrtmodp.modarith import MulCounter, legendre
from sqrtmodp.oracles import _lift_class


class SignedFactor(NamedTuple):
    """A factor after sign folding: (1 sign x^(2^j n) z^(cn)) with c < 2^(k-1)."""

    sign: int  # +1 or -1
    j: int
    c: int


class RenderedTerm(NamedTuple):
    e: int
    factors: tuple[SignedFactor, ...]


def normalize_signs(f):
    """Fold z-exponents >= 2^(k-1) into minus signs via z^(2^(k-1) n) = -1,
    every factor of every term anew."""
    half = 1 << (f["k"] - 1)
    return tuple(
        RenderedTerm(
            term["e"],
            tuple(
                SignedFactor(-1, fc["j"], fc["c"] - half)
                if fc["c"] >= half
                else SignedFactor(1, fc["j"], fc["c"])
                for fc in term["factors"]
            ),
        )
        for term in f["terms"]
    )


def _x_levels(ctx, x):
    """x^(2^j n) for j = 0..k-2: one power, then k-2 squarings."""
    p = ctx.p
    if ctx.k == 1:
        return []
    xp = [pow(x, ctx.n, p)]
    for _ in range(ctx.k - 2):
        xp.append(xp[-1] * xp[-1] % p)
    return xp


def term_values(f, ctx, x):
    """Each bracket term's value at x; at a residue exactly one is nonzero.

    Factor values are kept per (j, c) across the terms of one call.  A factor that
    evaluates to 0 zeroes its whole term, so the walk stops there.
    """
    assert f["k"] == ctx.k, f"formula has k={f['k']}, context has k={ctx.k}"
    p = ctx.p
    xp = _x_levels(ctx, x)
    cache = {}
    values = []
    for term in f["terms"]:
        v = ctx.zn_pow(term["e"])
        for fc in term["factors"]:
            key = (fc["j"], fc["c"])
            fv = cache.get(key)
            if fv is None:
                fv = cache[key] = (1 + xp[fc["j"]] * ctx.zn_pow(fc["c"])) % p
            if fv == 0:
                v = 0
                break
            v = v * fv % p
        values.append(v)
    return values


# (k, p, x^n) -> the bracket sum of synthesize(k) at any x with that x^n
_bracket_sums = {}


def evaluate_at(f, ctx, x):
    """Raw value of the defining expression at any x, residue or not.

    Every factor is 1 + (x^n)^(2^j) z^(cn), so the bracket depends on x only
    through x^n, and its sum is kept per (k, p, x^n): the residues of one
    prime take 2^(k-1) values of x^n, so a walk over all of them sums the
    2^(k-1)-term bracket 2^(k-1) times, not (p-1)/2 times.  The formula of
    each k is synthesize(k)'s.
    """
    p = ctx.p
    key = (f["k"], p, pow(x, ctx.n, p))
    total = _bracket_sums.get(key)
    if total is None:
        total = _bracket_sums[key] = sum(term_values(f, ctx, x)) % p
    return pow(2, 1 - f["k"], p) * pow(x, (ctx.n + 1) // 2, p) % p * total % p


def evaluate(f, ctx, a):
    """The canonical pair (root, coroot), root <= coroot, of the formula's
    value at the residue a; (0, 0) at a = 0."""
    p = ctx.p
    raw = evaluate_at(f, ctx, a)
    root = min(raw, p - raw) if raw else 0
    return root, p - root if root else 0


def expanded_at(terms, p, x):
    """The value at x mod p of expand's (exponent, coefficient) pairs:
    Horner over the gaps between exponents, from the first term down, with
    a new power of x only where the gap changes; expand's exponents
    i n + (n+1)/2 have the one gap n."""
    if not terms:
        return 0
    last, acc = terms[0]
    gap, y = 0, 1
    for ex, co in terms[1:]:
        if last - ex != gap:
            gap = last - ex
            y = pow(x, gap, p)
        acc = (acc * y + co) % p
        last = ex
    return acc * pow(x, last, p) % p


def degree_check(terms, ctx):
    """True iff the degree is 2^(k-1) n - (n-1)/2 and there are 2^(k-1) terms."""
    want = (1 << (ctx.k - 1)) * ctx.n - (ctx.n - 1) // 2
    return terms[0][0] == want and len(terms) == 1 << (ctx.k - 1)


def residue_class(ctx, a):
    """The unique t in [0, 2^(k-1)) with a^n = z^(2tn) mod p."""
    if not 0 <= a < ctx.p:
        raise ValueError(f"residue {a} out of range for p={ctx.p}")
    if legendre(a, ctx.p) != 1:
        raise NotAResidue(a, ctx.p)
    return _lift_class(ctx, a, pow(a, ctx.n, ctx.p), MulCounter())


def expand_per_term(ctx):
    """expand's closed form taken one term at a time: the coefficient of
    x^(i n + (n+1)/2) is 2^-(k-1) * 2/(1 - g^(2i+1)), g = z^n, from one
    zn_pow lookup and one inverse per term."""
    p, n = ctx.p, ctx.n
    scale = pow(2, 2 - ctx.k, p)
    off = (n + 1) // 2
    return tuple(
        (i * n + off, scale * pow(1 - ctx.zn_pow(2 * i + 1), -1, p) % p)
        for i in range((1 << (ctx.k - 1)) - 1, -1, -1)
    )


def _exp_n(m):
    return "n" if m == 1 else f"{m}n"


def _term(rt, braces, joiner):
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


def render_per_term(f, style):
    """render_text (style "text") or render_math ("math") of f, formatting
    every factor of every term of normalize_signs(f) anew."""
    text = style == "text"
    if f["k"] == 1:
        return "x^((n+1)/2)" if text else "x^{(n+1)/2}"
    braces, joiner = ("()", "*") if text else ("{}", " ")
    body = " + ".join(_term(rt, braces, joiner) for rt in normalize_signs(f))
    if text:
        return f"2^-{f['k'] - 1} * x^((n+1)/2) * [ {body} ]"
    return f"2^{{-{f['k'] - 1}}} x^{{(n+1)/2}} \\left[ {body} \\right]"


# (bound, t): the first t primes of 2..41 are proven Miller-Rabin bases for
# every m below bound (Jaeschke 1993; Jiang and Deng 2014; Sorenson and
# Webster 2015).
_PREFIX_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PREFIX_TIERS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def prefix_is_prime(m):
    """Trial division by 2..41, then strong rounds to the first t of them."""
    if m < 2:
        return False
    for q in _PREFIX_WITNESSES:
        if m == q:
            return True
        if m % q == 0:
            return False
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    t = next(t for bound, t in _PREFIX_TIERS if m < bound)
    for a in _PREFIX_WITNESSES[:t]:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _square_multiply_cost(e):
    return e.bit_length() + bin(e).count("1") - 2 if e > 0 else 0


def search_power_plan(e, saves=12):
    """(e0, chain) as _power_plan plans a^e, the chain searched for every e:
    the run of e's top ones doubled, one tail step, and (e, ()) unless the
    chain saves at least `saves` products."""
    length = e.bit_length()
    t = (e ^ ((1 << length) - 1)).bit_length()
    ones = length - t
    shift = max(ones.bit_length() - 2, 0)
    j = ones >> shift
    e0, steps = (1 << j) - 1, []
    for i in reversed(range(shift)):
        b = ones >> i & 1
        steps.append((((1 << j) + 1) << b, b))
        j = 2 * j + b
    if t:
        steps.append((1 << t, e & ((1 << t) - 1)))
    cost = _square_multiply_cost(e0) + sum(
        _square_multiply_cost(f) + (_square_multiply_cost(r) + 1 if r else 0) for f, r in steps
    )
    if _square_multiply_cost(e) - cost < saves:
        return e, ()
    chain = ()
    for step in reversed(steps):
        chain = step, chain
    return e0, chain
