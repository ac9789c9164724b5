"""The class-formula evaluator, sqrt_auto.

The square root of a residue a is 2^-(k-1) a^((n+1)/2) times a bracket of
nonresidue-power terms that collapses, at any quadratic residue, to the
single selector for the residue's class.  One evaluator, sqrt_auto,
computes it for every k in one Python frame; the command line's methods
auto, f1..f4 and synth all run it (cli checks f1..f4's k first).  It
takes one shared power per call, a^((n-1)/2), by the addition chain its
context plans once (modarith._power_plan); a^((n+1)/2) and a^n follow
from it by two products.  The bracket's k-1 level factors each fix one bit
of the class index t; the evaluator reads e = -t mod 2^(k-1), the exponent
of the multiplier z^(en), 8 bits at a time instead, from s = 2e, the log
of a^n in z^(-n): one log-table lookup per window of s after k - min(8, k)
squarings (the windowed discrete log of Bernstein 2001 and Sarkar, IACR
ePrint 2020/1407).  The low bit of s is Euler's symbol, so the screen costs
nothing more.  Each later window multiplies the digits already read back
in, and the multiplier is built, by reads of the context's rows of z^(jn),
one product each: the walk calls no zn_pow.  The root is the
bracket's one live term, a^((n+1)/2) z^(en).  At k = 1 the bracket is empty
and the root is the bare power a^((n+1)/2).  The count is the lift's cost,
and the method tag (f1..f4 at k <= 4, synth above) the context's, both
fixed once per context.
"""

from typing import NamedTuple

from .modarith import _DIGIT, _W, PrimeContext

__all__ = ["NotAResidue", "SqrtOutcome", "sqrt_auto"]


class NotAResidue(Exception):
    """The input has Legendre symbol -1: no square root exists."""


class SqrtOutcome(NamedTuple):
    """A canonical square root: root <= p - root, coroot the other sign."""

    root: int
    coroot: int
    method: str
    mul_count: int


# _new_tuple(SqrtOutcome, fields) is the call SqrtOutcome._make makes; the
# hot path uses it to skip the generated __new__ and its argument binding.
_new_tuple = tuple.__new__


def sqrt_auto(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Square root of a via the class formula, for any k, its class index
    read 8 bits per table lookup.

    One power u = a^((n-1)/2), by a walk of the chain ctx._power, gives
    root = a^((n+1)/2) = a u and a^n = root u = g^(-s), g = z^n, s < 2^k.
    Windows of w = min(8, k) bits go from the low end of s.  The squares
    a^(2^m n) at the windows' shifts m come first, by the powers ctx._steps,
    k - w squarings in all; the last, a^(2^(k-w) n), is h^(-d) for
    h = g^(2^(k-w)), and ctx._log gives the low digit d.  Each later
    window takes its saved square, multiplies the digits already known back
    in, g^(2^m s), with one product per row of ctx.zn_rows, and looks the
    next digit up; the last window may overlap the one before it.  The
    first digit's low bit is s mod 2, Euler's symbol, so it is the screen.
    At k <= 8 s is one lookup of a^n, with no squarings.

    s = 2e for the paper's e = -t mod 2^(k-1), t the class index, so the
    root is the paper's value at a, a^((n+1)/2) z^(en): root times g^e, one
    row read and one product per 8 bits of e, so at k <= 8 root times
    zn_rows[0][e].  At k = 1 e has no bits, the bracket is empty and the
    root is the bare power.  No zn_pow is called.

    mul_count is ctx._cost, modarith._class_cost(n, k): the same for every
    nonzero residue of the prime, priced once per context, and 0 at a = 0.
    The method is ctx._method: f1..f4 at k <= 4 and synth above.  The body
    calls no Python function, so a call is one frame.
    """
    p = ctx.p
    if not 0 <= a < p:
        raise ValueError(f"residue {a} out of range for p={p}")
    if a == 0:  # every factor is 1 at x = 0, so no class is singled out
        return SqrtOutcome(0, 0, ctx._method, 0)
    e0, chain = ctx._power  # u = a^((n-1)/2) by the context's addition chain
    u = pow(a, e0, p)
    while chain:
        (f, r), chain = chain
        u = pow(u, f, p)
        if r:
            u = u * pow(a, r, p) % p
    root = a * u % p
    x = root * u % p  # a^n = g^(-s)
    # a^(2^m n) for each window after the first, with its m and its digit's
    # shift, on a stack of tuples (square, m, shift, rest): empty at k <= 8
    squares = ()
    plan = ctx._steps
    while plan:
        (step, m, shift), plan = plan
        squares = x, m, shift, squares
        x = pow(x, step, p)
    log = ctx._log
    s = log[x]
    if s & 1:  # s mod 2 is Euler's symbol: a^((p-1)/2) = g^(-2^(k-1) s)
        raise NotAResidue(f"{a} is not a quadratic residue mod {p}")
    while squares:  # the top square first
        x, m, shift, squares = squares
        e = s << m  # multiplies the digits already known back in: g^(2^m s)
        for row in ctx.zn_rows:
            x = x * row[e & _DIGIT] % p
            e >>= _W
        s += log[x] << shift
    e = s >> 1  # the paper's e: the root is a^((n+1)/2) g^e
    rows = ctx._t_rows
    while rows:
        row, rows = rows
        root = root * row[e & _DIGIT] % p
        e >>= _W
    if root > p - root:  # root != 0, since a != 0
        root = p - root
    return _new_tuple(SqrtOutcome, (root, p - root, ctx._method, ctx._cost))
