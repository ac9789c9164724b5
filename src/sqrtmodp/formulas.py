"""The class-formula evaluator and its named entry points for k = 1..4.

The square root of a residue a is 2^-(k-1) a^((n+1)/2) times a bracket of
nonresidue-power terms that collapses, at any quadratic residue, to the
single selector for the residue's class.  One private evaluator computes it
for every k: sqrt_f1..sqrt_f4, sqrt_auto and synthesis.sqrt_synth differ
only in the class they accept and the method tag they report.  It takes
one shared power per call, a^((n-1)/2); a^((n+1)/2) and a^n = z^(sn) follow
from it by two products.  The bracket's k-1 level factors each fix one bit
of the class index t = s/2; the evaluator reads those bits 8 at a time
instead, by one log-table lookup per window of s after k - min(8, k)
squarings (the windowed discrete log of Bernstein 2001 and Sarkar, IACR
ePrint 2020/1407), and the low bit of s is Euler's symbol, so the screen
costs nothing more.  The root is the bracket's one live term, a^((n+1)/2)
z^(en).  At k = 1 the bracket is empty and the root is the bare power
a^((n+1)/2).  The count is the lift's cost, priced once per context.
sqrt_auto hands k > 4 to sqrt_synth, read from the synthesis module at each
call.
"""

from typing import NamedTuple

from .modarith import _W, PrimeContext

__all__ = [
    "NotAResidue",
    "SqrtOutcome",
    "WrongClass",
    "sqrt_auto",
    "sqrt_f1",
    "sqrt_f2",
    "sqrt_f3",
    "sqrt_f4",
]


class NotAResidue(Exception):
    """The input has Legendre symbol -1: no square root exists."""


class WrongClass(ValueError):
    """Evaluator applied to a context whose 2-adic class k does not match."""


class SqrtOutcome(NamedTuple):
    """A canonical square root: root <= p - root, coroot the other sign."""

    root: int
    coroot: int
    method: str
    mul_count: int


# _new_tuple(SqrtOutcome, fields) is the call SqrtOutcome._make makes; the
# hot path uses it to skip the generated __new__ and its argument binding.
_new_tuple = tuple.__new__


def _class_root(ctx: PrimeContext, a: int, method: str) -> SqrtOutcome:
    """Square root of a via the class formula, its class index read 8 bits
    per table lookup.

    One power u = a^((n-1)/2) gives root = a^((n+1)/2) = a u and a^n =
    root u = g^s, g = z^n.  Windows of w = min(8, k) bits go from the low end
    of s: a^n squared k - w times is h^d, h = g^(2^(k-w)), and ctx._log gives
    the low digit d.  Each later window takes the saved square a^(2^m n) for
    its shift m, divides out the bits already known with one zn_pow and one
    product, and looks the next digit up; the last window may overlap the
    one before it.  The first digit's low bit is s mod 2, Euler's symbol, so
    it is the screen.  At k <= 8 s is one lookup of a^n, with no squarings.

    s = 2t for the class index t, and the root is the paper's value at a,
    a^((n+1)/2) z^(en) with e = -t mod 2^(k-1), up to sign: root times
    zn_pow(-s/2).  At k = 1 the bracket is empty and the root is the bare
    power.

    mul_count is ctx._cost, modarith._class_cost(n, k): the same for every
    nonzero residue of the prime, priced once per context, and 0 at a = 0.
    """
    p, k = ctx.p, ctx.k
    if not 0 <= a < p:
        raise ValueError(f"residue {a} out of range for p={p}")
    if a == 0:  # every factor is 1 at x = 0, so no class is singled out
        return SqrtOutcome(0, 0, method, 0)
    u = pow(a, (ctx.n - 1) // 2, p)
    root = a * u % p
    x = root * u % p  # a^n = g^s
    log = ctx._log
    if k <= _W:
        s = log[x]
    else:
        squares = [x]  # squares[m] = a^(2^m n)
        for _ in range(k - _W):
            x = x * x % p
            squares.append(x)
        s = log[x]
        if not s & 1:
            zn_pow = ctx.zn_pow
            for m in range(k - 2 * _W, -_W, -_W):
                m = max(m, 0)  # the last window may overlap the one before
                d = log[squares[m] * zn_pow(-s << m) % p]
                s += d << (k - _W - m)
    if s & 1:  # s mod 2 is Euler's symbol: a^((p-1)/2) = g^(2^(k-1) s)
        raise NotAResidue(f"{a} is not a quadratic residue mod {p}")
    if k > 1:
        root = root * ctx.zn_pow(-(s >> 1)) % p
    if root > p - root:  # root != 0, since a != 0
        root = p - root
    return _new_tuple(SqrtOutcome, (root, p - root, method, ctx._cost))


_TAGS = ("f1", "f2", "f3", "f4")


def _sqrt_fk(k: int, ctx: PrimeContext, a: int) -> SqrtOutcome:
    if ctx.k != k:
        raise WrongClass(f"f{k} needs k={k}, context has k={ctx.k}")
    return _class_root(ctx, a, _TAGS[k - 1])


def sqrt_f1(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Root a^((n+1)/2) for k = 1, i.e. p = 2n + 1 with n odd (p = 3 mod 4)."""
    return _sqrt_fk(1, ctx, a)


def sqrt_f2(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Two-term bracket for k = 2 (p = 5 mod 8, where z is always 2)."""
    return _sqrt_fk(2, ctx, a)


def sqrt_f3(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Four-term bracket for k = 3 (p = 2^3 n + 1)."""
    return _sqrt_fk(3, ctx, a)


def sqrt_f4(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Eight-term bracket for k = 4 (p = 2^4 n + 1)."""
    return _sqrt_fk(4, ctx, a)


def sqrt_auto(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """The class formula, tagged f1..f4 for k <= 4 and handed to
    synthesis.sqrt_synth, looked up at each call, for larger k."""
    k = ctx.k
    if k <= 4:
        return _class_root(ctx, a, _TAGS[k - 1])
    return _synthesis.sqrt_synth(ctx, a)


# Last, because synthesis imports names from this module.
from . import synthesis as _synthesis  # noqa: E402
