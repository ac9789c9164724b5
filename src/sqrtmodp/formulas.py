"""The class-formula evaluator and its named entry points for k = 1..4.

The square root of a residue a is 2^-(k-1) a^((n+1)/2) times a bracket of
nonresidue-power terms that collapses, at any quadratic residue, to the
single selector for the residue's class.  One private evaluator computes it
for every k: sqrt_f1..sqrt_f4, sqrt_auto and synthesis.sqrt_synth differ
only in the class they accept and the method tag they report.  It takes
one shared power per call, a^((n-1)/2); a^((n+1)/2), the levels a^(2^j n)
and the Euler screen a^((p-1)/2) follow from it by two products and k-1
squarings.  At k = 1 the bracket is empty and the root is the bare power
a^((n+1)/2), with no walk; for k > 1 the walk through the bracket follows
one path.  The count is the paper's cost of the formula, priced once per
(n, k).  sqrt_auto hands k > 4 to sqrt_synth, read from the synthesis
module at each call.
"""

from functools import lru_cache
from typing import NamedTuple

from .modarith import MulCounter, PrimeContext, _lookup_cost, _pow_cost, mod_pow

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


def _screen(ctx: PrimeContext, a: int, counter: MulCounter) -> None:
    """Reject out-of-range and nonresidue inputs; one Euler-criterion power."""
    if not 0 <= a < ctx.p:
        raise ValueError(f"residue {a} out of range for p={ctx.p}")
    if a and mod_pow(a, (ctx.p - 1) // 2, ctx.p, counter) == ctx.p - 1:
        raise NotAResidue(f"{a} is not a quadratic residue mod {ctx.p}")


def _canonical(raw: int, p: int, method: str, count: int) -> SqrtOutcome:
    root = min(raw, p - raw) if raw else 0
    return SqrtOutcome(root, p - root if root else 0, method, count)


def _factor_c(t: int, j: int, k: int) -> int:
    """z-exponent coefficient of class t's level-j factor: -2^(j+1) t mod 2^k.

    It depends only on t mod 2^(k-1-j), the low k-1-j bits of t.
    """
    return (-(t << (j + 1))) % (1 << k)


def _x_levels(ctx: PrimeContext, x: int, counter: MulCounter | None) -> list[int]:
    """x^(2^j n) for j = 0..k-2: one power, then k-2 squarings."""
    p, k = ctx.p, ctx.k
    if k == 1:
        return []
    xp = [mod_pow(x, ctx.n, p, counter)]
    for _ in range(k - 2):
        xp.append(xp[-1] * xp[-1] % p)
    if counter is not None:
        counter.count += k - 2
    return xp


@lru_cache(maxsize=256)
def _class_cost(n: int, k: int) -> int:
    """The formula's cost as the paper writes it: a^((n-1)/2), two products and
    k-1 squarings; for k > 1 a product and a factor per level, the multiplier
    z^(en), the scale (2^-1)^(k-1) and the two products that apply it.  The
    k-1 factors and the multiplier are k zn_pow lookups of ceil(k/8) - 1
    products each.

    It depends on (n, k) alone, so it is priced once per pair; the memo is
    bounded, so a sweep over many primes cannot grow it without limit."""
    lookups = k * _lookup_cost(k)
    walk = 2 * (k - 1) + 1 + lookups + _pow_cost(k - 1) + 2 if k > 1 else 0
    return _pow_cost((n - 1) // 2) + 2 + (k - 1) + walk


def _class_root(ctx: PrimeContext, a: int, method: str) -> SqrtOutcome:
    """Square root of a via the class formula, walking its one live path.

    One power u = a^((n-1)/2) gives the rest: a^((n+1)/2) = a u, a^n =
    a^((n+1)/2) u, and k-1 squarings give the levels a^(2^j n) for j = 0..k-1.
    The last level is a^((p-1)/2), Euler's symbol, so it is the screen.  At
    k = 1 that level is a^n itself and the bracket is empty: the root is the
    bare power a^((n+1)/2), and no walk is made.

    The bracket's terms are the leaves of a binary tree of factors.  Level j,
    from k-2 down to 0, fixes bit k-2-j of the class index t; the two
    children of a node are 1 + prod and 1 - prod for one product
    prod = x^(2^j n) z^(cn).  With a^n = z^(2sn), the node on the path agrees
    with s on the bits fixed so far, so prod = z^(2^(k-1) n m) = +-1 and
    exactly one child is nonzero: the walk keeps one t.  The live child is 2
    at every level, so the live term is 2^(k-1) z^(en), e = -t mod 2^(k-1),
    and the prefactor 2^-(k-1) cancels its 2^(k-1): the root is
    a^((n+1)/2) z^(en), and neither side of the cancellation is computed.

    mul_count is _class_cost(n, k), the paper's cost of the formula as
    written, cancelling factors included: the same for every nonzero residue
    of the prime, priced once per (n, k), and 0 at a = 0.
    """
    p, k = ctx.p, ctx.k
    if not 0 <= a < p:
        raise ValueError(f"residue {a} out of range for p={p}")
    if a == 0:  # every factor is 1 at x = 0, so no path is singled out
        return SqrtOutcome(0, 0, method, 0)
    u = pow(a, (ctx.n - 1) // 2, p)
    root = a * u % p
    x = root * u % p  # a^n, level 0
    if k > 1:
        xp = [x]
        for _ in range(k - 2):
            x = x * x % p
            xp.append(x)
        x = x * x % p
    if x == p - 1:  # x = a^(2^(k-1) n) = a^((p-1)/2)
        raise NotAResidue(f"{a} is not a quadratic residue mod {p}")
    if k > 1:
        zn_pow = ctx.zn_pow
        t = 0
        for j in range(k - 2, -1, -1):
            prod = xp[j] * zn_pow(_factor_c(t, j, k)) % p
            if prod == p - 1:  # 1 + prod is 0: the live child sets the bit
                t |= 1 << (k - 2 - j)
            elif prod != 1:
                raise ArithmeticError(f"no class index matches for p={p}; context invalid")
        root = root * zn_pow(-t % (1 << (k - 1))) % p
    root = min(root, p - root)  # root != 0, since a != 0
    return SqrtOutcome(root, p - root, method, _class_cost(ctx.n, k))


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
