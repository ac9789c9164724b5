"""Hard-coded product-form square-root evaluators for the classes k = 1..4.

Each evaluator computes a^((n+1)/2) times a bracket of nonresidue-power terms
that collapses, at any quadratic residue, to the single selector for the
residue's class.  The bracket is always summed in full, with no
data-dependent branching, so the multiplication count is the same for every
residue of a given prime.
"""

from dataclasses import dataclass

from .modarith import MulCounter, PrimeContext, mod_pow

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


@dataclass(frozen=True)
class SqrtOutcome:
    """A canonical square root: root <= p - root, coroot the other sign."""

    root: int
    coroot: int
    method: str
    mul_count: int


def _screen(ctx: PrimeContext, a: int, counter: MulCounter) -> None:
    """Reject out-of-range and nonresidue inputs; one Euler-criterion power."""
    if not 0 <= a < ctx.p:
        raise ValueError(f"residue {a} out of range for p={ctx.p}")
    if a == 0:
        return
    if mod_pow(a, (ctx.p - 1) // 2, ctx.p, counter) == ctx.p - 1:
        raise NotAResidue(f"{a} is not a quadratic residue mod {ctx.p}")


def _canonical(raw: int, p: int, method: str, counter: MulCounter) -> SqrtOutcome:
    root = min(raw, p - raw) if raw else 0
    coroot = p - root if root else 0
    return SqrtOutcome(root, coroot, method, counter.count)


def sqrt_f1(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Root a^((n+1)/2) for k = 1, i.e. p = 2n + 1 with n odd (p = 3 mod 4)."""
    if ctx.k != 1:
        raise WrongClass(f"f1 needs k=1, context has k={ctx.k}")
    c = MulCounter()
    _screen(ctx, a, c)
    raw = mod_pow(a, (ctx.n + 1) // 2, ctx.p, c)
    return _canonical(raw, ctx.p, "f1", c)


def sqrt_f2(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Two-term bracket for k = 2 (p = 5 mod 8, where z is always 2)."""
    if ctx.k != 2:
        raise WrongClass(f"f2 needs k=2, context has k={ctx.k}")
    p = ctx.p
    c = MulCounter()
    _screen(ctx, a, c)
    ah = mod_pow(a, (ctx.n + 1) // 2, p, c)
    an = mod_pow(a, ctx.n, p, c)
    z1 = ctx.zn_pow(1)
    bracket = (c.mul(z1, 1 - an, p) + 1 + an) % p
    raw = c.mul(c.mul(ctx.half_pow(1, c), ah, p), bracket, p)
    return _canonical(raw, p, "f2", c)


def sqrt_f3(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Four-term bracket for k = 3 (p = 2^3 n + 1)."""
    if ctx.k != 3:
        raise WrongClass(f"f3 needs k=3, context has k={ctx.k}")
    p = ctx.p
    c = MulCounter()
    _screen(ctx, a, c)
    ah = mod_pow(a, (ctx.n + 1) // 2, p, c)
    an = mod_pow(a, ctx.n, p, c)
    a2n = c.mul(an, an, p)
    z1, z2, z3 = ctx.zn_pow(1), ctx.zn_pow(2), ctx.zn_pow(3)
    anz2 = c.mul(an, z2, p)
    t1 = c.mul(c.mul(z3, 1 - a2n, p), 1 - anz2, p)
    t2 = c.mul(c.mul(z1, 1 - a2n, p), 1 + anz2, p)
    t3 = c.mul(c.mul(z2, 1 + a2n, p), 1 - an, p)
    t4 = c.mul(1 + a2n, 1 + an, p)
    bracket = (t1 + t2 + t3 + t4) % p
    raw = c.mul(c.mul(ctx.half_pow(2, c), ah, p), bracket, p)
    return _canonical(raw, p, "f3", c)


def sqrt_f4(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Eight-term bracket for k = 4 (p = 2^4 n + 1)."""
    if ctx.k != 4:
        raise WrongClass(f"f4 needs k=4, context has k={ctx.k}")
    p = ctx.p
    c = MulCounter()
    _screen(ctx, a, c)
    ah = mod_pow(a, (ctx.n + 1) // 2, p, c)
    an = mod_pow(a, ctx.n, p, c)
    a2n = c.mul(an, an, p)
    a4n = c.mul(a2n, a2n, p)
    zp = ctx.zn_pow
    anz2 = c.mul(an, zp(2), p)
    anz4 = c.mul(an, zp(4), p)
    anz6 = c.mul(an, zp(6), p)
    a2nz4 = c.mul(a2n, zp(4), p)
    m4, p4 = 1 - a4n, 1 + a4n
    t1 = c.mul(c.mul(c.mul(zp(7), m4, p), 1 - a2nz4, p), 1 - anz6, p)
    t2 = c.mul(c.mul(c.mul(zp(5), m4, p), 1 - anz2, p), 1 + a2nz4, p)
    t3 = c.mul(c.mul(c.mul(zp(3), m4, p), 1 - a2nz4, p), 1 + anz6, p)
    t4 = c.mul(c.mul(c.mul(zp(1), m4, p), 1 + anz2, p), 1 + a2nz4, p)
    t5 = c.mul(c.mul(c.mul(zp(6), p4, p), 1 - a2n, p), 1 - anz4, p)
    t6 = c.mul(c.mul(c.mul(zp(2), p4, p), 1 - a2n, p), 1 + anz4, p)
    t7 = c.mul(c.mul(c.mul(zp(4), p4, p), 1 + a2n, p), 1 - an, p)
    t8 = c.mul(c.mul(p4, 1 + a2n, p), 1 + an, p)
    bracket = (t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8) % p
    raw = c.mul(c.mul(ctx.half_pow(3, c), ah, p), bracket, p)
    return _canonical(raw, p, "f4", c)


_BY_K = {1: sqrt_f1, 2: sqrt_f2, 3: sqrt_f3, 4: sqrt_f4}


def sqrt_auto(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Dispatch to the hard-coded class evaluator for k <= 4, else to
    sqrt_synth, which walks the class formula for any k."""
    fn = _BY_K.get(ctx.k)
    if fn is not None:
        return fn(ctx, a)
    from .synthesis import sqrt_synth

    return sqrt_synth(ctx, a)
