"""Independent square-root algorithms: ground truth and classical baselines."""

from .formulas import NotAResidue, SqrtOutcome, _canonical, _screen
from .modarith import MulCounter, PrimeContext, legendre, mod_pow

__all__ = [
    "BRUTE_LIMIT",
    "brute_force_sqrt",
    "direct_sqrt",
    "residue_class",
    "tonelli_shanks",
]

BRUTE_LIMIT = 1 << 20


def brute_force_sqrt(p: int, a: int) -> set[int]:
    """Exact root set {r : r^2 = a mod p} by scanning; p capped at 2^20."""
    if p > BRUTE_LIMIT:
        raise ValueError(f"p={p} exceeds the exhaustion bound 2^20")
    if not 0 <= a < p:
        raise ValueError(f"residue {a} out of range for p={p}")
    return {r for r in range(p) if r * r % p == a}


def tonelli_shanks(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Classical iterative refinement, seeded with the context's nonresidue."""
    p = ctx.p
    c = MulCounter()
    _screen(ctx, a, c)
    if a == 0:
        return _canonical(0, p, "tonelli", c.count)
    x = mod_pow(a, (ctx.n + 1) // 2, p, c)
    t = mod_pow(a, ctx.n, p, c)
    w = ctx.zn_pow(1, c)  # z^n, a generator of the 2-part
    m = ctx.k
    while t != 1:
        t2, i = c.mul(t, t, p), 1
        while t2 != 1:
            t2 = c.mul(t2, t2, p)
            i += 1
        b = mod_pow(w, 1 << (m - i - 1), p, c)
        x = c.mul(x, b, p)
        w = c.mul(b, b, p)
        t = c.mul(t, w, p)
        m = i
    return _canonical(x, p, "tonelli", c.count)


def _lift_class(ctx: PrimeContext, an: int, counter: MulCounter | None) -> int:
    """Bit-by-bit discrete log of an = a^n in the group generated by z^(2n)."""
    p = ctx.p
    cur, t = an, 0
    for i in range(ctx.k - 1):
        if mod_pow(cur, 1 << (ctx.k - 2 - i), p, counter) == p - 1:
            t |= 1 << i
            w = ctx.zn_pow((1 << ctx.k) - (1 << (i + 1)), counter)  # z^(-2^(i+1) n)
            cur = counter.mul(cur, w, p) if counter else cur * w % p
    if cur != 1:
        raise ArithmeticError(f"no class index matches for p={p}; context invalid")
    return t


def residue_class(
    ctx: PrimeContext, a: int, counter: MulCounter | None = None
) -> int:
    """The unique t in [0, 2^(k-1)) with a^n = z^(2tn) mod p."""
    if not 0 <= a < ctx.p:
        raise ValueError(f"residue {a} out of range for p={ctx.p}")
    if legendre(a, ctx.p) != 1:
        raise NotAResidue(f"{a} is not a nonzero quadratic residue mod {ctx.p}")
    return _lift_class(ctx, mod_pow(a, ctx.n, ctx.p, counter), counter)


def direct_sqrt(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Root a^((n+1)/2) * z^(en) with e = -class(a) mod 2^(k-1)."""
    p = ctx.p
    c = MulCounter()
    _screen(ctx, a, c)
    if a == 0:
        return _canonical(0, p, "direct", c.count)
    an = mod_pow(a, ctx.n, p, c)
    t = _lift_class(ctx, an, c)
    e = (-t) % (1 << (ctx.k - 1))
    ah = mod_pow(a, (ctx.n + 1) // 2, p, c)
    raw = c.mul(ah, ctx.zn_pow(e, c), p)
    return _canonical(raw, p, "direct", c.count)
