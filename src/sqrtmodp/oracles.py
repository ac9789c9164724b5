"""Independent square-root algorithms: ground truth and classical baselines."""

from .formulas import NotAResidue, SqrtOutcome
from .modarith import MulCounter, PrimeContext

__all__ = [
    "BRUTE_LIMIT",
    "brute_force_sqrt",
    "direct_sqrt",
    "tonelli_shanks",
]

BRUTE_LIMIT = 1 << 20


def brute_force_sqrt(p: int, a: int) -> set[int]:
    """Exact root set {r : r^2 = a mod p} by scanning; p at most BRUTE_LIMIT."""
    if p > BRUTE_LIMIT:
        raise ValueError(f"brute_force_sqrt supports p<={BRUTE_LIMIT} (BRUTE_LIMIT), got p={p}")
    if not 0 <= a < p:
        raise ValueError(f"residue {a} out of range for p={p}")
    return {r for r in range(p) if r * r % p == a}


def _screen(ctx: PrimeContext, a: int, counter: MulCounter) -> None:
    """Reject out-of-range and nonresidue inputs; one Euler-criterion power."""
    # Not modarith.legendre: this power is part of the cost model, so it is
    # charged to counter and shows in the tonelli and direct counts.
    if not 0 <= a < ctx.p:
        raise ValueError(f"residue {a} out of range for p={ctx.p}")
    if a and counter.pow(a, (ctx.p - 1) // 2, ctx.p) == ctx.p - 1:
        raise NotAResidue(f"{a} is not a quadratic residue mod {ctx.p}")


def _canonical(raw: int, p: int, method: str, count: int) -> SqrtOutcome:
    root = min(raw, p - raw) if raw else 0
    return SqrtOutcome(root, p - root if root else 0, method, count)


def tonelli_shanks(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Classical iterative refinement, seeded with the context's nonresidue."""
    p = ctx.p
    c = MulCounter()
    _screen(ctx, a, c)
    if a == 0:
        return _canonical(0, p, "tonelli", c.count)
    x = c.pow(a, (ctx.n + 1) // 2, p)
    t = c.pow(a, ctx.n, p)
    w = c.lookup(ctx, 1)  # z^n, a generator of the 2-part
    m = ctx.k
    while t != 1:
        t2, i = c.mul(t, t, p), 1
        while t2 != 1:
            t2 = c.mul(t2, t2, p)
            i += 1
        b = c.pow(w, 1 << (m - i - 1), p)
        x = c.mul(x, b, p)
        w = c.mul(b, b, p)
        t = c.mul(t, w, p)
        m = i
    return _canonical(x, p, "tonelli", c.count)


def _lift_class(ctx: PrimeContext, an: int, counter: MulCounter) -> int:
    """Bit-by-bit discrete log of an = a^n in the group generated by z^(2n)."""
    p = ctx.p
    cur, t = an, 0
    for i in range(ctx.k - 1):
        if counter.pow(cur, 1 << (ctx.k - 2 - i), p) == p - 1:
            t |= 1 << i
            w = counter.lookup(ctx, (1 << ctx.k) - (1 << (i + 1)))  # z^(-2^(i+1) n)
            cur = counter.mul(cur, w, p)
    if cur != 1:
        raise ArithmeticError(f"no class index matches for p={p}; context invalid")
    return t


def direct_sqrt(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Root a^((n+1)/2) * z^(en) with e = -class(a) mod 2^(k-1)."""
    p = ctx.p
    c = MulCounter()
    _screen(ctx, a, c)
    if a == 0:
        return _canonical(0, p, "direct", c.count)
    an = c.pow(a, ctx.n, p)
    t = _lift_class(ctx, an, c)
    e = (-t) % (1 << (ctx.k - 1))
    ah = c.pow(a, (ctx.n + 1) // 2, p)
    raw = c.mul(ah, c.lookup(ctx, e), p)
    return _canonical(raw, p, "direct", c.count)
