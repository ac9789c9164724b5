"""Independent square-root algorithms: ground truth and classical baselines.

brute_force_sqrt is the ground truth, every root found by scanning; the
private _brute_sqrt wraps it as the CLI's brute method, an outcome like
the others whose count is the p squarings of the scan.  tonelli_shanks and
direct_sqrt are the classical baselines, each charged to a MulCounter.
Each takes one full-size power, a^((n-1)/2), by the addition chain the
context plans for it, and gets a^((n+1)/2) and a^n from it by two
products, as Tonelli-Shanks does in Cohen, A Course in Computational
Algebraic Number Theory (1993), Alg. 1.5.1; each finds a nonresidue in its
own loop on a^n, with no Euler power first.
"""

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


def _brute_sqrt(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """brute_force_sqrt as a method: the smaller root and p, one squaring per r."""
    roots = brute_force_sqrt(ctx.p, a)
    if not roots:
        raise NotAResidue(a, ctx.p)
    return _canonical(min(roots), ctx.p, "brute", ctx.p)


def _canonical(raw: int, p: int, method: str, count: int) -> SqrtOutcome:
    root = min(raw, p - raw) if raw else 0
    return SqrtOutcome(root, p - root if root else 0, method, count)


def _powers(ctx: PrimeContext, a: int, c: MulCounter) -> tuple[int, int]:
    """a^((n+1)/2) = a u and a^n = a u^2 from one counted power u = a^((n-1)/2)."""
    p = ctx.p
    u = c.shared_power(ctx, a)
    x = c.mul(a, u, p)
    return x, c.mul(x, u, p)


def tonelli_shanks(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Cohen, Alg. 1.5.1, on x = a^((n+1)/2), t = a^n and w = z^n; a is a
    nonresidue when the least i with t^(2^i) = 1 is m (Cohen, step 3)."""
    p = ctx.p
    if not 0 <= a < p:
        raise ValueError(f"residue {a} out of range for p={p}")
    if a == 0:
        return _canonical(0, p, "tonelli", 0)
    c = MulCounter()
    x, t = _powers(ctx, a, c)
    w = c.lookup(ctx, 1)  # z^n, a generator of the 2-part
    m = ctx.k
    while t != 1:
        t2, i = c.mul(t, t, p), 1
        while t2 != 1:
            t2 = c.mul(t2, t2, p)
            i += 1
        if i == m:  # t has order 2^k: a^((p-1)/2) = -1
            raise NotAResidue(a, p)
        b = c.pow(w, 1 << (m - i - 1), p)
        x = c.mul(x, b, p)
        w = c.mul(b, b, p)
        t = c.mul(t, w, p)
        m = i
    return _canonical(x, p, "tonelli", c.count)


def _lift_class(ctx: PrimeContext, a: int, an: int, counter: MulCounter) -> int:
    """Bit-by-bit discrete log of an = a^n in the group generated by z^(2n);
    a is a nonresidue exactly when an is outside it and the lift ends on
    cur != 1."""
    p = ctx.p
    cur, t = an, 0
    for i in range(ctx.k - 1):
        if counter.pow(cur, 1 << (ctx.k - 2 - i), p) == p - 1:
            t |= 1 << i
            w = counter.lookup(ctx, (1 << ctx.k) - (1 << (i + 1)))  # z^(-2^(i+1) n)
            cur = counter.mul(cur, w, p)
    if cur != 1:
        raise NotAResidue(a, p)
    return t


def direct_sqrt(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Root a^((n+1)/2) * z^(en) with e = -class(a) mod 2^(k-1), the class
    read by _lift_class from a^n; its powers as in Cohen, Alg. 1.5.1."""
    p = ctx.p
    if not 0 <= a < p:
        raise ValueError(f"residue {a} out of range for p={p}")
    if a == 0:
        return _canonical(0, p, "direct", 0)
    c = MulCounter()
    x, an = _powers(ctx, a, c)
    e = (-_lift_class(ctx, a, an, c)) % (1 << (ctx.k - 1))
    return _canonical(c.mul(x, c.lookup(ctx, e), p), p, "direct", c.count)
