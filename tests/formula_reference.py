"""The synthesized formula evaluated term by term: the tests' reference.

The package computes every root by the class lift, which takes only the one
live term of the bracket.  These helpers evaluate every term of
synthesize(k) at x from its Term and Factor fields instead, so the
differential tests compare the lift with the paper's polynomial itself.
"""


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

    Factor values are shared across the terms of one call.  A factor that
    evaluates to 0 zeroes its whole term, so the walk stops there.
    """
    assert f.k == ctx.k, f"formula has k={f.k}, context has k={ctx.k}"
    p = ctx.p
    xp = _x_levels(ctx, x)
    cache = {}
    values = []
    for term in f.terms:
        v = ctx.zn_pow(term.e)
        for fc in term.factors:
            key = (fc.j, fc.c)
            fv = cache.get(key)
            if fv is None:
                fv = cache[key] = (1 + xp[fc.j] * ctx.zn_pow(fc.c)) % p
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
    key = (f.k, p, pow(x, ctx.n, p))
    total = _bracket_sums.get(key)
    if total is None:
        total = _bracket_sums[key] = sum(term_values(f, ctx, x)) % p
    return pow(2, 1 - f.k, p) * pow(x, (ctx.n + 1) // 2, p) % p * total % p


def evaluate(f, ctx, a):
    """The canonical pair (root, coroot), root <= coroot, of the formula's
    value at the residue a; (0, 0) at a = 0."""
    p = ctx.p
    raw = evaluate_at(f, ctx, a)
    root = min(raw, p - raw) if raw else 0
    return root, p - root if root else 0
