"""The class-formula evaluator, sqrt_auto, and its form over a sequence, roots.

The square root of a residue a is 2^-(k-1) a^((n+1)/2) times a bracket of
nonresidue-power terms that collapses, at any quadratic residue, to the
single selector for the residue's class.  One evaluator, sqrt_auto,
computes it for every k, in one Python frame at k <= 8; the command
line's methods auto, f1..f4 and synth all run it (cli checks f1..f4's k
first), and verify runs its loop over a sequence, roots (below).  It
takes one shared power per call, a^((n-1)/2), by the addition chain its
context plans once (modarith._power_plan); a^((n+1)/2) and a^n follow
from it by two products.  The bracket's k-1 level factors each fix one bit
of the class index t; the evaluator finds e = -t mod 2^(k-1), the exponent
of the multiplier z^(en), from a^n = g^(-2e), g = z^n, instead.  At k <= 8,
one window, the context's class table maps a^n to the multiplier g^e in
one dict read, and a^n missing from it is Euler's screen.  Above k = 8 one
private function, _walk, reads s = 2e, the log of a^n in g^-1, 8 bits at a
time: one log-table lookup per window of s after k - 8 squarings (the
windowed discrete log of Bernstein 2001 and Sarkar, IACR ePrint 2020/1407),
and builds the multiplier from the context's rows of z^(jn).  The root is
the bracket's one live term, a^((n+1)/2) z^(en).  At k = 1 the bracket is
empty and the root is the bare power a^((n+1)/2).  The count is the lift's
cost, and the method tag (f1..f4 at k <= 4, synth above) the context's,
both fixed once per context.

Two entries run the lift, chosen by the shape of the input: sqrt_auto(ctx,
a) for one residue, and roots(ctx, values) for many residues of one prime,
the canonical roots alone, which verify runs.  roots reads the power plan
and class table once per sequence and builds no outcome per residue, so
verify's sweep of every prime below 3000 takes about 0.7 of the time it
took through sqrt_auto.  Both entries call _walk above k = 8, so the walk
is written once.  The power's chain, the class-table read and the checks
stay inline in each, since sqrt_auto as the one-residue case of roots read
the high_k benchmark 11-19 % lower in ops_per_s and 14-24 % higher in
op_us_p50 (two sets of paired runs), past the 10 % bound on ops_per_s.
The tests hold the two to the same roots.
"""

from typing import Iterable, NamedTuple

from .modarith import _DIGIT, _W, PrimeContext

__all__ = ["NotAResidue", "SqrtOutcome", "roots", "sqrt_auto"]


class NotAResidue(Exception):
    """a has Legendre symbol -1 mod p: no square root exists.  Every method
    raises it as NotAResidue(a, p), so the refused residue and its prime are
    the attributes a and p, args is (a, p), and the message is written here
    once."""

    def __init__(self, a: int, p: int):
        super().__init__(a, p)  # args (a, p), which pickle passes back
        self.a, self.p = a, p

    def __str__(self):
        return f"{self.a} is not a quadratic residue mod {self.p}"


class SqrtOutcome(NamedTuple):
    """A canonical square root: root <= p - root, coroot the other sign."""

    root: int
    coroot: int
    method: str
    mul_count: int


# _new_tuple(SqrtOutcome, fields) is the call SqrtOutcome._make makes; the
# hot path uses it to skip the generated __new__ and its argument binding.
_new_tuple = tuple.__new__


def _walk(ctx: PrimeContext, a: int, root: int, x: int) -> int:
    """The lift above k = 8: root times g^e, for x = a^n = g^(-s), s = 2e.

    Windows of 8 bits go from the low end of s.  The squares a^(2^m n) at
    the windows' shifts m come first, by the powers ctx._steps, k - 8
    squarings in all; the last, a^(2^(k-8) n), is h^(-d) for
    h = g^(2^(k-8)), and ctx._log gives the low digit d.  Each later window
    takes its saved square, multiplies the digits already known back in,
    g^(2^m s), with one product per row of ctx.zn_rows, and looks the next
    digit up; the last window may overlap the one before it.  The first
    digit's low bit is s mod 2, Euler's symbol, so it is the screen: an odd
    s raises NotAResidue for a.  The multiplier g^e takes one row read of
    ctx._t_rows and one product per 8 bits of e.  No zn_pow is called.

    sqrt_auto and roots both call this, and it is the only reader of
    _steps, _log and _t_rows, so a change to the walk is made once.
    """
    p = ctx.p
    # a^(2^m n) for each window after the first, with its m and its
    # digit's shift, on a stack of tuples (square, m, shift, rest)
    squares = ()
    plan = ctx._steps
    while plan:
        (step, m, shift), plan = plan
        squares = x, m, shift, squares
        x = pow(x, step, p)
    log = ctx._log
    s = log[x]
    if s & 1:  # s mod 2 is Euler's symbol: a^((p-1)/2) = g^(-2^(k-1) s)
        raise NotAResidue(a, p)
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
    return root


def sqrt_auto(ctx: PrimeContext, a: int) -> SqrtOutcome:
    """Square root of a via the class formula, for any k: one class-table
    read at k <= 8, the class index read 8 bits per log-table lookup above.

    One power u = a^((n-1)/2), by a walk of the chain ctx._power, gives
    root = a^((n+1)/2) = a u and a^n = root u = g^(-s), g = z^n, s < 2^k.
    s = 2e for the paper's e = -t mod 2^(k-1), t the class index, so the
    root is the paper's value at a, a^((n+1)/2) z^(en): root times g^e.

    At k <= 8, one window, ctx._classes maps a^n = g^(-2e) to g^e, so the
    lift is one dict.get and one product.  A nonresidue's a^n, s odd, is
    no key: the missed read is the screen.  At k = 1 the one class's entry
    is None, the bracket is empty and the root is the bare power.

    Above k = 8 _walk reads s 8 bits at a time, screens on its low bit and
    multiplies root by g^e; its docstring describes the walk.

    mul_count is ctx._cost, modarith._class_cost(n, k): the same for every
    nonzero residue of the prime, priced once per context, and 0 at a = 0.
    The method is ctx._method: f1..f4 at k <= 4 and synth above.  At k <= 8
    the body calls no Python function, so a call is one frame; above, the
    call to _walk is a second.
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
    classes = ctx._classes
    if classes is not None:  # one window, k <= 8: g^(-2e) -> g^e
        m = classes.get(x, 0)  # None at k = 1, where the multiplier is 1
        if m:
            root = root * m % p
        elif m == 0:  # no class: s is odd
            raise NotAResidue(a, p)
    else:  # windows of 8 bits, k > 8
        root = _walk(ctx, a, root, x)
    if root > p - root:  # root != 0, since a != 0
        root = p - root
    return _new_tuple(SqrtOutcome, (root, p - root, ctx._method, ctx._cost))


def roots(ctx: PrimeContext, values: Iterable[int]) -> list[int]:
    """The canonical root sqrt_auto(ctx, a).root of each a in values, in
    order, by sqrt_auto's lift: one class-table read per residue at k <= 8,
    in the one frame of roots, and one call to _walk per nonzero value above.

    The power plan and the class table are read once for the whole
    sequence, and no SqrtOutcome is built: each residue costs its powers,
    lookups and products and nothing more.  The coroot is p - root, 0 at a = 0, and the
    count and tag are the context's, so a caller that needs them reads
    ctx._cost and ctx._method.  A value out of range raises ValueError with
    sqrt_auto's message, and a nonresidue NotAResidue(a, p), which names the
    value refused; the values before it are lost.  Verify runs this over its
    residues.

    The body repeats sqrt_auto's power and class-table read inside a loop
    and calls the same _walk, and the tests hold the two to the same roots.
    They stay two bodies: as the one-residue case of roots, sqrt_auto would
    pay a list, an iterator and a loop per call (the module docstring gives
    the measurement); through sqrt_auto, verify paid a frame, six context
    reads and a SqrtOutcome per residue, about 30 % of a residue's cost
    below p = 3000.
    """
    p = ctx.p
    e0, power = ctx._power
    classes = ctx._classes
    out = []
    append = out.append
    for a in values:
        if not 0 <= a < p:
            raise ValueError(f"residue {a} out of range for p={p}")
        if a == 0:
            append(0)
            continue
        u = pow(a, e0, p)
        chain = power
        while chain:
            (f, r), chain = chain
            u = pow(u, f, p)
            if r:
                u = u * pow(a, r, p) % p
        root = a * u % p
        x = root * u % p
        if classes is not None:
            m = classes.get(x, 0)
            if m:
                root = root * m % p
            elif m == 0:
                raise NotAResidue(a, p)
        else:
            root = _walk(ctx, a, root, x)
        append(root if root <= p - root else p - root)
    return out
