"""Prime contexts and the modular arithmetic primitives everything else consumes.

Every prime handled by this package has the shape p = 2^k * n + 1 with n odd.
A PrimeContext is built from that decomposition and a deterministic
quadratic nonresidue z, and derives from them windowed rows of the powers
z^(j*n), which drive all the square-root machinery in the other modules.
With g = z^n, row i holds g^(d 2^(8i)) for d < 2^min(8, k - 8i): ceil(k/8)
rows and at most ceil(k/8)*256 entries for any k, so no table of all 2^k
powers is kept.  A lookup, zn_pow, is one loop that multiplies one entry
from each row into 1, ceil(k/8) - 1 products.  At k <= 8 a class table of
2^(k-1) entries maps each class of a^n to the class lift's multiplier, so
the lift is one read.  Above k = 8 a log table of 2^8 entries reads 8 bits
of a discrete log in g^-1 at once (Bernstein, "Faster square roots in
annoying finite fields", 2001; Sarkar, IACR ePrint 2020/1407), and the
walk, formulas._walk, reads the same rows, one product per row read.  The
context also plans, once, the addition chain by which every evaluator
takes the shared power a^((n-1)/2) (_power_plan).
"""

__all__ = [
    "MulCounter",
    "PrimeContext",
    "decompose",
    "is_prime",
    "legendre",
    "make_context",
    "mod_pow",
    "primes_in_range",
]

# The primes 2..41 as Miller-Rabin bases.  (bound, t): the first t bases are
# proven deterministic for every m below bound, and bound itself is a strong
# pseudoprime to them (Jaeschke 1993; Jiang and Deng 2014; Sorenson and
# Webster 2015).  All 13 hold below _MR_BOUND, about 3.3e24.
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (_MR_BOUND, 13),
)

# Window width of the z^(j*n) rows: row i covers bits 8i..8i+7 of j.
_W = 8
_DIGIT = (1 << _W) - 1

# The fewest square-and-multiply products a power's chain must save to be
# taken: see _power_plan.
_CHAIN_SAVES = 12


def _pow_cost(e: int) -> int:
    """Cost of x^e by square-and-multiply: floor(log2 e) + popcount(e) - 1."""
    return e.bit_length() + e.bit_count() - 2 if e > 0 else 0


def _lookup_cost(k: int) -> int:
    """Cost of one PrimeContext.zn_pow: a product per row after the first."""
    return (k - 1) // _W


def _class_cost(n: int, k: int) -> int:
    """The class lift's cost: the power a^((n-1)/2), two products and k - w
    squarings, w = min(8, k); for each window after the first, one product
    per row of zn_rows, ceil(k/8), to multiply the digits already known
    back in; then, for the multiplier, one product per row that covers the
    k - 1 bits of s/2, ceil((k - 1)/8), none at k = 1.

    At k <= 8, one window, that is the power, two products and the
    multiplier the class table gives: one product, none at k = 1.

    Every window is charged, also while the bits already known are 0, so the
    count depends on (n, k) alone; PrimeContext prices it once, as _cost."""
    windows = -(-k // _W)
    multiplier = -(-(k - 1) // _W)
    return _pow_cost((n - 1) // 2) + 2 + (k - min(_W, k)) + (windows - 1) * windows + multiplier


class MulCounter:
    """Tallies modular multiplications; squarings count as multiplications.

    The one place a cost is charged: mul charges 1, pow _pow_cost(exp),
    shared_power, a^((n-1)/2) by the context's chain, _pow_cost((n-1)/2),
    the square-and-multiply cost whatever chain takes the power, and
    lookup, a PrimeContext.zn_pow, the ceil(k/8) - 1 products that combine
    its rows.  tonelli and direct tally live; the class formula's count is
    the class lift's cost, from (n, k) alone.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def mul(self, x: int, y: int, p: int) -> int:
        self.count += 1
        return x * y % p

    def pow(self, base: int, exp: int, p: int) -> int:
        self.count += _pow_cost(exp)
        return pow(base, exp, p)

    def shared_power(self, ctx: "PrimeContext", a: int) -> int:
        """a^((n-1)/2) mod p by the walk of ctx._power, as sqrt_auto's."""
        self.count += _pow_cost(ctx.n >> 1)
        p = ctx.p
        e0, chain = ctx._power
        u = pow(a, e0, p)
        while chain:
            (f, r), chain = chain
            u = pow(u, f, p)
            if r:
                u = u * pow(a, r, p) % p
        return u

    def lookup(self, ctx: "PrimeContext", j: int) -> int:
        self.count += _lookup_cost(ctx.k)
        return ctx.zn_pow(j)


def mod_pow(base: int, exp: int, p: int) -> int:
    """base**exp mod p, with exp = 0 giving 1 (including 0**0)."""
    return pow(base, exp, p)


def _two_adic(m: int) -> int:
    """The 2-adic valuation of m > 0: k of p = 2^k n + 1 for m = p - 1."""
    return (m & -m).bit_length() - 1


def is_prime(m: int) -> bool:
    """Deterministic primality test, exact for all m below _MR_BOUND (~3.3e24).

    Trial division by the 13 primes 2..41, then strong-probable-prime tests
    to only as many of them as are proven to suffice for the size of m: one
    base below 2,047, four below 3.2e9 (31 bits), nine below 3.8e18 (61
    bits), all 13 from 3.2e23 up to the bound.
    """
    if m >= _MR_BOUND:
        raise ValueError(f"p={m} is not below the primality bound {_MR_BOUND}")
    if m < 2:
        return False
    for q in _MR_WITNESSES:
        if m == q:
            return True
        if m % q == 0:
            return False
    r = _two_adic(m - 1)
    d = (m - 1) >> r
    t = next(t for bound, t in _MR_TIERS if m < bound)
    for a in _MR_WITNESSES[:t]:
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


def decompose(p: int) -> tuple[int, int]:
    """Split p - 1 = 2^k * n with n odd; p must be an odd prime >= 3."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    k = _two_adic(p - 1)
    return k, (p - 1) >> k


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p): 0 for a = 0, +1 for residues, -1 for nonresidues.

    Computed as the Jacobi symbol by binary quadratic reciprocity (Cohen, A
    Course in Computational Algebraic Number Theory, 1993, Alg. 1.4.10), in
    O(log p) shifts and remainders and no modular power: each step strips
    the factors of 2 from a, flipping the sign for an odd count when
    p = 3, 5 mod 8, flips it again when a = p = 3 mod 4, and swaps
    (a, p) -> (p mod a, a).  p must be odd and at least 3, or ValueError is
    raised; an odd composite p is not detected, and the result is then the
    Jacobi symbol.
    """
    if p < 3 or not p & 1:
        raise ValueError(f"modulus p={p} is not odd and at least 3")
    if not 0 <= a < p:
        raise ValueError(f"residue {a} out of range for modulus {p}")
    t = 1
    while a:
        if not a & 1:
            twos = (a & -a).bit_length() - 1
            a >>= twos
            if twos & 1 and (p & 7) in (3, 5):
                t = -t
        if a & p & 2:  # a = p = 3 mod 4
            t = -t
        a, p = p % a, a
    return t if p == 1 else 0


def _smallest_nonresidue(p: int) -> int:
    """Smallest z >= 2 with legendre(z, p) = -1, for a p already validated.

    Each candidate costs one Jacobi-symbol reduction, not a power; z is
    small (below 2 ln^2 p under GRH, Bach 1990), so after p mod z the
    reduction runs on small numbers.
    """
    for z in range(2, p):
        if legendre(z, p) == -1:
            return z
    raise ArithmeticError(f"no nonresidue below {p}")  # unreachable for odd primes


class PrimeContext:
    """An odd prime p = 2^k * n + 1 (n odd) with nonresidue z.

    The constructor checks k >= 1, n odd and p - 1 = n 2^k (ValueError) and
    z^(2^(k-1) n) = -1, so that g = z^n has order 2^k (ArithmeticError).
    p's primality is the caller's promise, which make_context proves.

    zn_rows holds the powers of g = z^n in windows of 8 bits: row i is
    g^(d 2^(8i)) for d < 2^min(8, k - 8i), so there are ceil(k/8) rows and at
    most ceil(k/8)*256 entries.  At k <= 8 the one row is every power.
    zn_pow reads one entry from each row in one loop, with no case for
    small k: the class lift's walk reads the rows itself and calls no zn_pow.
    g generates the 2-part of the multiplicative group: period 2^k,
    g^(2^(k-1)) = -1.

    The class lift (formulas.sqrt_auto) finds the class of a^n = g^(-s),
    and the tables it reads are derived here, by the window count.  At
    k <= 8, one window, _classes maps g^(-2j) -> g^j for j < 2^(k-1),
    read off the one row with no product: the a^n of the residues to the
    multiplier g^e, s = 2e.  A nonresidue's a^n, with s odd, is no key, so
    a missed read is Euler's screen.  At k = 1 the one class, x = 1, maps
    to None: its multiplier is 1, and the lift makes no product by it.  No
    log table or walk plan is built at one window: _log, _steps and
    _t_rows are None.

    Above k = 8 _classes is None, and a private log table maps h^(-d) -> d
    for h = g^(2^(k-8)) and d < 2^8: it reads 8 bits of a discrete log in
    one lookup.  When 8 divides k it is read off the last row, the powers
    of h; otherwise its 2^8 entries cost 2^8 products.  h has order 2^8,
    since g has order 2^k, so the table has no collisions.  The lift reads
    s, the log of a^n in g^-1, one window of 8 bits at a time from the low
    end.  With L = ceil(k/8) windows, window l reads the square a^(2^m n)
    for m = max(k - 8 - 8l, 0), so the last window may overlap the one
    before it.  _steps has, for each window after the first, from the last
    window up, the power 2^(m' - m) that leads from its square to the next
    one saved, its m, and the shift of its digit in s: k - 8 squarings from
    a^n to the top square in all.  _t_rows are the rows of zn_rows that
    cover the k - 1 bits of s/2: the same tuples, not copies.  Both are
    linked pairs (_linked).

    _power plans the shared power a^((n-1)/2) that the class lift and both
    oracles take: a first exponent e0 and a linked chain of steps (f, r),
    u = a^e0 and then u = u^f a^r for each step (_power_plan).  The chain is
    empty, and the power one builtin pow, unless it saves at least 12
    products, as at the primes just below a power of two.

    The class lift's count, _cost, is derived in the same pass: it depends
    on (n, k) alone (_class_cost), so each call reads it, not prices it.
    So is its method tag, _method: f1..f4 at k <= 4, synth above.
    Everything is derived from (p, k, n, z) when the context is built and
    never reassigned, so one context is safe to share across workers.
    """

    __slots__ = (
        "p", "k", "n", "z", "zn_rows", "_mask", "_classes", "_log", "_power", "_steps",
        "_t_rows", "_cost", "_method",
    )

    def __init__(self, p: int, k: int, n: int, z: int) -> None:
        if k < 1 or n % 2 == 0 or p - 1 != n << k:
            raise ValueError(f"p={p}, k={k}, n={n}: need k >= 1, n odd and p - 1 = n 2^k")
        self.p, self.k, self.n, self.z = p, k, n, z
        self.zn_rows = _zn_rows(pow(z, n, p), k, p)
        self._mask = (1 << k) - 1  # the order of z^n, less one
        if self.zn_pow(1 << (k - 1)) != p - 1:
            raise ArithmeticError(f"z={z} is not a nonresidue mod p={p}: z^(2^(k-1) n) != -1")
        self._classes = self._log = self._steps = self._t_rows = None
        if k <= _W:
            self._classes = self._class_table()
        else:
            self._log = self._log_table()
            self._lift_plan()
        self._power = _power_plan(n >> 1)  # (n - 1)/2, n odd
        self._cost = _class_cost(n, k)
        self._method = f"f{k}" if k <= 4 else "synth"

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p}, k={self.k}, n={self.n}, z={self.z})"

    def _class_table(self) -> dict[int, int | None]:
        """g^(-2j) -> g^j for j < 2^(k-1), at k <= 8; None for g^0 at k = 1."""
        row, mask = self.zn_rows[0], self._mask
        if self.k == 1:
            return {1: None}
        return {row[-2 * j & mask]: row[j] for j in range(1 << (self.k - 1))}

    def _log_table(self) -> dict[int, int]:
        """h^(-d) -> d for h = g^(2^(k-8)) and d < 2^8, at k > 8."""
        powers = self.zn_rows[-1]  # the powers of h when 8 divides k
        if self.k % _W:
            powers = _powers(self.zn_pow(1 << (self.k - _W)), 1 << _W, self.p)
        return dict(zip(powers[:1] + powers[:0:-1], range(len(powers))))

    def _lift_plan(self) -> None:
        """_steps and _t_rows: see the class docstring."""
        k = self.k
        steps, m = [], 0
        # the next square's m: k - 8(L - 1) up to k - 8, the top, in steps of 8
        for top in range(k - _W * (len(self.zn_rows) - 1), k - _W + 1, _W):
            steps.append((1 << (top - m), m, k - _W - m))
            m = top
        self._steps = _linked(steps)
        self._t_rows = _linked(self.zn_rows[: (k + _W - 2) // _W])

    def zn_pow(self, j: int) -> int:
        """z^(j*n) mod p; j is reduced mod 2^k, the order of z^n.

        One loop over the rows, one entry from each: the product starts at
        1, so the first row's is a product by 1 and not a multiplication,
        and a lookup costs ceil(k/8) - 1 products, none at k <= 8, which
        MulCounter.lookup charges.  A zero digit is not skipped, so the cost
        of a lookup depends on k alone.
        """
        j &= self._mask
        p, v = self.p, 1
        for row in self.zn_rows:
            v = v * row[j & _DIGIT] % p
            j >>= _W
        return v


def _linked(items: list | tuple) -> tuple:
    """items as nested pairs (item, rest), () at the end.

    The class lift walks them by `while rest: item, rest = rest`: a truth
    test of () costs less than the iterator a for loop would make on every
    call."""
    out = ()
    for item in reversed(items):
        out = item, out
    return out


def _power_plan(e: int) -> tuple:
    """The plan (e0, chain) of a^e: u = a^e0, then u = u^f a^r for each
    step (f, r) of the linked chain.

    Write e = (2^l - 1) 2^t + r, l the length of e's top run of ones.  The
    top two bits of l give j and e0 = 2^j - 1.  Each lower bit b of l
    doubles the run (Itoh and Tsujii 1988; Knuth, TAOCP vol. 2, 4.6.3):
    from u = a^(2^j - 1) the step ((2^j + 1) 2^b, b) gives
    a^(2^(2j+b) - 1).  One tail step (2^t, r) finishes the power.  The run
    costs about l + 2 log2(l) products, against 2l - 2 by square-and-multiply.

    The chain is taken only where it saves _CHAIN_SAVES = 12 products or
    more (_pow_cost); otherwise the plan is (e, ()), one builtin pow.  Its
    basis, the walk against one pow, min of 9 interleaved timeit runs on a
    2-core x86 Xeon VM under CPython 3.11: 0.84x at 5 products saved and
    1.05x at 11 (24-bit primes), 1.21x at 13 and 1.39x at 21 (31-bit), 1.62x
    at 42 (61-bit).  So no prime below 3000 and none of 24 bits takes one.
    """
    length = e.bit_length()
    t = (e ^ ((1 << length) - 1)).bit_length()  # the bits below the top run
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
    cost = _pow_cost(e0) + sum(_pow_cost(f) + (_pow_cost(r) + 1 if r else 0) for f, r in steps)
    if _pow_cost(e) - cost < _CHAIN_SAVES:
        return e, ()
    return e0, _linked(steps)


def _powers(base: int, count: int, p: int) -> list[int]:
    """[base^0, ..., base^(count-1)] mod p: count - 1 products."""
    powers = [1] * count
    for d in range(1, count):
        powers[d] = powers[d - 1] * base % p
    return powers


def _zn_rows(g: int, k: int, p: int) -> tuple[tuple[int, ...], ...]:
    """The rows of PrimeContext.zn_rows for g = z^n: about ceil(k/8)*256 products."""
    rows = []
    for shift in range(0, k, _W):
        row = _powers(g, 1 << min(_W, k - shift), p)
        rows.append(tuple(row))
        g = row[-1] * g % p  # g^(2^8): the next row's step
    return tuple(rows)


def make_context(p: int) -> PrimeContext:
    """Decompose p - 1, which runs the one primality test, and build the
    PrimeContext with the smallest nonresidue z; both rely on that test."""
    k, n = decompose(p)
    return PrimeContext(p, k, n, _smallest_nonresidue(p))


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, by sieve; intended for desk-scale sweeps."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]
