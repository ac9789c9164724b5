"""The class lift at its window seams, against the bit-by-bit oracle.

At k <= 8 sqrt_auto maps a^n to its multiplier by one class-table read.
Above k = 8 it reads the class index 8 bits per log-table lookup, from the
low end; the last window may overlap the one before it or line up with a
row boundary of zn_rows, and each window divides the digits already known
out of its square by reading zn_rows, in the walk that sqrt_auto and roots
share (formulas._walk).  direct_sqrt keeps the one-bit-per-level lift
(oracles._lift_class), so it is the independent reference, and legendre
decides which inputs must raise NotAResidue.
"""

import random

import pytest

from sqrtmodp.formulas import NotAResidue, roots, sqrt_auto
from sqrtmodp.modarith import (
    _MR_BOUND,
    PrimeContext,
    _linked,
    is_prime,
    legendre,
    make_context,
    primes_in_range,
)
from sqrtmodp.oracles import direct_sqrt

from prime_search import primes_with_k


def agrees(ctx, a):
    """sqrt_auto matches direct_sqrt at a residue and raises at a nonresidue."""
    if legendre(a, ctx.p) == -1:
        with pytest.raises(NotAResidue):
            sqrt_auto(ctx, a)
        return
    got, want = sqrt_auto(ctx, a), direct_sqrt(ctx, a)
    assert (got.root, got.coroot) == (want.root, want.coroot), (ctx.p, a)
    assert got.root * got.root % ctx.p == a


@pytest.mark.parametrize("p", primes_with_k(8, 2) + primes_with_k(9, 2))
def test_every_input_at_one_and_two_windows(p):
    # k = 8 is one full window; k = 9 adds a one-bit window that overlaps
    ctx = make_context(p)
    assert ctx.k in (8, 9)
    for a in range(p):
        agrees(ctx, a)


# 786433 (k = 18), KoalaBear (k = 24) and three primes with k = 56, 64, 72
LARGE_K_PRIMES = (
    786433, 2130706433, 1945555039024054273,
    461168601842738790401, 599740543324444942139393,
)


@pytest.mark.parametrize(
    "p",
    [pytest.param(primes_with_k(k, 1)[0], id=str(k)) for k in (15, 16, 17, 24, 32)]
    + [pytest.param(p, id=f"p{p}") for p in LARGE_K_PRIMES],
)
def test_seeded_inputs_at_window_seams(p):
    # 16, 24, 32, 56, 64 and 72 line up with the rows; 15, 17 and 18 overlap
    # the last window
    ctx = make_context(p)
    rng = random.Random(p)
    residues = nonresidues = 0
    while residues < 500 or nonresidues < 500:
        r = rng.randrange(1, p)
        a = r * r % p if residues < 500 else ctx.z * r * r % p
        residues += legendre(a, p) == 1
        nonresidues += legendre(a, p) == -1
        agrees(ctx, a)


# every k that make_context accepts: the primality bound leaves no prime
# 2^k n + 1 for k = 76..81
EVERY_K = range(1, 76)


def test_no_prime_below_the_bound_past_every_k():
    for k in range(EVERY_K.stop, _MR_BOUND.bit_length()):
        assert not any(is_prime(m) for m in range((1 << k) + 1, _MR_BOUND, 2 << k)), k


@pytest.mark.parametrize("k", EVERY_K)
def test_seeded_inputs_at_every_k(k):
    # the smallest prime at each k: its window plan differs with k mod 8 and
    # with the number of windows
    p = primes_with_k(k, 1)[0]
    ctx = make_context(p)
    rng = random.Random(k)
    for _ in range(50):
        r = rng.randrange(1, p)
        got, root = sqrt_auto(ctx, r * r % p), min(r, p - r)
        assert (got.root, got.coroot) == (root, p - root), (p, r)
    for _ in range(50):
        r = rng.randrange(1, p)
        with pytest.raises(NotAResidue):
            sqrt_auto(ctx, ctx.z * r * r % p)


class _CountingTable(dict):
    """A class or log table that tallies its reads, by get or by subscript."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


class _CountingRow(tuple):
    """A row that tallies its reads under a key: "windows" or "multiplier"."""

    def __new__(cls, row, reads, key):
        self = super().__new__(cls, row)
        self.reads, self.key = reads, key
        return self

    def __getitem__(self, d):
        self.reads[self.key] = self.reads.get(self.key, 0) + 1
        return super().__getitem__(d)


@pytest.mark.parametrize("k", [1, 2, 5, 8, 9, 15, 16, 17, 24, 25, 32])
def test_one_table_read_per_window(k, monkeypatch):
    # at k <= 8 one class-table read, at a residue and at a nonresidue, and
    # no log or row read: no log table or walk plan is built.  Above, no class
    # table, ceil(k/8) log-table reads at a residue, one at a nonresidue;
    # each window after the first reads every row of zn_rows once, and the
    # multiplier one row per 8 bits of s/2; zn_pow is never called.  roots
    # over a one-value sequence reads the same as sqrt_auto
    p = primes_with_k(k, 1)[0]
    ctx = make_context(p)
    reads = {}
    ctx.zn_rows = tuple(_CountingRow(row, reads, "windows") for row in ctx.zn_rows)
    if k <= 8:
        assert (ctx._log, ctx._steps, ctx._t_rows) == (None, None, None)
        classes = ctx._classes = _CountingTable(ctx._classes)
        log = ctx._log = _CountingTable()  # empty: a read would count, then fail
        residue = nonresidue = (1, 0, {})
    else:
        assert ctx._classes is None
        classes = _CountingTable()  # never read: ctx._classes stays None
        log = ctx._log = _CountingTable(ctx._log)
        rows, t_rows = ctx._t_rows, []
        while rows:
            row, rows = rows
            t_rows.append(_CountingRow(row, reads, "multiplier"))
        ctx._t_rows = _linked(t_rows)
        windows = -(-k // 8)
        want = {"windows": (windows - 1) * windows, "multiplier": -(-(k - 1) // 8)}
        residue, nonresidue = (0, windows, want), (0, 1, {})
    calls = []
    monkeypatch.setattr(PrimeContext, "zn_pow", lambda self, j: calls.append(j))
    rng = random.Random(k)
    for _ in range(20):
        r = rng.randrange(1, p)
        for root_of in (lambda a: sqrt_auto(ctx, a).root, lambda a: roots(ctx, [a])[0]):
            classes.reads = log.reads = 0
            reads.clear()
            assert root_of(r * r % p) in (r, p - r)
            assert (classes.reads, log.reads, reads) == residue
            classes.reads = log.reads = 0
            reads.clear()
            with pytest.raises(NotAResidue):
                root_of(ctx.z * r * r % p)
            assert (classes.reads, log.reads, reads) == nonresidue
    assert calls == []


def _entries(value, tables):
    """Record each distinct table in value, by identity: a dict, or a tuple
    or list of ints, with its number of entries."""
    if isinstance(value, dict):
        tables[id(value)] = len(value)
    elif isinstance(value, (tuple, list)):
        if all(isinstance(v, int) for v in value):
            tables[id(value)] = len(value)
        else:
            for v in value:
                _entries(v, tables)


@pytest.mark.parametrize("k", [8, 9, 16, 17, 32, 72])
def test_rows_stay_linear_in_k(k):
    # every table a context keeps, zn_rows and the class or log table
    # together, holds at most 2 ceil(k/8) 256 entries: no 2^k table
    p = primes_with_k(k, 1)[0] if k < 72 else LARGE_K_PRIMES[-1]
    ctx = make_context(p)
    assert ctx.k == k
    tables = {}
    for name in PrimeContext.__slots__:
        _entries(getattr(ctx, name), tables)
    assert sum(tables.values()) <= 2 * -(-k // 8) * 256


def _check_class_table(ctx, seen):
    """ctx's class table has a key for each of the 2^(k-1) classes, the a^n
    in seen, and no other; each value m is a multiplier, m^2 x = 1, so that
    a^((n+1)/2) m squares to a.  At k = 1 the one class, x = 1, needs none."""
    p, k, table = ctx.p, ctx.k, ctx._classes
    assert len(table) == 1 << (k - 1), p
    assert set(table) == seen, p
    if k == 1:
        assert table == {1: None}, p
    else:
        for x, m in table.items():
            assert m * m * x % p == 1, (p, x)


def test_class_table_of_every_prime_below_3000():
    for p in primes_in_range(3, 3000):
        ctx = make_context(p)
        assert ctx.k <= 8
        _check_class_table(ctx, {pow(r * r % p, ctx.n, p) for r in range(1, p)})


@pytest.mark.parametrize("p", [16777121, 16777153, 16776833, 16776961])
def test_class_table_at_24_bits(p):
    # high_k's benchmark primes at k = 5..8: seeded residues until every
    # class has shown
    ctx = make_context(p)
    rng, seen = random.Random(p), set()
    while len(seen) < 1 << (ctx.k - 1):
        r = rng.randrange(1, p)
        seen.add(pow(r * r % p, ctx.n, p))
    _check_class_table(ctx, seen)
