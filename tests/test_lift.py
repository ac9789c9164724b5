"""The class lift at its window seams, against the bit-by-bit oracle.

sqrt_auto reads the class index 8 bits per log-table lookup, from the low
end; above k = 8 the last window may overlap the one before it or line up
with a row boundary of zn_rows, and each window divides the digits already
known out of its square by reading zn_rows inline.  direct_sqrt keeps the
one-bit-per-level lift (oracles._lift_class), so it is the independent
reference, and legendre decides which inputs must raise NotAResidue.
"""

import random

import pytest

from sqrtmodp.formulas import NotAResidue, sqrt_auto
from sqrtmodp.modarith import _MR_BOUND, PrimeContext, _linked, is_prime, legendre, make_context
from sqrtmodp.oracles import direct_sqrt


def primes_with_k(k, count):
    """The smallest primes 2^k n + 1 with n odd."""
    found, n = [], 1
    while len(found) < count:
        if is_prime((n << k) + 1):
            found.append((n << k) + 1)
        n += 2
    return found


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


class _CountingLog(dict):
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


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
    # ceil(k/8) log-table reads at a residue, one at a nonresidue; each window
    # after the first reads every row of zn_rows once, and the multiplier one
    # row per 8 bits of s/2 (none at k = 1); zn_pow is never called
    p = primes_with_k(k, 1)[0]
    ctx = make_context(p)
    log = ctx._log = _CountingLog(ctx._log)
    reads = {}
    ctx.zn_rows = tuple(_CountingRow(row, reads, "windows") for row in ctx.zn_rows)
    rows, t_rows = ctx._t_rows, []
    while rows:
        row, rows = rows
        t_rows.append(_CountingRow(row, reads, "multiplier"))
    ctx._t_rows = _linked(t_rows)
    calls = []
    monkeypatch.setattr(PrimeContext, "zn_pow", lambda self, j: calls.append(j))
    windows = -(-k // 8)
    want = {"windows": (windows - 1) * windows} if windows > 1 else {}
    if k > 1:
        want["multiplier"] = -(-(k - 1) // 8)
    rng = random.Random(k)
    for _ in range(20):
        r = rng.randrange(1, p)
        log.reads = 0
        reads.clear()
        assert sqrt_auto(ctx, r * r % p).root in (r, p - r)
        assert (log.reads, reads) == (windows, want)
        log.reads = 0
        reads.clear()
        with pytest.raises(NotAResidue):
            sqrt_auto(ctx, ctx.z * r * r % p)
        assert (log.reads, reads) == (1, {})
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
    # every table a context keeps, zn_rows and the log table together, holds
    # at most 2 ceil(k/8) 256 entries: no 2^k table
    p = primes_with_k(k, 1)[0] if k < 72 else LARGE_K_PRIMES[-1]
    ctx = make_context(p)
    assert ctx.k == k
    tables = {}
    for name in PrimeContext.__slots__:
        _entries(getattr(ctx, name), tables)
    assert sum(tables.values()) <= 2 * -(-k // 8) * 256
