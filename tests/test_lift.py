"""The class lift at its window seams, against the bit-by-bit oracle.

_class_root reads the class index 8 bits per log-table lookup, from the low
end; above k = 8 the last window may overlap the one before it or line up
with a row boundary of zn_rows.  direct_sqrt keeps the one-bit-per-level
lift (oracles._lift_class), so it is the independent reference, and
legendre decides which inputs must raise NotAResidue.
"""

import random

import pytest

from sqrtmodp.formulas import NotAResidue, sqrt_auto
from sqrtmodp.modarith import PrimeContext, is_prime, legendre, make_context
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


@pytest.mark.parametrize("k", [15, 16, 17, 24, 32])
def test_seeded_inputs_at_window_seams(k):
    # 16, 24 and 32 line up with the rows; 15 and 17 overlap the last window
    p = primes_with_k(k, 1)[0]
    ctx = make_context(p)
    rng = random.Random(p)
    residues = nonresidues = 0
    while residues < 500 or nonresidues < 500:
        r = rng.randrange(1, p)
        a = r * r % p if residues < 500 else ctx.z * r * r % p
        residues += legendre(a, p) == 1
        nonresidues += legendre(a, p) == -1
        agrees(ctx, a)


class _CountingLog(dict):
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("k", [1, 2, 5, 8, 9, 15, 16, 17, 24, 25, 32])
def test_one_table_read_per_window(k, monkeypatch):
    # ceil(k/8) log-table reads at a residue, one at a nonresidue; a zn_pow
    # per window after the first and one for the multiplier (none at k = 1)
    p = primes_with_k(k, 1)[0]
    ctx = make_context(p)
    log = ctx._log = _CountingLog(ctx._log)
    calls = []
    zn_pow = PrimeContext.zn_pow
    monkeypatch.setattr(PrimeContext, "zn_pow", lambda self, j: calls.append(j) or zn_pow(self, j))
    windows = -(-k // 8)
    rng = random.Random(k)
    for _ in range(20):
        r = rng.randrange(1, p)
        log.reads, calls[:] = 0, []
        assert sqrt_auto(ctx, r * r % p).root in (r, p - r)
        assert (log.reads, len(calls)) == (windows, windows - (k == 1))
        log.reads = 0
        with pytest.raises(NotAResidue):
            sqrt_auto(ctx, ctx.z * r * r % p)
        assert log.reads == 1
