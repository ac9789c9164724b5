"""formulas.roots, sqrt_auto's lift over a sequence, against sqrt_auto.

roots repeats sqrt_auto's power and class-table read inside one loop and
calls the same walk above k = 8 (formulas._walk), so these tests hold the
two to the same roots wherever the lift's plan differs: every residue of every
prime below 3000 (the verify sweep's primes), the seeded inputs of every k,
and the large-k primes.  A nonresidue or an out-of-range value anywhere in
the sequence raises sqrt_auto's exception and message for that value.
"""

import random

import pytest

from sqrtmodp.formulas import NotAResidue, roots, sqrt_auto
from sqrtmodp.modarith import make_context, primes_in_range

from test_lift import EVERY_K, primes_with_k

# 786433 (k = 18), BabyBear (k = 27), KoalaBear (k = 24), Goldilocks (k = 32)
LARGE_K_PRIMES = (786433, 2013265921, 2130706433, 18446744069414584321)


def _one_by_one(ctx, values):
    return [sqrt_auto(ctx, a).root for a in values]


def _raised(fn, *args):
    with pytest.raises((NotAResidue, ValueError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_every_residue_of_every_prime_below_3000():
    for p in primes_in_range(3, 3000):
        ctx = make_context(p)
        values = [0] + sorted({r * r % p for r in range(1, p)})
        assert roots(ctx, values) == _one_by_one(ctx, values), p


def _seeded(ctx, seed, count):
    """count residues and count nonresidues, drawn as in test_lift."""
    rng = random.Random(seed)
    p = ctx.p
    residues = [rng.randrange(1, p) ** 2 % p for _ in range(count)]
    nonresidues = [ctx.z * rng.randrange(1, p) ** 2 % p for _ in range(count)]
    return residues, nonresidues


def _agrees(ctx, residues, nonresidues):
    values = [0] + residues
    assert roots(ctx, values) == _one_by_one(ctx, values), ctx.p
    for i, a in enumerate(nonresidues):
        # the nonresidue first, among residues, and last
        at = i % (len(residues) + 1)
        values = residues[:at] + [a] + residues[at:]
        assert _raised(roots, ctx, values) == _raised(sqrt_auto, ctx, a), (ctx.p, a)


@pytest.mark.parametrize("k", EVERY_K)
def test_seeded_inputs_at_every_k(k):
    # the inputs of test_lift.test_seeded_inputs_at_every_k
    ctx = make_context(primes_with_k(k, 1)[0])
    _agrees(ctx, *_seeded(ctx, k, 50))


@pytest.mark.parametrize("p", LARGE_K_PRIMES)
def test_large_k_primes(p):
    ctx = make_context(p)
    _agrees(ctx, *_seeded(ctx, p, 200))


def test_empty_sequence():
    assert roots(make_context(13), []) == []


def test_any_iterable():
    # 0..4 are residues mod 97
    ctx = make_context(97)
    values = list(range(5))
    want = _one_by_one(ctx, values)
    for seq in (values, tuple(values), range(5), (a for a in values)):
        assert roots(ctx, seq) == want, type(seq)


@pytest.mark.parametrize("bad", [-1, 13, 14, 1 << 70, 5])
@pytest.mark.parametrize("at", [0, 3, 6])
def test_a_bad_value_anywhere_raises_as_sqrt_auto_does(bad, at):
    # out of range below and above, or 5, a nonresidue mod 13
    ctx = make_context(13)
    values = [1, 4, 9, 3, 12, 10]
    values.insert(at, bad)
    assert _raised(roots, ctx, values) == _raised(sqrt_auto, ctx, bad)
