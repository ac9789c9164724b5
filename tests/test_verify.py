"""The verify sweep walks the roots r = 1..(p-1)/2, the class formula's in
chunks through formulas.roots; these tests hold it to the table walk it
replaced, one residue per call, byte for byte, and to flat memory in p."""

import json
import tracemalloc

import pytest

from sqrtmodp import cli, formulas, modarith, oracles
from sqrtmodp.formulas import SqrtOutcome

from root_table import brute_root_table


def _reference(pmin, pmax, method="auto", k_filter=None):
    """run_verification as a walk over brute_root_table(p), in its order,
    one residue per call; a method with a sequence function, the class
    formula's formulas.roots, gives a root, and its coroot is p - root."""
    fn, method_k = cli._method(method)
    mod, _, _, many = cli._METHODS[method]
    checks = []
    for p in modarith.primes_in_range(max(pmin, 3), pmax):
        ctx = modarith.make_context(p)
        if k_filter not in (None, ctx.k) or method_k not in (None, ctx.k):
            continue
        table = brute_root_table(p)
        failures = []
        for a, pair in table.items():
            if many:
                [root] = getattr(mod, many)(ctx, (a,))
                coroot = (p - root) % p
            else:
                root, coroot, _, _ = fn(ctx, a)
            if root * root % p != a or (root, coroot) != pair:
                failures.append(cli.Failure(a, root, coroot, pair))
        checks.append(
            cli.PrimeCheck(p, ctx.k, ctx.n, ctx.z, len(table), tuple(failures))
        )
    total = sum(pc.residues_checked for pc in checks)
    passed = all(not pc.failures for pc in checks)
    return cli.VerificationReport(
        pmin, pmax, method, k_filter, tuple(checks), total, passed
    )


def _doc_bytes(rep):
    return json.dumps(cli.verification_to_doc(rep), indent=2)


def _assert_same_bytes(pmin, pmax, method="auto", k_filter=None):
    got = cli.run_verification(pmin, pmax, method, k_filter)
    want = _reference(pmin, pmax, method, k_filter)
    assert _doc_bytes(got) == _doc_bytes(want)
    return got


@pytest.mark.parametrize(
    "method,k_filter",
    [("auto", None), ("auto", 5), ("f1", 1), ("f2", 2), ("f3", 3), ("f4", 4)],
)
def test_walk_matches_the_table_walk(method, k_filter):
    rep = _assert_same_bytes(3, 2000, method, k_filter)
    assert rep.passed and rep.primes


@pytest.mark.parametrize(
    "method,fault",
    [
        ("f2", lambda p, r, c: ((r + 1) % p, (c - 1) % p)),  # a root off by one
        ("f2", lambda p, r, c: (c, r)),  # the coroot in the root's place
        ("f2", lambda p, r, c: (0, 0)),
        ("tonelli", lambda p, r, c: (2 * r % p, c)),  # the coroot right, a root squaring to 4a
    ],
    ids=["off_by_one", "swapped", "zero_pair", "root_not_a_square_root"],
)
def test_walk_reports_each_fault_as_the_table_walk_does(monkeypatch, method, fault):
    # The fault goes into the function verify runs for the method.  f2 runs
    # formulas.roots, which gives the root alone, its coroot p - root; the
    # last fault breaks that, so it goes into tonelli, run once per residue.
    def faulty_roots(ctx, values):
        return [fault(ctx.p, root, ctx.p - root)[0] for root in orig_roots(ctx, values)]

    def faulty_tonelli(ctx, a):
        out = orig_tonelli(ctx, a)
        root, coroot = fault(ctx.p, out.root, out.coroot)
        return SqrtOutcome(root, coroot, out.method, out.mul_count)

    orig_roots, orig_tonelli = formulas.roots, oracles.tonelli_shanks
    monkeypatch.setattr(formulas, "roots", faulty_roots)
    monkeypatch.setattr(oracles, "tonelli_shanks", faulty_tonelli)
    rep = _assert_same_bytes(3, 400, method, 2)
    assert not rep.passed
    assert all(len(pc.failures) == pc.residues_checked for pc in rep.primes)


def test_walk_memory_is_flat_in_p(monkeypatch):
    # The table walk held (p-1)/2 keys and pairs: about 24 MB at this prime.
    # Traced, each allocation costs microseconds, and the real method's
    # powers make dozens per call (about 20 s for this prime), so the method
    # is a lookup of its own outcomes, built before tracing starts: what is
    # traced is the sweep's own memory.
    p = 262139  # k = 1
    ctx = modarith.make_context(p)
    outcomes = {a: formulas.sqrt_auto(ctx, a).root for a in brute_root_table(p)}
    monkeypatch.setattr(formulas, "roots", lambda ctx, values: [outcomes[a] for a in values])
    tracemalloc.start()
    try:
        rep = cli.run_verification(p, p, "f1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.total_residues == (p - 1) // 2
    assert peak < 2 * 1024 * 1024


@pytest.mark.parametrize("p", [40961, 40993])
def test_each_chunk_is_full_but_the_last(monkeypatch, p):
    # (p-1)/2 residues go to formulas.roots in ceil((p-1)/2 / _CHUNK) calls,
    # each of _CHUNK residues but the last, and no call is empty: at
    # p = 40961, (p-1)/2 = 5 _CHUNK exactly
    sizes = []
    real = formulas.roots

    def counted(ctx, values):
        sizes.append(len(values))
        return real(ctx, values)

    monkeypatch.setattr(formulas, "roots", counted)
    assert cli.run_verification(p, p).passed
    half = (p - 1) // 2
    full, rest = divmod(half, cli._CHUNK)
    assert sizes == [cli._CHUNK] * full + ([rest] if rest else [])
