import gc
import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrtmodp import cli
from sqrtmodp.formulas import NotAResidue, SqrtOutcome, roots, sqrt_auto
from sqrtmodp.modarith import PrimeContext, _two_adic, make_context, primes_in_range
from sqrtmodp.oracles import direct_sqrt, tonelli_shanks
from sqrtmodp.synthesis import synthesize

from formula_reference import residue_class, term_values
from prime_search import primes_with_k
from root_table import brute_root_table
from test_lift import EVERY_K
from test_public_api import _fresh_modules


@pytest.mark.parametrize(
    "p,a,root",
    [(7, 2, 3), (7, 1, 1), (7, 4, 2), (11, 3, 5), (19, 0, 0)],
)
def test_f1_examples(p, a, root):
    out = sqrt_auto(make_context(p), a)
    assert out.root == root
    assert out.method == "f1"


def test_f2_examples():
    ctx = make_context(13)
    out = sqrt_auto(ctx, 4)
    assert (out.root, out.coroot) == (2, 11)  # raw bracket value is 11 = -2
    assert sqrt_auto(ctx, 1).root == 1
    out12 = sqrt_auto(ctx, 12)
    assert (out12.root, out12.coroot) == (5, 8)  # raw value is 8


@pytest.mark.parametrize("p,a,root", [(41, 2, 17), (41, 1, 1), (41, 25, 5)])
def test_f3_examples(p, a, root):
    assert sqrt_auto(make_context(p), a).root == root


@pytest.mark.parametrize("p,a,root", [(17, 13, 8), (17, 1, 1), (17, 16, 4)])
def test_f4_examples(p, a, root):
    assert sqrt_auto(make_context(p), a).root == root


def test_wrong_class_is_rejected():
    # the class-specific method names are refused for a p of another class
    # when checked against its context; sqrt_auto itself serves every class
    ctx7 = make_context(7)  # k = 1
    ctx13 = make_context(13)  # k = 2
    for method, ctx in [("f2", ctx7), ("f1", ctx13), ("f3", ctx13), ("f4", ctx13)]:
        with pytest.raises(ValueError, match=f"method {method} needs k="):
            cli._method(method, ctx)
    assert cli._method("f1", ctx7) == (sqrt_auto, 1)
    assert cli._method("f2", ctx13) == (sqrt_auto, 2)


def test_nonresidue_is_rejected():
    with pytest.raises(NotAResidue):
        sqrt_auto(make_context(7), 3)
    with pytest.raises(NotAResidue):
        sqrt_auto(make_context(41), 3)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        sqrt_auto(make_context(7), 7)


def test_sqrt_outcome_contract():
    # positional construction, named fields in this order, and no mutation
    assert list(inspect.signature(SqrtOutcome).parameters) == [
        "root", "coroot", "method", "mul_count"
    ]
    out = SqrtOutcome(2, 11, "f2", 3)
    assert (out.root, out.coroot, out.method, out.mul_count) == (2, 11, "f2", 3)
    assert out == SqrtOutcome(root=2, coroot=11, method="f2", mul_count=3)
    with pytest.raises(AttributeError):
        out.root = 3
    with pytest.raises(AttributeError):
        out.mul_count = 0
    got = sqrt_auto(make_context(13), 4)
    assert isinstance(got, SqrtOutcome)
    assert got == out


@pytest.mark.parametrize("p,a", [(7, 2), (13, 4), (41, 2), (17, 13), (97, 4)])
def test_outcome_is_a_plain_sqrt_outcome(p, a):
    # built with tuple.__new__ on the hot path: the same type, equality and
    # field order as the generated constructor gives, at a residue and at 0,
    # for k = 1..5
    ctx = make_context(p)
    for x in (a, 0):
        out = sqrt_auto(ctx, x)
        assert type(out) is SqrtOutcome
        assert out == SqrtOutcome(*out)
        assert list(out._asdict()) == ["root", "coroot", "method", "mul_count"]
        assert out.root * out.root % p == x


def test_auto_dispatch():
    assert sqrt_auto(make_context(7), 2).method == "f1"
    assert sqrt_auto(make_context(13), 4).method == "f2"
    assert sqrt_auto(make_context(41), 2).method == "f3"
    assert sqrt_auto(make_context(17), 13).method == "f4"
    out = sqrt_auto(make_context(97), 1)
    assert (out.root, out.method) == (1, "synth")


def test_zero_and_one():
    for p in [7, 13, 41, 17, 97]:
        ctx = make_context(p)
        out = sqrt_auto(ctx, 0)
        assert (out.root, out.coroot) == (0, 0)
        assert sqrt_auto(ctx, 1).root == 1


def test_exhaustive_against_brute_force_per_class():
    for p in primes_in_range(3, 800):
        ctx = make_context(p)
        for a, pair in brute_root_table(p).items():
            out = sqrt_auto(ctx, a)
            assert out.root * out.root % p == a
            assert (out.root, out.coroot) == pair


def test_canonical_root_is_smaller():
    for p in [7, 13, 41, 17]:
        ctx = make_context(p)
        for a in brute_root_table(p):
            out = sqrt_auto(ctx, a)
            assert out.root <= p - out.root
            assert out.coroot == p - out.root


def test_mul_count_constant_across_residues():
    # every window is charged: same count for every residue of a fixed prime
    for p in [7, 11, 13, 29, 41, 73, 17, 113]:
        ctx = make_context(p)
        counts = {sqrt_auto(ctx, a).mul_count for a in brute_root_table(p)}
        assert len(counts) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fk_auto_and_synth_agree(k):
    # the CLI runs one evaluator for fK, auto and synth: verify on the class
    # k primes and bench on three of them report the same but for the name
    reps = [cli.run_verification(3, 300, m, k) for m in ("auto", f"f{k}", "synth")]
    assert reps[0].passed and len(reps[0].primes) >= 3
    assert {rep._replace(method="") for rep in reps} == {reps[0]._replace(method="")}
    for pc in reps[0].primes[:3]:
        records = cli.run_bench(pc.p, 8, ["auto", f"f{k}", "synth"])["records"]
        assert [{**r, "method": ""} for r in records] == [{**records[0], "method": ""}] * 3


@pytest.mark.parametrize("p,count", [(7, 2), (2147483647, 58)])
def test_synth_k1_count_is_f1s(p, count):
    # at k = 1 the bracket is empty: no scale or multiplier is charged, and
    # the CLI's f1, synth and auto, one evaluator, bench the bare power's count
    doc = cli.run_bench(p, 4, ["f1", "synth", "auto"])
    assert [(r["method"], r["min_mults"], r["max_mults"]) for r in doc["records"]] == [
        (m, count, count) for m in ("f1", "synth", "auto")
    ]


@pytest.mark.parametrize("p", [41, 97, 7681, 65537, 2013265921])
def test_residue_z_is_rejected_when_the_context_is_built(p):
    # z = 2 is a residue mod each p, so z^n has order below 2^k and its log
    # table would have collisions: the constructor refuses the context, with
    # one row of powers (41, 97), two (7681, 65537) and four (BabyBear)
    ctx = make_context(p)
    with pytest.raises(ArithmeticError, match=rf"z=2 is not a nonresidue mod p={p}:"):
        PrimeContext(p, ctx.k, ctx.n, 2)


@pytest.mark.parametrize(
    "p,k,n,z", [(41, 2, 10, 3), (41, 4, 5, 3), (41, 3, 3, 3), (2, 0, 1, 1)]
)
def test_bad_decomposition_is_rejected_when_the_context_is_built(p, k, n, z):
    # n even; n odd but p - 1 != n 2^k, with k too large and with n too
    # small; k = 0
    want = rf"^p={p}, k={k}, n={n}: need k >= 1, n odd and p - 1 = n 2\^k$"
    with pytest.raises(ValueError, match=want):
        PrimeContext(p, k, n, z)


@pytest.mark.parametrize(
    "p",
    [7, 41, 97, 7681, 786433, 18446744069414584321,
     pytest.param(2147483647, id="m31"), pytest.param(2305843009213693561, id="p61k3")],
    ids=lambda p: f"k{_two_adic(p - 1)}",
)
def test_auto_is_one_python_frame(p):
    # k = 1, 3, 5, 9, 18 and 32 (Goldilocks), and two primes whose shared
    # power walks a chain, the second with a tail step: at k <= 8 the
    # evaluator calls only builtins, so a profiler sees one Python-level
    # call, sqrt_auto, and roots over a whole sequence is one call as well.
    # Above k = 8 the windowed walk is the one function both entries share:
    # sqrt_auto calls _walk once, and roots once per nonzero value
    ctx = make_context(p)
    a = 9 % p
    values = [a, 0, 1, 4 % p, 25 % p]
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    # no collection inside the profiled calls: Hypothesis hooks a Python
    # callback into gc.callbacks, which the profiler would record as a call
    gc.disable()
    sys.setprofile(profile)
    try:
        out = sqrt_auto(ctx, a)
        got = roots(ctx, values)
    finally:
        sys.setprofile(None)
        gc.enable()
    if ctx.k <= 8:
        assert calls == ["sqrt_auto", "roots"]
    else:
        assert calls == ["sqrt_auto", "_walk", "roots"] + ["_walk"] * sum(map(bool, values))
    assert out.root * out.root % p == a
    assert [r * r % p for r in got] == values


def test_formulas_imports_no_synthesis():
    # the package's __init__ imports every module, so each module is imported
    # under a bare package: what loads is what the module imports itself.
    # Neither formulas nor synthesis imports the other.
    for name, want in [
        ("formulas", "['sqrtmodp.formulas', 'sqrtmodp.modarith']\n"),
        ("synthesis", "['sqrtmodp.modarith', 'sqrtmodp.synthesis']\n"),
    ]:
        code = (
            "import importlib.util, sys, types\n"
            "pkg = types.ModuleType('sqrtmodp')\n"
            "pkg.__path__ = importlib.util.find_spec('sqrtmodp').submodule_search_locations\n"
            "sys.modules['sqrtmodp'] = pkg\n"
            f"import sqrtmodp.{name}\n"
            "print(sorted(m for m in sys.modules if m.startswith('sqrtmodp.')))"
        )
        assert _fresh_modules(code) == want, name


@pytest.mark.parametrize("k", EVERY_K)
def test_entries_tag_and_agree_at_every_k(k):
    # sqrt_auto is tagged fK at k <= 4 and synth above, with the context's
    # count; every CLI method that takes the prime gives the same root and
    # coroot, and the class-formula ones (auto, fK, synth) are sqrt_auto
    p = primes_with_k(k, 1)[0]
    ctx = make_context(p)
    rng = random.Random(k)
    fns = {}
    for name in cli.METHODS:
        try:
            fns[name] = cli._method(name, ctx)[0]
        except ValueError:  # f1..f4 at another k, brute above its bound
            pass
    assert [name for name, fn in fns.items() if fn is sqrt_auto] == [
        "auto", *([f"f{k}"] if k <= 4 else []), "synth"
    ]
    assert fns["direct"] is direct_sqrt and fns["tonelli"] is tonelli_shanks
    for a in [0, 1, *(rng.randrange(1, p) ** 2 % p for _ in range(8))]:
        out = sqrt_auto(ctx, a)
        assert out.method == (f"f{k}" if k <= 4 else "synth")
        assert out.mul_count == (ctx._cost if a else 0)
        pairs = {(o.root, o.coroot) for o in (fn(ctx, a) for fn in set(fns.values()))}
        assert pairs == {(out.root, out.coroot)}, (p, a)


def test_selector_property_k3_k4():
    # exactly one bracket term is nonzero at a residue, with value 2^(k-1) z^(en)
    for p in [41, 73, 89, 17, 113, 241]:
        ctx = make_context(p)
        if ctx.k not in (3, 4):
            continue
        f = synthesize(ctx.k)
        for a in brute_root_table(p):
            vals = term_values(f, ctx, a)
            nonzero = [(t, v) for t, v in enumerate(vals) if v]
            assert len(nonzero) == 1
            t, v = nonzero[0]
            assert t == residue_class(ctx, a)
            e = f["terms"][t]["e"]
            assert v == (1 << (ctx.k - 1)) * ctx.zn_pow(e) % p


def test_f2_nonresidue_is_literal_two():
    # for p = 5 mod 8 the smallest nonresidue is always 2, so the context
    # bracket coincides with the constant-2 form; asserted, not assumed
    for p in primes_in_range(3, 3000):
        if p % 8 == 5:
            assert make_context(p).z == 2


@given(st.sampled_from(primes_in_range(3, 5000)), st.data())
@settings(max_examples=100)
def test_sqrt_auto_squares_back(p, data):
    r = data.draw(st.integers(min_value=0, max_value=p - 1))
    a = r * r % p
    out = sqrt_auto(make_context(p), a)
    assert out.root * out.root % p == a
    assert {out.root, out.coroot} == {r, (p - r) % p} if a else out.root == 0
