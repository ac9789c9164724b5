"""Checks of the program's outputs, computed apart from the program.

Nothing here imports the package: every expected value comes from number
theory done from scratch (a Jacobi symbol by reciprocity, a sieve, the
2-adic split of p - 1) or from a property the method must have.  Each check
raises ``CheckFailed`` on a wrong answer.
"""

import re
from fractions import Fraction

__all__ = [
    "CheckFailed",
    "check_bench",
    "check_density",
    "check_expand",
    "check_nonresidue",
    "check_rendered",
    "check_root",
    "check_sqrt_doc",
    "check_structured",
    "check_verification",
    "decompose",
    "jacobi",
    "primes_upto",
    "smallest_nonresidue",
]


class CheckFailed(AssertionError):
    """The program's output is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m > 0, by quadratic reciprocity."""
    if m <= 0 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got {m}")
    a %= m
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sign = -sign
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            sign = -sign
        a %= m
    return sign if m == 1 else 0


def decompose(p: int) -> tuple[int, int]:
    """(k, n) with p - 1 = 2^k n, n odd."""
    n, k = p - 1, 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k, n


def smallest_nonresidue(p: int) -> int:
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    return z


def primes_upto(hi: int, lo: int = 3) -> list[int]:
    """Primes in [lo, hi] by trial division; fine for the small sweep bounds."""
    out = []
    for m in range(max(lo, 2), hi + 1):
        if all(m % q for q in range(2, int(m**0.5) + 1)):
            out.append(m)
    return out


def check_root(p: int, r: int, root: int, coroot: int) -> None:
    """For a = r^2 mod p the canonical root is min(r, p - r)."""
    _require(root == min(r, p - r), f"p={p}: root {root} for r={r}")
    _require(coroot == p - root, f"p={p}: coroot {coroot} for root {root}")


def check_sqrt_doc(doc: dict, p: int, a: int) -> None:
    """A `sqrt` report: the root squares to a and pairs with its negative."""
    _require(doc["p"] == p and doc["a"] == a, f"sqrt report echoes {doc['p']}, {doc['a']}")
    root, coroot = doc["root"], doc["coroot"]
    _require(root * root % p == a, f"p={p}: {root}^2 != {a}")
    _require(coroot == p - root and root <= coroot, f"p={p}: pair {root}, {coroot}")


def check_nonresidue(rc: int, stdout: str, p: int, a: int) -> None:
    """`sqrt` on a nonresidue exits 2 and prints no report."""
    _require(jacobi(a, p) == -1, f"{a} is a residue mod {p}")
    _require(rc == 2, f"nonresidue {a} mod {p} exited {rc}")
    _require(stdout == "", "nonresidue printed a report")


def _structured_value(doc: dict, p: int, n: int, z: int, x: int) -> int:
    total = 0
    for td in doc["terms"]:
        v = pow(z, td["e"] * n, p)
        for fd in td["factors"]:
            v = v * (1 + pow(x, (1 << fd["j"]) * n, p) * pow(z, fd["c"] * n, p)) % p
        total += v
    scale = pow(pow(2, doc["inverse_power_of_two"], p), p - 2, p)
    return scale * pow(x, (n + 1) // 2, p) * total % p


def check_structured(doc: dict, k: int, p: int) -> None:
    """The structured formula, read from its document and evaluated here at
    every residue of the small prime p (which has the formula's k), gives a
    square root."""
    pk, n = decompose(p)
    _require(pk == k and doc["k"] == k, f"formula k={doc['k']}, wanted {k}")
    _require(len(doc["terms"]) == 1 << (k - 1), f"{len(doc['terms'])} terms at k={k}")
    z = smallest_nonresidue(p)
    for r in range(1, (p + 1) // 2):
        a = r * r % p
        v = _structured_value(doc, p, n, z, a)
        _require(v * v % p == a, f"formula gives {v} at a={a} mod {p}")


def check_rendered(text: str, k: int, fmt: str) -> None:
    """Text and math renderings list 2^(k-1) terms of k-1 factors each."""
    if fmt == "text":
        body = text.split("[ ", 1)[1].rsplit(" ]", 1)[0]
    else:
        body = text.split("\\left[ ", 1)[1].rsplit(" \\right]", 1)[0]
    terms = re.split(r" \+ (?!x)", body)  # " + x^" is inside a factor
    _require(len(terms) == 1 << (k - 1), f"{fmt}: {len(terms)} terms at k={k}")
    for t in terms:
        _require(t.count("(1 ") == k - 1, f"{fmt}: term {t!r} lacks {k - 1} factors")


def check_expand(doc: dict, p: int, residues) -> None:
    """Degree 2^(k-1) n - (n-1)/2, at most 2^(k-1) terms, and the sparse
    polynomial squares back at the given residues."""
    k, n = decompose(p)
    terms = doc["terms"]
    want = (1 << (k - 1)) * n - (n - 1) // 2
    _require(doc["degree"] == want and terms[0][0] == want, f"expand degree {doc['degree']}, wanted {want}")
    _require(len(terms) <= 1 << (k - 1), f"expand has {len(terms)} terms at k={k}")
    _require(doc["degree_check"] == "PASS", "expand degree check did not pass")
    for a in residues:
        v = sum(co * pow(a, ex, p) for ex, co in terms) % p
        _require(v * v % p == a, f"expansion gives {v} at a={a} mod {p}")


def check_density(doc: dict, p: int) -> None:
    """Odd-order share 1/2^(k-1), exact-order share 1/(2n)."""
    k, n = decompose(p)
    qr = (p - 1) // 2
    _require(doc["qr_count"] == qr and sum(doc["class_histogram"]) == qr, "density counts")
    _require(Fraction(doc["odd_order_fraction"]) == Fraction(1, 1 << (k - 1)), f"odd-order share {doc['odd_order_fraction']}")
    _require(Fraction(doc["exact_2k1_fraction"]) == Fraction(1, 2 * n), f"exact-order share {doc['exact_2k1_fraction']}")


def check_bench(doc: dict, p: int, trials: int) -> None:
    """Default methods in order; auto and fK straight-line at k <= 4."""
    k, _ = decompose(p)
    methods = [r["method"] for r in doc["records"]]
    _require(methods == ["auto", f"f{k}", "synth", "direct", "tonelli"], f"bench methods {methods}")
    for r in doc["records"]:
        _require(r["trials"] == trials, f"bench {r['method']} ran {r['trials']} trials")
        if r["method"] in ("auto", f"f{k}"):
            _require(r["min_mults"] == r["max_mults"], f"bench {r['method']} count varies")


def check_verification(primes, total: int, passed: bool, pmin: int, pmax: int) -> None:
    """``primes`` holds (p, k, n, z, residues_checked, failure_count) rows."""
    want = primes_upto(pmax, pmin)
    _require([row[0] for row in primes] == want, "verify prime list differs from the sieve")
    _require(total == sum((p - 1) // 2 for p in want), f"verify total_residues {total}")
    _require(passed, "verify did not pass")
    for p, k, n, z, checked, failures in primes:
        _require((k, n) == decompose(p) and z == smallest_nonresidue(p), f"verify context for p={p}")
        _require(checked == (p - 1) // 2 and failures == 0, f"verify row for p={p}")
