"""Every quadratic residue of a small prime with its root pair: the tests'
table oracle.

The package builds no such table: verify walks the roots r in 1..(p-1)/2
and checks each method's outcome on r^2 against (r, p - r).  The tests use
the table to iterate over the residues and to look up their expected pairs.
"""

from sqrtmodp.oracles import BRUTE_LIMIT


def brute_root_table(p):
    """Every quadratic residue mapped to its ascending root pair, in one scan,
    in ascending order of the smaller root."""
    if p > BRUTE_LIMIT:
        raise ValueError(f"brute_root_table supports p<={BRUTE_LIMIT} (BRUTE_LIMIT), got p={p}")
    return {r * r % p: (r, p - r) for r in range(1, (p + 1) // 2)}
