"""The tests' one search for primes: bounded, so a broken is_prime fails a
search in seconds instead of looping for ever.

Every search walks an arithmetic progression start, start + step, ... and
keeps the primes is_prime finds.  It tries at most TRIES candidates and
then raises LookupError naming the search.  Near 2^81, the largest prime
the tests search for, about one odd candidate in 28 is prime, so a correct
is_prime never meets the cap.
"""

from sqrtmodp.modarith import is_prime

TRIES = 10_000


def first_primes(start, step, count=1):
    """The first count primes among start, start + step, ..., in order."""
    found = []
    for m in range(start, start + TRIES * step, step):
        if is_prime(m):
            found.append(m)
            if len(found) == count:
                return found
    raise LookupError(
        f"prime search from {start} by steps of {step}: {len(found)} of {count} primes "
        f"in {TRIES} candidates"
    )


def primes_with_k(k, count=1, n=1):
    """The first count primes 2^k m + 1 with m odd and m >= n odd: in
    ascending order, the primes p with 2^k exactly dividing p - 1."""
    return first_primes((n << k) + 1, 2 << k, count)
