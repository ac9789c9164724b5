"""Machine-speed correction for timed batches.

On a 2-vCPU Xeon VM shared with other tenants the core's speed drifts from
one moment to the next: identical batches of square-root calls in one
process took anywhere from 32 to 62 ms, and process CPU time tracked wall
time, so it is no cleaner.
After every batch of timed work the benchmark therefore times a fixed
reference computation that never touches the package, and scales the batch
by ``REF_S / reference time``.  A batch that ran while the machine was slow
also sees a slow reference, and the two cancel.

The reference is built from two parts, because the workloads slow down
differently: builtin ``pow`` on a 61-bit modulus plus a small dict loop, and
a bracket-style walk written in the package's idiom, with a counter object,
a dict cache keyed by ``(j, c)`` tuples and a frozen dataclass per result.
Each workload times the kind of reference that matches its own work:
``"pow"`` (powering twice) for ``large_p``, ``"walk"`` (walk twice) for
``high_k``, ``"mixed"`` (one of each) for ``sweep`` and ``reports``.  With
``"pow"`` alone, ``high_k`` moved about 1.5 times as much as the reference
across runs, and a walk made ``large_p`` noisier.
"""

import random
import statistics
import time
from array import array
from dataclasses import dataclass

__all__ = ["REF_S", "Meter", "reference"]

# Nominal reference time in seconds.  Only ratios between runs matter, so
# the constant just keeps corrected figures near raw ones on that VM.
REF_S = 1.0e-3

_M = (1 << 61) - 1
_E = (_M - 1) // 2
_KEYS = range(1000)
_P = 16777153


@dataclass(frozen=True)
class _Factor:
    j: int
    c: int


@dataclass(frozen=True)
class _Result:
    value: int
    count: int


class _Counter:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def mul(self, x: int, y: int, p: int) -> int:
        self.count += 1
        return x * y % p


_FACTORS = [_Factor(j, (t * 7919 + j * 104729) % 4096) for t in range(96) for j in range(8)]


def _powering(x: int) -> int:
    for i in range(20):
        x = pow(x + i, _E, _M)
    d = {}
    for k in _KEYS:
        d[k] = k ^ x
    s = 0
    for k in _KEYS:
        s += d[k]
    return x


def _walk(x: int) -> int:
    results = []
    for i in range(0, len(_FACTORS), 128):
        c, cache, v = _Counter(), {}, 1
        for f in _FACTORS[i:i + 128]:
            key = (f.j, f.c)
            fv = cache.get(key)
            if fv is None:
                fv = cache[key] = (1 + x * f.c) % _P
            v = c.mul(v, fv, _P)
        results.append(_Result(v, c.count))
    return x + len(results)


_KINDS = {"pow": (_powering, _powering), "walk": (_walk, _walk), "mixed": (_powering, _walk)}


def reference(kind: str = "mixed") -> float:
    """Seconds taken by the fixed reference computation of ``kind``."""
    t0 = time.perf_counter()
    x = 3
    for part in _KINDS[kind]:
        x = part(x)
    return time.perf_counter() - t0


class Meter:
    """Keeps the speed-corrected time of every batch, by its place in the
    round, and corrected per-op times: all of them up to ``OP_CAP``, then a
    uniform reservoir sample.

    The per-op buffer is allocated whole up front, so the process's peak
    memory does not depend on how many operations a run got through.
    """

    OP_CAP = 1 << 19

    def __init__(self, kind: str = "mixed") -> None:
        self.kind = kind
        self.raw_s = 0.0
        self.corrected_s = 0.0
        self.ref_s: list[float] = []
        self.by_key: dict[object, list[float]] = {}
        self._ops = array("d", bytes(8 * self.OP_CAP))
        self.n_ops = 0
        self._rng = random.Random(0)

    @property
    def op_s(self):
        return self._ops[: min(self.n_ops, self.OP_CAP)]

    def _record(self, t: float) -> None:
        if self.n_ops < self.OP_CAP:
            self._ops[self.n_ops] = t
        else:
            j = self._rng.randrange(self.n_ops + 1)
            if j < self.OP_CAP:
                self._ops[j] = t
        self.n_ops += 1

    def round_s(self) -> float:
        """A typical round: the sum over its batches of each one's median
        corrected time.  A burst of contention that the reference missed
        moves a few batches, not their medians."""
        return sum(statistics.median(ts) for ts in self.by_key.values())

    def batch(self, body, key=0):
        """Time ``body()``, then the reference; return what ``body`` returned.

        ``key`` names the batch's place in a round.  ``body`` returns
        ``(result, op_times)``: per-op times in seconds it measured itself,
        or an empty sequence.  They are scaled by the same factor as the
        batch.
        """
        t0 = time.perf_counter()
        result, op_times = body()
        dt = time.perf_counter() - t0
        ref = reference(self.kind)
        factor = REF_S / ref
        self.ref_s.append(ref)
        self.raw_s += dt
        self.corrected_s += dt * factor
        self.by_key.setdefault(key, []).append(dt * factor)
        for t in op_times:
            self._record(t * factor)
        return result
