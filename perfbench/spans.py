"""Spans around calls into the package's layers, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records one span per call into that layer: its name, start,
end and parent span.  A call from a layer into itself (``sqrt_synth`` into
``evaluate``) records nothing, so spans mark layer boundaries only.  Spans
are kept in flat arrays in memory and written out once, at the end of a run.
"""

import gzip
import inspect
import json
import time
from array import array
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._layer_of: list[str] = []  # per name id
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, e.g. one round or one set-up."""
        idx = self._open(self._id(name, "bench"))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, layer: str, name: str, fn):
        nid = self._id(f"{layer}.{name}", layer)
        layer_of, stack, name_id = self._layer_of, self._stack, self.name_id

        def traced(*args, **kwargs):
            if stack and layer_of[name_id[stack[-1]]] == layer:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``{layer name: module}``."""
        for layer, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn):
                    self._saved.append((mod, name, fn))
                    setattr(mod, name, self._wrap(layer, name, fn))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def select(self, name: str, lo: int = 0, hi: int | None = None) -> list[int]:
        """Indices of the spans called ``name`` among spans [lo, hi)."""
        nid = self._ids.get(name)
        hi = len(self) if hi is None else hi
        return [i for i in range(lo, hi) if self.name_id[i] == nid]

    def duration_ns(self, i: int) -> int:
        return self.end[i] - self.start[i]

    def self_ns(self, lo: int = 0, hi: int | None = None) -> dict[int, int]:
        """Self time of every span in [lo, hi): its duration minus the time
        its direct children cover (children never overlap: one thread)."""
        hi = len(self) if hi is None else hi
        own = {i: self.end[i] - self.start[i] for i in range(lo, hi)}
        for i in range(lo, hi):
            par = self.parent[i]
            if par in own:
                own[par] -= self.end[i] - self.start[i]
        return own

    def write(self, path) -> None:
        """Gzipped lines: one JSON header with the span names, then one
        ``[name_id, parent, start_ns, end_ns]`` per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self)):
                fh.write(f"[{self.name_id[i]},{self.parent[i]},{self.start[i]},{self.end[i]}]\n")
