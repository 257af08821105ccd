"""Spans around calls into the blowup modules, recorded from outside the package.

`instrument(tracer)` swaps every module-level binding of the traced functions
(for example `eigen_spectrum`, which `search` and `bounds` import by name), the
traced methods on their classes, and `numpy.linalg.eigvalsh`, which the
package looks up on `numpy.linalg` at call time. Leaving the block restores
the originals. Nothing under `src/` is edited.

A span records its name, start, end and parent span. Spans stay in memory
until the run ends. A span's self time is its duration minus the durations
of its direct children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

#: span name -> (module defining the function, attribute name)
FUNCTION_SPANS = {
    "graphs.g6_decode": ("blowup.graphs", "g6_decode"),
    "graphs.g6_encode": ("blowup.graphs", "g6_encode"),
    "graphs.closed_blowup_graph": ("blowup.graphs", "closed_blowup_graph"),
    "spectra.eigen_spectrum": ("blowup.spectra", "eigen_spectrum"),
    "spectra.blowup_transform": ("blowup.spectra", "blowup_transform"),
    "families.parse_expression": ("blowup.families", "parse_expression"),
    "families.johnson": ("blowup.families", "johnson"),
    "bounds.certify": ("blowup.bounds", "certify"),
    "bounds.reproduce_table": ("blowup.bounds", "reproduce_table"),
    "search.exhaustive_max": ("blowup.search", "exhaustive_max"),
    "search.stream_max": ("blowup.search", "stream_max"),
    "search.local_search": ("blowup.search", "local_search"),
    "cli.main": ("blowup.cli", "main"),
}

#: span name -> (module, class, method); patched on the class itself
METHOD_SPANS = {
    "graphs.Graph": ("blowup.graphs", "Graph", "__init__"),
    "spectra.Spectrum": ("blowup.spectra", "Spectrum", "__init__"),
    "families.SpectralDescriptor.validate": ("blowup.families", "SpectralDescriptor", "__post_init__"),
}

#: counted but not timed: too frequent for a span each
COUNTED_METHODS = {
    "exact.Quadratic": ("blowup.exact", "Quadratic", "__init__"),
}

EIG_BATCHED = "eig.batched"
#: single eigensolves are split by order, so n=12 and n=30 anneals separate
EIG_SINGLE_BUCKETS = ((16, "eig.single.le16"), (64, "eig.single.17to64"),
                      (256, "eig.single.65to256"), (None, "eig.single.gt256"))

ALL_SPANS = (
    [EIG_BATCHED] + [name for _, name in EIG_SINGLE_BUCKETS]
    + list(FUNCTION_SPANS) + list(METHOD_SPANS)
)


def single_bucket(n: int) -> str:
    return next(name for limit, name in EIG_SINGLE_BUCKETS if limit is None or n <= limit)


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self, max_spans: int = 2_000_000):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        #: matrices eigensolved while a span of this name was open
        self.solves_within: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name id, start, child seconds, span index]
        self.max_spans = max_spans
        self.dropped = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.solves_within.append(0)
        return nid

    def _open(self, nid: int) -> list:
        stack = self._stack
        idx = len(self.span_name)
        if idx < self.max_spans:
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            self.dropped += 1
            idx = -1
        frame = [nid, time.perf_counter(), 0.0, idx]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        nid, start, child, idx = frame
        dur = end - start
        self.calls[nid] += 1
        self.total_s[nid] += dur
        self.self_s[nid] += dur - child
        if stack:
            stack[-1][2] += dur
        if idx >= 0:
            self.span_start[idx] = start
            self.span_end[idx] = end

    def timed(self, name: str, fn):
        """Wrap fn so each call records one span named name."""
        nid = self.name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return traced

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def eigvalsh(self, fn):
        """Wrap numpy.linalg.eigvalsh: batched vs single by order, solves attributed."""
        batched = self.name_id(EIG_BATCHED)
        buckets = {name: self.name_id(name) for _, name in EIG_SINGLE_BUCKETS}
        open_, close, stack = self._open, self._close, self._stack
        within = self.solves_within
        self.counts.setdefault("eig.batched.matrices", 0)
        self.counts.setdefault("eig.single.flops_computed", 0)

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            shape = np.shape(a)
            n = shape[-1] if shape else 0
            if len(shape) > 2:
                nid = batched
                matrices = int(np.prod(shape[:-2]))
                self.counts["eig.batched.matrices"] += matrices
            else:
                nid = buckets[single_bucket(n)]
                matrices = 1
                self.counts["eig.single.flops_computed"] += n ** 3
            for open_nid in {f[0] for f in stack}:
                within[open_nid] += matrices
            frame = open_(nid)
            try:
                return fn(a, *args, **kwargs)
            finally:
                close(frame)

        return traced

    def snapshot(self) -> dict:
        """Exact counts so far, keyed by metric name."""
        out = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.solves_within"] = self.solves_within[nid]
        return out

    def time_of(self, name: str, kind: str = "self") -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return (self.self_s if kind == "self" else self.total_s)[nid]

    def spans(self) -> dict:
        """The recorded spans as arrays, for writing out."""
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }


def _blowup_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "blowup" or name.startswith("blowup."))]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the traced names for the duration of the block."""
    restore: list[tuple[object, str, object]] = []
    modules = _blowup_modules()

    def rebind(orig, replacement):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    restore.append((mod, key, val))
                    setattr(mod, key, replacement)

    def patch_method(spec, wrap):
        modname, clsname, attr = spec
        cls = getattr(sys.modules[modname], clsname)
        orig = cls.__dict__[attr]
        restore.append((cls, attr, orig))
        setattr(cls, attr, wrap(orig))

    try:
        for span, (modname, attr) in FUNCTION_SPANS.items():
            orig = getattr(sys.modules[modname], attr)
            rebind(orig, tracer.timed(span, orig))
        for span, spec in METHOD_SPANS.items():
            patch_method(spec, functools.partial(tracer.timed, span))
        for name, spec in COUNTED_METHODS.items():
            patch_method(spec, functools.partial(tracer.counted, f"{name}.calls"))
        orig_eig = np.linalg.eigvalsh
        restore.append((np.linalg, "eigvalsh", orig_eig))
        np.linalg.eigvalsh = tracer.eigvalsh(orig_eig)
        yield tracer
    finally:
        for owner, key, val in reversed(restore):
            setattr(owner, key, val)
