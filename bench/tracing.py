"""In-memory span tracer for the traced benchmark run.

The tracer replaces public names of the streamtree layers with wrappers
that record one span per call: name, start, end, parent span, the
benchmark phase the call happened in, and the host's slowdown when it
opened. Spans live in flat typed arrays (29 bytes each) and are turned into
per-layer figures only after the run, so the traced path does no
aggregation work. Nothing under src/ changes; restore() puts the original
objects back.

Spans are timed in process CPU time, the clock of the end-to-end figures,
and are scaled to the reference speed the same way: divided by the
slowdown of reference_loop(), or for names patched with memory=True by
that of memory_loop().
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

SETUP_PHASE = "setup"


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.phase = array("B")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.scale = array("f")
        self.memory_scale = array("f")
        # set by the benchmark whenever it measures the host
        self.slowdown = self.memory_slowdown = 1.0
        self.memory: set[str] = set()  # names scaled by memory_slowdown
        self.results: dict[str, int] = {}
        self._stack: list[int] = []
        self._phase = self._id(SETUP_PHASE)
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.phase.append(self._phase)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self.scale.append(self.slowdown)
        self.memory_scale.append(self.memory_slowdown)
        self._stack.append(idx)
        self.start[idx] = time.process_time_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.process_time_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, count_result: str | None = None):
        """Return fn wrapped in a span; count truthy results under count_result."""
        nid = self._id(name)
        if count_result is not None:
            self.results[count_result] = 0

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count_result is not None and result is not None:
                self.results[count_result] += 1
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count_result: str | None = None,
              memory: bool = False) -> None:
        """Replace owner.attr (a module global or a class attribute) by a traced wrapper."""
        if memory:
            self.memory.add(name)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count_result))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def phase_of(self, name: str):
        """Attribute every span opened inside the block to phase name."""
        outer = self._phase
        self._phase = self._id(name)
        try:
            with self.span("phase." + name):
                yield
        finally:
            self._phase = outer

    def span_count(self) -> int:
        return len(self.name)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Call counts, inclusive and self time per span name, setup excluded by default."""

    def __init__(self, tracer: Tracer) -> None:
        self._ids = dict(tracer._ids)
        self._setup = self._ids[SETUP_PHASE]
        name = np.frombuffer(tracer.name, dtype=np.uint16)
        phase = np.frombuffer(tracer.phase, dtype=np.uint8)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        memory = np.isin(name, [self._ids[n] for n in tracer.memory if n in self._ids])
        scale = np.where(
            memory,
            np.frombuffer(tracer.memory_scale, dtype=np.float32),
            np.frombuffer(tracer.scale, dtype=np.float32),
        ).astype(np.float64)
        dur = (
            np.frombuffer(tracer.end, dtype=np.int64)
            - np.frombuffer(tracer.start, dtype=np.int64)
        ) / scale
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self._name = name
        self._phase = phase
        self._dur = dur
        self._self = dur - covered

    def _mask(self, name: str, setup: bool) -> np.ndarray:
        """Spans of name in set-up (True) or outside it (False)."""
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(len(self._name), dtype=bool)
        mask = self._name == nid
        in_setup = self._phase == self._setup
        return mask & in_setup if setup else mask & ~in_setup

    def calls(self, name: str, setup: bool = False) -> int:
        return int(self._mask(name, setup).sum())

    def total_ns(self, name: str, setup: bool = False) -> float:
        return float(self._dur[self._mask(name, setup)].sum())

    def self_ns(self, name: str, setup: bool = False) -> float:
        return float(self._self[self._mask(name, setup)].sum())

    def mean_ns(self, name: str, setup: bool = False) -> float:
        calls = self.calls(name, setup)
        return self.total_ns(name, setup) / calls if calls else 0.0

    def mean_self_ns(self, name: str, setup: bool = False) -> float:
        calls = self.calls(name, setup)
        return self.self_ns(name, setup) / calls if calls else 0.0
