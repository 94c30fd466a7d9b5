"""In-memory span tracer that wraps the pipeline's public functions.

Each wrapped call records one span (name, start, end, parent) in parallel
lists; nothing is written until the caller asks for a summary. Self time of a
span is its duration minus the durations of its direct children, which in a
single thread never overlap.

Functions are patched where their caller looks them up: a module attribute
such as ``criteria.metrics.kinematic_clip`` or a class attribute such as
``RoadMap.contains_many``. ``restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr: str, make):
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``on_call(tracer, args, kwargs, result)`` runs inside the span and
        records counts from the call's arguments and result.
        """

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                    if on_call is not None:
                        on_call(self, args, kwargs, result)
                    return result
                finally:
                    self.end(idx)

            return wrapper

        self._replace(owner, attr, make)

    def patch_counter(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without opening a span."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[counter] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._replace(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [
            e - s
            for n, s, e in zip(self.names, self.starts, self.ends)
            if n == name
        ]

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time in seconds."""
        if self._stack:
            raise RuntimeError("self_times with open spans")
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[idx]
        out: dict[str, float] = defaultdict(float)
        for idx, name in enumerate(self.names):
            out[name] += dur[idx] - child[idx]
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return dict(out)
