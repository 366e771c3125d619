"""In-memory spans and counters for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into the program's
public functions; nothing inside the program is instrumented.  Everything is
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass

_NULL = nullcontext()


@dataclass
class Span:
    name: str          # "<layer>.<function>", or "op.<kind>" for a whole op
    start: float       # time.perf_counter() seconds
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int | None     # id of the op the span belongs to
    phase: str         # "setup", "pass<k>" or "control"
    probe: bool        # an extra call made only by the traced run


class _Open:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer.spans[self.index].start = time.perf_counter()
        self.tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index].end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans and counts when enabled; costs one branch when not."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.phase = "setup"
        self.op: int | None = None
        self._stack: list[int] = []

    def span(self, name: str, probe: bool = False):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op, self.phase,
                               probe))
        return _Open(self, len(self.spans) - 1)

    def count(self, name: str, k: int = 1):
        if self.enabled:
            self.counts[self.phase][name] += k

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def probe_seconds(self, phase: str) -> float:
        """Wall time of the outermost probe spans of one phase."""
        return sum(s.end - s.start for s in self.spans
                   if s.phase == phase and s.probe
                   and (s.parent is None or not self.spans[s.parent].probe))

    def dump(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans],
                "counts": {phase: dict(c) for phase, c in self.counts.items()}}
