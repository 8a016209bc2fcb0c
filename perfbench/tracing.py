"""In-memory span recorder for the traced run.

A span has a name, start, end, the id of the span open when it started
(its parent) and the workload it belongs to. Spans stay in memory and are
written out once, when the traced process ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    workload: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str, clock: Callable[[], float] = time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), name, self.clock(), float("nan"), parent, self.workload)
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()

    def to_json(self) -> List[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def spans_from_json(rows: Iterable[dict]) -> List[Span]:
    return [Span(**row) for row in rows]


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def check_nesting(spans: List[Span]) -> List[str]:
    """Each child lies inside its parent's interval; parents exist and start first."""
    by_id: Dict[int, Span] = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if not s.end >= s.start:
            problems.append(f"span {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"span {s.name} has unknown parent {s.parent}")
        elif not (p.start <= s.start and s.end <= p.end):
            problems.append(f"span {s.name} is not inside its parent {p.name}")
    return problems


def coverage(spans: List[Span], wall: float) -> float:
    """Share of the traced process's wall time inside top-level spans."""
    if wall <= 0:
        raise ValueError("wall time must be positive")
    return _union_length((s.start, s.end) for s in spans if s.parent is None) / wall


def total(spans: List[Span], name: str, parent: Optional[str] = None) -> float:
    """Summed duration of spans called name (optionally only under a named parent)."""
    names = {s.id: s.name for s in spans}
    return sum(s.duration for s in spans
               if s.name == name and (parent is None or names.get(s.parent) == parent))


def count(spans: List[Span], name: str, parent: Optional[str] = None) -> int:
    names = {s.id: s.name for s in spans}
    return sum(1 for s in spans
               if s.name == name and (parent is None or names.get(s.parent) == parent))
