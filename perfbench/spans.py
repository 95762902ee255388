"""In-memory spans around calls into submimo's layers, and their self times.

A span records a name, start, end, the span it was opened under and the
trial it belongs to. Spans are kept in a list while the workload runs and
written out once at the end. A span's self time is its duration less the
time its direct children cover; the code is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    trial: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Collects spans; `wrapped` swaps functions for spanning wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, trial: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if trial is None and parent is not None:
            trial = parent.trial
        s = Span(len(self.spans), parent.id if parent else None, trial, name,
                 time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return spanned

    @contextmanager
    def wrapped(self, targets):
        """Replace each (owner, attribute) with a spanning wrapper, then restore."""
        saved = []
        try:
            for owner, attr, name in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return {s.id: (s.end - s.start) - covered[s.id] for s in self.spans}

    def self_ms_by_name(self) -> dict[str, list[float]]:
        own = self.self_times()
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            out[s.name].append(own[s.id] * 1e3)
        return out

    def calls_per_trial(self, name: str) -> list[int]:
        """Calls of `name` in each traced trial, trials with none included."""
        counts = {s.trial: 0 for s in self.spans if s.name == TRIAL_SPAN}
        for s in self.spans:
            if s.name == name and s.trial in counts:
                counts[s.trial] += 1
        return list(counts.values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


TRIAL_SPAN = "bench.trial"


def median_or_zero(values) -> float:
    """Median of the samples; an idle layer has none and reads 0."""
    return statistics.median(values) if values else 0.0
