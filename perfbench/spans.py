"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark around each public call it makes into
``loblab``; the package itself is not instrumented.  Each span keeps its
name, start, end and the index of the span that was open when it started,
so self time (duration minus the time covered by child spans) can be
computed once the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracer for untraced runs: records nothing."""

    enabled = False

    def __init__(self) -> None:
        self._null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    """Records spans in memory until the run ends."""

    enabled = True

    def __init__(self) -> None:
        # each span is [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def phase(self, root: str) -> dict:
        """Aggregate the spans below every span named ``root``.

        Returns ``{"wall_s": total duration of the root spans, "spans":
        {name: {"calls": n, "self_s": s}}}``, where the root's own self time
        appears under its name (the benchmark's bookkeeping in that phase).
        """
        covered = [0.0] * len(self.spans)
        under = [False] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += end - start
                under[i] = under[parent]
            if name == root:
                under[i] = True
        wall = 0.0
        spans: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if not under[i]:
                continue
            if name == root:
                wall += end - start
            entry = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - covered[i]
        return {"wall_s": wall, "spans": spans}


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one empty span, net of an untraced one."""

    def per_span(tracer) -> float:
        t0 = time.perf_counter()
        for _ in range(samples):
            with tracer.span("calibration"):
                pass
        return (time.perf_counter() - t0) / samples

    traced = min(per_span(Tracer()) for _ in range(3))
    untraced = min(per_span(NullTracer()) for _ in range(3))
    return max(traced - untraced, 0.0)
