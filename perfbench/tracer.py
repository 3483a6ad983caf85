"""Operation timing and per-layer spans, recorded from outside the program.

Every timed call into qpolar goes through :meth:`Recorder.call`.  With
tracing off it only runs the call; the enclosing :meth:`Recorder.op` still
times the whole operation, which is what the end-to-end metrics are made
of.  With tracing on, each call also leaves a span (name, layer, 2S,
start, end, parent span, operation) in memory; the spans are written as
JSON lines when the run ends and the per-layer metrics are computed from
them.
"""

from __future__ import annotations

import json
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# qpolar's modules, in the order the per-layer metrics are printed
LAYERS = ("angmom", "states", "stateio", "multipole", "stokes", "husimi", "search", "catalog", "cli")

# the operation span itself: benchmark glue between the layer calls
BENCH_LAYER = "bench"


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    layer: str
    two_s: int | None
    start: float
    end: float = 0.0


@dataclass
class OpRecord:
    """One attempted operation of a round."""

    kind: str
    label: str
    seconds: float
    probe: bool
    work: int = 1   # points of a scan; 1 for everything else


class Recorder:
    """Times operations always, and records layer spans when `trace` is set."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.epoch = time.perf_counter()
        self.ops: list[OpRecord] = []
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[Span] = []
        self._op_id = -1
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _now(self) -> float:
        return time.perf_counter() - self.epoch

    @contextmanager
    def op(self, kind: str, label: str, two_s: int | None = None, *, probe: bool = False, work: int = 1):
        """Time one operation; the time is kept even when the operation raises."""
        self._op_id += 1
        span = None
        if self.trace:
            span = Span(len(self.spans), None, self._op_id, f"op.{kind}", BENCH_LAYER, two_s, 0.0)
            self.spans.append(span)
            self._stack.append(span)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.ops.append(OpRecord(kind, label, t1 - t0, probe, work))
            if span is not None:
                span.start, span.end = t0 - self.epoch, t1 - self.epoch
                self._stack.pop()

    def call(self, layer: str, fn, *args, two_s: int | None = None, name: str | None = None, **kwargs):
        """Call `fn` and, when tracing, record a span for it in `layer`."""
        if not self.trace:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans), parent.id if parent else None, self._op_id,
            name or f"{layer}.{fn.__name__}", layer, two_s, self._now(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self._now()
            self._stack.pop()

    def attempt(self, kind: str, label: str, two_s, fn, check, *, probe: bool = False, work: int = 1) -> None:
        """Run one operation, timing `fn` alone, then check its output.

        An operation fails when it raises or its output fails the check.  A
        failed probe is a known fault and is only counted; any other failure
        also marks the run incorrect.
        """
        self.attempted += 1
        try:
            with self.op(kind, label, two_s, probe=probe, work=work):
                out = fn()
            check(out)
        except Exception:  # an operation failing is a result to count, not a crash
            self.failed += 1
            if not probe:
                self.errors.append(f"{kind} {label}:\n{traceback.format_exc()}")

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _union_length(intervals) -> float:
    total, end = 0.0, None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus what its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _union_length(children.get(s.id, ()))
        for s in spans
    }


def layer_totals(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Summed self time (s) and span count per layer, the benchmark glue included."""
    own = self_times(spans)
    seconds = {layer: 0.0 for layer in LAYERS + (BENCH_LAYER,)}
    calls = {layer: 0 for layer in LAYERS + (BENCH_LAYER,)}
    for s in spans:
        seconds[s.layer] += own[s.id]
        calls[s.layer] += 1
    return seconds, calls
