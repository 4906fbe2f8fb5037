"""Named, nestable wall-clock spans with counters.

A span times one stage of a run — the step loop of a runner, the drift
check of the escape verifier — and carries named counters that hot kernels
increment cheaply.  Spans nest: entering a span inside another records a
``parent/child`` path, so a trace or a :class:`~repro.telemetry.recorder.
MetricsRecorder` aggregate shows where the wall clock went, level by level.

The zero-overhead contract extends to spans: :func:`span` returns the
shared no-op :data:`NULL_SPAN` when the recorder is disabled, so guarded
call sites cost one attribute check.  Enabled spans are emitted through the
``span_recorded`` hook of :class:`~repro.telemetry.recorder.Recorder` when
they exit — :class:`MetricsRecorder` aggregates them, ``ColumnarTraceWriter``
streams them as ``span`` records (schema in docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "Span",
    "SpanRecord",
    "SpanAggregate",
    "NullSpan",
    "NULL_SPAN",
    "span",
    "current_span",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as handed to ``Recorder.span_recorded``.

    Attributes:
        name: the span's own label (``"steps"``).
        path: slash-joined label chain from the outermost open span
            (``"convergence_ensemble/ensemble"``) — the aggregation key.
        depth: nesting depth (0 for a top-level span).
        wall_s: wall-clock seconds from entry to exit.
        counters: named totals incremented during the span via
            :meth:`Span.incr` (e.g. ``{"rounds": 341}``).
    """

    name: str
    path: str
    depth: int
    wall_s: float
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class SpanAggregate:
    """Running totals for one span path (how ``MetricsRecorder`` folds spans).

    Attributes:
        calls: number of finished spans with this path.
        wall_s: summed wall clock across those spans.
        counters: per-key sums of the spans' counters.
    """

    calls: int = 0
    wall_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    def add(self, record: SpanRecord) -> None:
        self.calls += 1
        self.wall_s += record.wall_s
        for key, value in record.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value


class Span:
    """A live timing span bound to a recorder; use as a context manager.

    Entering pushes the span on the recorder's span stack (giving nested
    spans their path); exiting pops it, stamps the wall clock, and emits a
    :class:`SpanRecord` through ``recorder.span_recorded``.
    """

    __slots__ = ("recorder", "name", "path", "depth", "counters", "_started_at")

    def __init__(self, recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.path = name
        self.depth = 0
        self.counters: Dict[str, float] = {}
        self._started_at: Optional[float] = None

    def incr(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def __enter__(self) -> "Span":
        stack = _stack_of(self.recorder)
        if stack:
            parent = stack[-1]
            self.path = f"{parent.path}/{self.name}"
            self.depth = parent.depth + 1
        stack.append(self)
        self._started_at = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        wall = time.perf_counter() - (self._started_at or 0.0)
        stack = _stack_of(self.recorder)
        if stack and stack[-1] is self:
            stack.pop()
        self.recorder.span_recorded(
            SpanRecord(
                name=self.name,
                path=self.path,
                depth=self.depth,
                wall_s=wall,
                counters=dict(self.counters),
            )
        )


class NullSpan:
    """The do-nothing span: what disabled recorders hand out.

    Stateless and reusable, so one module-level instance serves every
    disabled call site; ``incr`` and the context protocol are no-ops.
    """

    __slots__ = ()

    def incr(self, key: str, amount: float = 1) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def __repr__(self) -> str:
        return "NullSpan()"


NULL_SPAN = NullSpan()
"""Shared no-op span returned for disabled recorders."""


def span(recorder, name: str):
    """Open a (not-yet-entered) span on ``recorder``, or :data:`NULL_SPAN`.

    The single entry point hot code uses::

        with span(recorder, "steps") as sp:
            ...
            sp.incr("rounds", executed)

    With a disabled recorder this returns the shared no-op span, so the
    ``with`` block costs two no-op calls and the loop body is unchanged.
    """
    if not recorder.enabled:
        return NULL_SPAN
    return Span(recorder, name)


def current_span(recorder):
    """The innermost open span on ``recorder``, or :data:`NULL_SPAN`.

    Lets leaf kernels (e.g. ``step_counts_batch``) attribute counters to
    whatever stage is timing them without threading a span object through
    every signature.
    """
    if not recorder.enabled:
        return NULL_SPAN
    stack = getattr(recorder, "_span_stack", None)
    if not stack:
        return NULL_SPAN
    return stack[-1]


def _stack_of(recorder):
    stack = getattr(recorder, "_span_stack", None)
    if stack is None:
        stack = []
        try:
            recorder._span_stack = stack
        except AttributeError:  # frozen/slotted recorder: spans stay flat
            return stack
    return stack
