"""Event tracer: timestamped spans and events in a ring buffer.

The tracer is the reproduction's flight recorder.  Instrumented sites
across the stack — GC phases, ``mbind`` calls, write-rate monitor
samples, experiment runs — emit records into a bounded
:class:`collections.deque`; ``repro trace <experiment>`` exports them
as JSON lines (one object per record).

Tracing is **off by default**.  The simulation layers never call the
tracer directly: they announce spans and events on the probe bus
(:data:`repro.probe.PROBES`), and the singleton :data:`TRACER`
subscribes to the bus's span/event channel while it is enabled (spans
only, while just an attribution boundary is set).  Harness, serve and
CLI code records its own events here directly.

Record schema (one JSON object per line when exported):

``{"type": "span", "name": ..., "id": ..., "parent": ..., "ts": ...,
"dur": ..., "attrs": {...}}``
``{"type": "event", "name": ..., "ts": ..., "attrs": {...}}``

``ts`` is a host monotonic timestamp (``time.perf_counter`` seconds);
``dur`` is the span length in the same units.  Simulated quantities
(cycle counts, line counts) travel in ``attrs``.

Hierarchical spans
------------------

:meth:`Tracer.push` / :meth:`Tracer.pop` maintain a span *stack*: each
open span knows its parent, gets a stable integer ``id`` (monotonic
within a capture), and records its parent's ``id`` under ``parent``
when closed.  ``pop`` unwinds the stack even when inner frames were
abandoned by an exception, so a fault raised mid-phase cannot orphan
the enclosing spans — instrumented sites wrap the body in
``try/finally``.

The stack also feeds the attribution profiler
(:mod:`repro.observability.profile`): when :attr:`Tracer.boundary` is
set, every push/pop first invokes it with the *current* span path (the
``/``-joined names of the open spans) and the boundary timestamp, so
counter deltas can be attributed to the exact phase that was active —
exclusive intervals, summing to the global totals by construction.
While both tracing and profiling are off, push/pop cost two attribute
loads and a boolean test.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.probe import PROBES, ProbeBus

#: Default ring-buffer capacity (records, not bytes).
DEFAULT_CAPACITY = 65536

#: An open span: ``[id, name, parent_id, start_ts, attrs, closed]``.
#: A plain list (not a class) keeps push allocation-cheap.
SpanFrame = list


class Tracer:
    """A bounded in-memory trace buffer.

    Parameters
    ----------
    capacity:
        Maximum records retained; older records are dropped first.
    clock:
        Timestamp source (injectable for deterministic tests).
    bus:
        Probe bus to record from while enabled (the process-wide
        tracer uses :data:`repro.probe.PROBES`; test tracers none).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock=time.perf_counter,
                 bus: Optional[ProbeBus] = None) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self._bus = bus
        self._enabled = False
        self._boundary: Optional[Callable[[str, float], None]] = None
        self.capacity = capacity
        self._clock = clock
        self._records: deque = deque(maxlen=capacity)
        self.dropped = 0
        #: Open spans, innermost last.
        self._stack: List[SpanFrame] = []
        #: Next span id (stable within a capture; reset by clear()).
        self._next_id = 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether spans and events are being recorded."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        self._route()

    @property
    def boundary(self) -> Optional[Callable[[str, float], None]]:
        """Attribution hook: ``boundary(path, ts)`` is called at every
        span push/pop *before* the stack changes, with the path that was
        active for the interval just ending.  Set by the profiler;
        ``None`` keeps push/pop near-free."""
        return self._boundary

    @boundary.setter
    def boundary(self, hook: Optional[Callable[[str, float], None]]) -> None:
        self._boundary = hook
        self._route()

    def _route(self) -> None:
        """Subscribe to the bus: events while enabled, spans while
        enabled or while an attribution boundary is set."""
        if self._bus is not None:
            self._bus.record(self, events=self._enabled,
                             spans=self._enabled or self._boundary is not None)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0
        self._stack.clear()
        self._next_id = 1

    def set_capacity(self, capacity: int) -> None:
        """Resize the ring buffer, keeping the newest records."""
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._records = deque(self._records, maxlen=capacity)

    @contextmanager
    def capture(self, clear: bool = True) -> Iterator["Tracer"]:
        """Enable tracing for a ``with`` block, restoring state after."""
        if clear:
            self.clear()
        was_enabled = self.enabled
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = was_enabled

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _append(self, record: Dict) -> None:
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(record)

    def event(self, name: str, **attrs) -> None:
        """Record an instantaneous event (no-op while disabled)."""
        if not self._enabled:
            return
        record: Dict = {"type": "event", "name": name, "ts": self._clock()}
        if attrs:
            record["attrs"] = attrs
        self._append(record)

    def begin(self) -> float:
        """Timestamp for a hand-rolled span (pairs with :meth:`complete`)."""
        return self._clock()

    def complete(self, name: str, start: float, **attrs) -> None:
        """Record a flat span that started at ``start`` and ends now.

        Legacy (non-stacked) form: the span still gets a stable ``id``
        and, when other spans are open, a ``parent`` link to the
        innermost one — but it never participates in attribution.
        """
        if not self._enabled:
            return
        now = self._clock()
        record: Dict = {"type": "span", "name": name, "id": self._next_id,
                        "ts": start, "dur": now - start}
        self._next_id += 1
        if self._stack:
            record["parent"] = self._stack[-1][0]
        if attrs:
            record["attrs"] = attrs
        self._append(record)

    # ------------------------------------------------------------------
    # Hierarchical spans
    # ------------------------------------------------------------------
    def current_path(self) -> str:
        """``/``-joined names of the open spans (``""`` at top level)."""
        return "/".join(frame[1] for frame in self._stack)

    def depth(self) -> int:
        """Number of open spans (test/debug aid)."""
        return len(self._stack)

    def push(self, name: str, **attrs) -> Optional[SpanFrame]:
        """Open a nested span; returns the frame to hand to :meth:`pop`.

        Returns ``None`` (and does nothing) while both tracing and
        attribution are off — the caller passes it straight to ``pop``,
        which treats ``None`` as a no-op.
        """
        boundary = self._boundary
        if not self._enabled and boundary is None:
            return None
        now = self._clock()
        if boundary is not None:
            # Close the parent's exclusive interval before nesting.
            boundary(self.current_path(), now)
        parent = self._stack[-1][0] if self._stack else None
        frame: SpanFrame = [self._next_id, name, parent, now, attrs, False]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def pop(self, frame: Optional[SpanFrame], **attrs) -> None:
        """Close a span opened by :meth:`push` (no-op for ``None``).

        Unwinds the stack down to (and including) ``frame`` even if
        inner frames were left open, so exception paths that skip inner
        pops cannot orphan the enclosing spans.  Idempotent: a frame
        already closed by its own ``finally`` is skipped when an outer
        exception handler pops it again.
        """
        if frame is None or frame[5]:
            return
        frame[5] = True
        now = self._clock()
        boundary = self._boundary
        if boundary is not None:
            # Close this span's own exclusive interval before popping.
            boundary(self.current_path(), now)
        try:
            index = self._stack.index(frame)
        except ValueError:
            # clear() ran mid-span, or the frame belongs to another
            # capture: nothing to unwind.
            index = None
        if index is not None:
            del self._stack[index:]
        if self._enabled:
            span_id, name, parent, start, push_attrs = frame[:5]
            record: Dict = {"type": "span", "name": name, "id": span_id,
                            "ts": start, "dur": now - start}
            if parent is not None:
                record["parent"] = parent
            merged = {**push_attrs, **attrs}
            if merged:
                record["attrs"] = merged
            self._append(record)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[Dict]]:
        """Context-manager form of :meth:`push`/:meth:`pop`.

        Yields the mutable ``attrs`` dict so the body can attach
        results, or ``None`` while tracing is disabled.  The ``finally``
        guarantees the span closes (with ``dur``) even when the body
        raises — fault-injection paths rely on this.
        """
        frame = self.push(name, **attrs)
        if frame is None:
            yield None
            return
        try:
            yield frame[4]
        finally:
            self.pop(frame)

    # ------------------------------------------------------------------
    # Reading / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def records(self, kind: Optional[str] = None,
                prefix: str = "") -> List[Dict]:
        """Buffered records, optionally filtered by type and name prefix."""
        return [r for r in self._records
                if (kind is None or r["type"] == kind)
                and r["name"].startswith(prefix)]

    def spans(self, prefix: str = "") -> List[Dict]:
        return self.records("span", prefix)

    def events(self, prefix: str = "") -> List[Dict]:
        return self.records("event", prefix)

    def to_jsonl(self) -> str:
        """Every buffered record as JSON lines (oldest first)."""
        return "\n".join(json.dumps(r, sort_keys=True, default=str)
                         for r in self._records)

    def export_jsonl(self, path: str) -> int:
        """Write the buffer to ``path``; returns records written."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            if text:
                handle.write(text + "\n")
        return len(self._records)


#: The process-wide tracer: records the probe bus's spans and events
#: while enabled.  Starts disabled.
TRACER = Tracer(bus=PROBES)
