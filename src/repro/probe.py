"""The probe bus: one hook mechanism for every cross-cutting subsystem.

Fault injection, the invariant sanitizer, the event tracer and the
write-attribution profiler all watch the same moments of a run.  The
simulation announces them on :data:`PROBES` and imports none of those
subsystems; each subscribes while it is switched on.  This module
imports nothing from ``repro``, so hot packages may depend on it.

All three forms are free while nothing listens::

    if PROBES.on:                                   # one attribute check
        PROBES.fire("kernel.munmap", pid=pid)       # -> first answer
        PROBES.event("kernel.mbind", node=node)     # trace record

    frame = PROBES.push("gc.minor")                 # None while untraced
    try:
        ...
    finally:
        PROBES.pop(frame, pause_cycles=pause)

``fire`` calls every subscriber with ``(site, ctx)`` and returns the
first answer that is not ``None`` (``"stale"`` at ``monitor.sample``,
``"exhaust"`` at ``runtime.heap.commit``, the profile at
``platform.profile``); a subscriber's exception propagates, which is
how injected faults raise.  Spans and events go to the one recorder,
the tracer.  :data:`SITES` is the only table of site names; lint rule
H001 reads it from this file's source.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Union

#: ``handler(site, ctx)`` -> an answer, or ``None``.
Handler = Callable[[str, Dict[str, Any]], Any]

#: site -> (the ``module::Qual.name`` firing it, or a tuple of them;
#: what it means).  "fault": a fault plan can act there; "check": the
#: sanitizer sweeps its laws after the operation; "span"/"event"/
#: "complete": the trace record of that name.
SITES: Dict[str, Tuple[Union[str, Tuple[str, ...]], str]] = {
    # -- machine ----------------------------------------------------
    "machine.flush_all": ("repro.machine.numa::NumaMachine.flush_all",
                          "fault: before the final write-back drain"),
    "machine.flush": ("repro.machine.numa::NumaMachine.flush_all",
                      "span: the drain, charged to the flush"),
    "machine.flush_all.done": ("repro.machine.numa::NumaMachine.flush_all",
                               "check: machine laws after the drain"),
    "machine.reset_counters.done": (
        "repro.machine.numa::NumaMachine.reset_counters",
        "check: re-anchor the conservation deltas after the reset"),
    "machine.engine_flush": (
        "repro.machine.colengine::ColumnarCorePath.flush_pending",
        "fault: a columnar batch is about to execute (ctx: runs)"),
    # -- kernel -----------------------------------------------------
    "kernel.mmap_bind": ("repro.kernel.vm::Kernel.mmap_bind",
                         "fault: entry, before any frame moves"),
    "kernel.mbind": ("repro.kernel.vm::Kernel._bound",
                     "event: a completed bind"),
    "kernel.mmap_bind.done": ("repro.kernel.vm::Kernel._bound",
                              "check: kernel and machine laws"),
    "kernel.munmap": ("repro.kernel.vm::Kernel.munmap",
                      "fault: entry, before any frame is released"),
    "kernel.munmap.done": ("repro.kernel.vm::Kernel.munmap",
                           "check: kernel and machine laws"),
    "kernel.migrate": ("repro.kernel.vm::Kernel.migrate_page",
                       "fault: entry, before the destination frame is "
                       "allocated; span: the page copy"),
    "kernel.migrate.done": ("repro.kernel.vm::Kernel.migrate_page",
                            "check: kernel and machine laws"),
    "kernel.placement_tick.done": ("repro.kernel.vm::Kernel.placement_tick",
                                   "check: kernel and machine laws"),
    "kernel.reclaim": ("repro.kernel.vm::Kernel.reclaim_process",
                       "fault: entry of process teardown"),
    "kernel.reclaim.done": ("repro.kernel.vm::Kernel.reclaim_process",
                            "check: kernel and machine laws"),
    # -- runtime ----------------------------------------------------
    "runtime.heap.commit": ("repro.runtime.heap::HybridHeap.may_commit",
                            "fault: budget check; an 'exhaust' answer "
                            "denies it (real emergency-GC -> OOM path)"),
    "runtime.heap.chunk_acquired": (
        "repro.runtime.heap::HybridHeap.note_chunk_acquired",
        "check: free-list occupancy"),
    "jvm.boot": ("repro.runtime.jvm::JavaVM._boot_image_load",
                 "span: the boot-image load"),
    "runtime.gc": (("repro.runtime.jvm::JavaVM.minor_collect",
                    "repro.runtime.jvm::JavaVM.full_collect"),
                   "fault: GC safepoint entry (ctx: kind=minor|full)"),
    "gc.minor": ("repro.runtime.jvm::JavaVM.minor_collect",
                 "span: one nursery collection"),
    "gc.full": ("repro.runtime.jvm::JavaVM.full_collect",
                "span: one full-heap collection"),
    "runtime.gc.done": (("repro.runtime.jvm::JavaVM.minor_collect",
                         "repro.runtime.jvm::JavaVM.full_collect"),
                        "check: heap, kernel and machine laws"),
    "runtime.shutdown": ("repro.runtime.jvm::JavaVM.shutdown",
                         "fault: after the VM released its frames"),
    "runtime.alloc": ("repro.runtime.jvm::MutatorContext.alloc",
                      "fault: allocation entry (oom, page_fault)"),
    # -- core: collectors, monitor, platform -------------------------
    "gc.trace": ("repro.core.collectors.base::Collector.minor_collect",
                 "span: tracing the young generation"),
    "gc.observer": ("repro.core.collectors.base::Collector.minor_collect",
                    "span: KG-W observer-space collection"),
    "gc.promote": ("repro.core.collectors.base::Collector.minor_collect",
                   "span: copying nursery survivors"),
    "gc.mark": ("repro.core.collectors.base::Collector.mark_and_sweep",
                "span: full-heap marking"),
    "gc.sweep": ("repro.core.collectors.base::Collector.mark_and_sweep",
                 "span: sweeping the chunked spaces"),
    "gc.large_migration": (
        "repro.core.collectors.kingsguard::"
        "KingsguardCollector.post_full_collection",
        "event: KG-W moved a written large object to DRAM"),
    "monitor.sample": ("repro.core.monitor::WriteRateMonitor.sample",
                       "fault: entry ('stale' re-publishes the previous "
                       "counters); span: the read; event: the counters"),
    "run": ("repro.core.platform::HybridMemoryPlatform.run",
            "span: the measured iteration (every profile path's root)"),
    "mutator": ("repro.core.platform::HybridMemoryPlatform.run",
                "span: the scheduler driving the measured iteration"),
    "platform.barrier": ("repro.core.platform::HybridMemoryPlatform.run",
                         "counters reset: profile baseline (ctx: "
                         "snapshot), wear-tracker anchor"),
    "platform.profile": ("repro.core.platform::HybridMemoryPlatform.run",
                         "the profiler answers its repro.profile/v1 "
                         "artifact"),
    "platform.abort": ("repro.core.platform::HybridMemoryPlatform.run",
                       "the run body raised; drop the partial profile"),
    "platform.run.done": ("repro.core.platform::HybridMemoryPlatform.run",
                          "check: attribution conservation, full sweep"),
    "platform.run": ("repro.core.platform::HybridMemoryPlatform.run",
                     "complete: host time of the whole call"),
    "platform.teardown_error": (
        "repro.core.platform::HybridMemoryPlatform._teardown",
        "event: teardown steps failed"),
    # -- serve: where a fault can lose or corrupt an accepted job ------
    "serve.admit": ("repro.serve.app::ServeApp.admit",
                    "fault: admission, before the job is journalled"),
    "serve.dispatch": ("repro.serve.app::ServeApp.dispatch",
                       "fault: a journalled job goes to the pool"),
    "serve.result_write": ("repro.serve.jobstore::JobStore.store_result",
                           "fault: persisting a finished job's result"),
}


class ProbeBus:
    """Dispatches probe sites to whichever subsystems are switched on.

    ``on`` is false while nothing is subscribed and nothing records
    events; sites guard ``fire``/``event`` with it.  ``push`` returns
    ``None`` (and ``pop`` ignores it) while nothing wants spans.
    """

    def __init__(self) -> None:
        self.on = False
        self._handlers: List[Handler] = []
        #: The span/event recorder; kept after it stops recording so
        #: frames it handed out can still be popped.
        self._recorder: Any = None
        self._events = False
        self._spans = False

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(self, handler: Handler) -> None:
        """Add ``handler`` to every ``fire`` (idempotent)."""
        if handler not in self._handlers:
            self._handlers.append(handler)
        self._refresh()

    def unsubscribe(self, handler: Handler) -> None:
        """Remove ``handler``; a no-op if it was not subscribed."""
        if handler in self._handlers:
            self._handlers.remove(handler)
        self._refresh()

    def record(self, recorder: Any, events: bool, spans: bool) -> None:
        """Route events and/or spans to ``recorder`` (the tracer)."""
        self._recorder = recorder
        self._events = events
        self._spans = spans
        self._refresh()

    def _refresh(self) -> None:
        self.on = bool(self._handlers) or self._events

    # ------------------------------------------------------------------
    # Sites
    # ------------------------------------------------------------------
    def fire(self, site: str, **ctx: Any) -> Any:
        """Call every subscriber; return the first non-``None`` answer."""
        answer = None
        for handler in list(self._handlers):
            result = handler(site, ctx)
            if answer is None:
                answer = result
        return answer

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous trace event."""
        if self._events:
            self._recorder.event(name, **attrs)

    def complete(self, name: str, start: float, **attrs: Any) -> None:
        """Record a flat span that started at host time ``start``."""
        if self._events:
            self._recorder.complete(name, start, **attrs)

    def push(self, name: str, **attrs: Any) -> Any:
        """Open a nested span; the frame goes back to :meth:`pop`."""
        if not self._spans:
            return None
        return self._recorder.push(name, **attrs)

    def pop(self, frame: Any, **attrs: Any) -> None:
        """Close a span from :meth:`push` (``None`` is a no-op)."""
        if frame is not None:
            self._recorder.pop(frame, **attrs)


#: The process-wide bus every site fires into.
PROBES = ProbeBus()
