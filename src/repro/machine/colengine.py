"""Columnar core path: deferred access runs flushed through batch kernels.

:class:`ColumnarCorePath` replaces :class:`CorePath`'s per-line Python
work with a per-run *enqueue*: each run appends ``(first_line, count,
is_write)`` to three typed queues and returns immediately (the hot
enqueue is inlined in ``ColumnarSimThread.access``).  When the queue
fills — or any observer needs consistent counters — the whole queue is
executed by one batch-kernel call (interpreted or C; see
:mod:`repro.machine.pykernel` for the contract), and the resulting
counter deltas are applied to the same ``CacheStats`` / ``MemoryNode``
/ machine counters the per-line engine mutates.  The kernel reads the
queues in place: the C kernel gets their addresses, the interpreted
one the ``array('q')`` objects, so a flush builds no arrays.  Because
the kernel runs the per-line algorithm verbatim over the columnar
state, every counter is bit-identical at every sync point.

Two orderings make deferral safe:

* **Shared-LLC serialisation.**  Core paths on one socket share an LLC,
  so their runs must execute in program order across paths.  The LLC
  carries a ``pending_path`` owner token: only the owner may hold a
  non-empty queue, and a path enqueueing onto an LLC owned by another
  path flushes that owner first.  Within a path, queue order is program
  order by construction.
* **Sync points.**  Everything that observes machine state — counter
  reads, profiler snapshots, invariant checks, frame remapping,
  flushes — calls
  :meth:`NumaMachine.sync_engines` first, which flushes every socket's
  owner.  Page-table changes must sync too: queued runs hold physical
  line addresses, so remapping a frame before the queue drains would
  retroactively re-home old accesses.

Cycles are credited to ``cycle_sink`` (the owning sim-thread) at flush
time; the thread's ``cycles`` property syncs before reading.
"""

from __future__ import annotations

from array import array
from typing import Optional, Tuple

import numpy as np

from repro.machine import pykernel
from repro.machine.colcache import ColumnarCacheLevel
from repro.machine.memory import NODE_LINE_SHIFT
from repro.machine.nativekernel import KernelFn
from repro.machine.numa import CorePath, NumaMachine, Socket
from repro.machine.pykernel import (
    OUT_CYCLES,
    OUT_L_CLOCK,
    OUT_L_DIRTY,
    OUT_L_EVICTIONS,
    OUT_L_HITS,
    OUT_L_MISSES,
    OUT_N_VICTIMS,
    OUT_P_CLOCK,
    OUT_P_DIRTY,
    OUT_P_EVICTIONS,
    OUT_P_HITS,
    OUT_P_MISSES,
    OUT_QPI,
    OUT_READS_BASE,
    OUT_SIZE,
    SCAL_SIZE,
)
from repro.probe import PROBES

#: Flush the queue once it holds this many runs ...
MAX_PENDING_RUNS = 16384
#: ... or this many total lines, whichever comes first.
MAX_PENDING_LINES = 262144

_NO_PRIVATE = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8),
               np.empty(0, dtype=np.int64))


class _Victims:
    """The kernels' victims buffer, shared by every path in the process.

    Grown lazily to the largest flush seen (two entries per queued
    line), so memory tracks the workload rather than the queue maxima.
    Sharing is safe because the simulator is single-threaded and
    ``memory_write_bulk`` consumes the victims before any write
    listener can start a nested flush.
    """

    buffer = np.empty(0, dtype=np.int64)
    address = 0

    @classmethod
    def reserve(cls, lines: int) -> np.ndarray:
        """The buffer, grown to hold the victims of ``lines`` lines."""
        needed = 2 * lines + 8
        if cls.buffer.size < needed:
            cls.buffer = np.empty(max(needed, 2 * cls.buffer.size),
                                  dtype=np.int64)
            cls.address = cls.buffer.ctypes.data
        return cls.buffer


class ColumnarCorePath(CorePath):
    """A :class:`CorePath` that defers accesses into batch-kernel runs."""

    def __init__(self, machine: NumaMachine, socket: Socket,
                 private: Optional[ColumnarCacheLevel],
                 kernel: KernelFn) -> None:
        llc = socket.llc
        if not isinstance(llc, ColumnarCacheLevel):
            raise TypeError(
                "ColumnarCorePath requires a columnar LLC; build the "
                "machine with the columnar engine")
        super().__init__(machine, socket, private)
        self._llc = llc
        self._private = private
        self.kernel = kernel
        #: The C kernel takes buffer addresses; the interpreted
        #: reference takes the buffers themselves.
        self._by_address = kernel is not pykernel.run_batch
        #: Sim-thread credited with flushed cycles (set by spawn_thread).
        self.cycle_sink: Optional[object] = None
        # Typed queues: appends are as cheap as list appends, and the
        # kernel reads them in place.  Cleared in place so references
        # held by ColumnarSimThread stay valid.
        self._q_base = array("q")
        self._q_count = array("q")
        self._q_write = array("q")
        self._pending_lines = 0
        latency = machine.latency
        scal = array("q", [0] * SCAL_SIZE)
        scal[3] = llc.num_sets
        scal[4] = llc.assoc
        scal[5] = latency.l2_hit
        scal[6] = latency.llc_hit
        scal[10] = socket.memory.node_id
        scal[11] = latency.memory_latency(remote=False)
        scal[12] = latency.memory_latency(remote=True)
        scal[13] = NODE_LINE_SHIFT
        if private is not None:
            scal[1] = private.num_sets
            scal[2] = private.assoc
            scal[9] = 1
        else:
            scal[1] = scal[2] = 1
        self._scal = scal
        self._out = array("q", [0] * OUT_SIZE)
        #: Private + LLC tag/dirty/age arguments, bound once per cache.
        self._state: Tuple[object, ...]
        if self._by_address:
            # Null private pointers are never read (scal[9] == 0).
            self._state = ((private.addresses if private is not None
                            else (0, 0, 0)) + llc.addresses)
        else:
            self._state = ((private.flat if private is not None
                            else _NO_PRIVATE) + llc.flat)

    # ------------------------------------------------------------------
    # Enqueue (the hot path: three appends and a counter bump)
    # ------------------------------------------------------------------
    def access_line(self, line: int, is_write: bool) -> int:
        """Queue one line; cycles are credited to ``cycle_sink`` later."""
        llc = self._llc
        if llc.pending_path is not self:
            # Another path on this socket holds queued runs that must
            # execute before ours (shared-LLC program order).
            if llc.pending_path is not None:
                llc.pending_path.flush_pending()
            llc.pending_path = self
        self._q_base.append(line)
        self._q_count.append(1)
        self._q_write.append(1 if is_write else 0)
        self._pending_lines += 1
        if (len(self._q_base) >= MAX_PENDING_RUNS
                or self._pending_lines >= MAX_PENDING_LINES):
            self.flush_pending()
        return 0

    # ------------------------------------------------------------------
    # Flush: one kernel call for the whole queue
    # ------------------------------------------------------------------
    def flush_pending(self) -> None:
        """Execute every queued run and apply the counter deltas."""
        llc = self._llc
        if llc.pending_path is self:
            llc.pending_path = None
        sink = self.cycle_sink
        if sink is not None:
            # Invalidate the thread's ownership fast path; it will
            # re-register with the LLC on its next access.
            sink._owner_hint = False  # type: ignore[attr-defined]
        q_base = self._q_base
        n_runs = len(q_base)
        if not n_runs:
            return
        if PROBES.on:  # a fault here dies mid-batch
            PROBES.fire("machine.engine_flush", runs=n_runs)
        machine = self.machine
        private = self._private
        q_count, q_write = self._q_count, self._q_write
        scal = self._scal
        scal[0] = n_runs
        if private is not None:
            scal[7] = private.clock
        scal[8] = llc.clock
        victims = _Victims.reserve(self._pending_lines)
        out = self._out
        if self._by_address:
            # The queues may have moved since the last flush (appends
            # reallocate), so their addresses are taken afresh.
            self.kernel(scal.buffer_info()[0], q_base.buffer_info()[0],
                        q_count.buffer_info()[0], q_write.buffer_info()[0],
                        *self._state, _Victims.address,
                        out.buffer_info()[0])
        else:
            self.kernel(scal, q_base, q_count, q_write, *self._state,
                        victims, out)
        del q_base[:]
        del q_count[:]
        del q_write[:]
        self._pending_lines = 0

        # Every out slot is read before memory_write_bulk: write
        # listeners run inside it and may start a nested flush.
        if private is not None:
            p_stats = private.stats
            p_stats.hits += out[OUT_P_HITS]
            p_stats.misses += out[OUT_P_MISSES]
            p_stats.evictions += out[OUT_P_EVICTIONS]
            p_stats.dirty_evictions += out[OUT_P_DIRTY]
            private.clock = out[OUT_P_CLOCK]
        l_stats = llc.stats
        l_stats.hits += out[OUT_L_HITS]
        l_stats.misses += out[OUT_L_MISSES]
        l_stats.evictions += out[OUT_L_EVICTIONS]
        l_stats.dirty_evictions += out[OUT_L_DIRTY]
        llc.clock = out[OUT_L_CLOCK]
        machine.qpi_crossings += out[OUT_QPI]
        nodes = machine.nodes
        for node_id in range(len(nodes)):
            reads = out[OUT_READS_BASE + node_id]
            if reads:
                nodes[node_id].read_lines += reads
        n_victims = out[OUT_N_VICTIMS]
        if sink is not None:
            # Direct credit to the thread's cycle store; going through
            # the ``cycles`` property would recurse into this flush.
            sink._cycles_v += out[OUT_CYCLES]  # type: ignore[attr-defined]
        if n_victims:
            machine.memory_write_bulk(victims[:n_victims])

    def drain(self) -> None:
        """Flush the private cache into the LLC (end-of-run hygiene)."""
        # The LLC's queued runs (any path's) precede the drain in
        # program order and must land first.
        owner = self.socket.llc.pending_path
        if owner is not None:
            owner.flush_pending()
        super().drain()
