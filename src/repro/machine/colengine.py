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
  so their runs must execute in program order across paths.  Each LLC
  therefore has exactly one :class:`RunQueue`, and every path on the
  socket appends to it.  A path registers once and gets a *slot*; a
  fourth column records segment starts as ``(first_run, slot)`` pairs,
  and a path opens a new segment whenever it is not the path at the
  queue's tail.  The kernel walks the segments, switching to each
  slot's private cache and counters, so a thread switch costs two
  appends rather than a flush, and queue order is program order by
  construction.
* **Sync points.**  Everything that observes machine state — counter
  reads, profiler snapshots, invariant checks, frame remapping,
  flushes — calls
  :meth:`NumaMachine.sync_engines` first, which flushes every socket's
  queue.  Page-table changes must sync too: queued runs hold physical
  line addresses, so remapping a frame before the queue drains would
  retroactively re-home old accesses.

Cycles are credited per slot to each path's ``cycle_sink`` (the owning
sim-thread) at flush time; the thread's ``cycles`` property syncs
before reading.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

import numpy as np

from repro.machine import pykernel
from repro.machine.colcache import ColumnarCacheLevel
from repro.machine.memory import NODE_LINE_SHIFT
from repro.machine.nativekernel import KernelFn
from repro.machine.numa import CorePath, NumaMachine, Socket
from repro.machine.pykernel import (
    OUT_L_CLOCK,
    OUT_L_DIRTY,
    OUT_L_EVICTIONS,
    OUT_L_HITS,
    OUT_L_MISSES,
    OUT_N_VICTIMS,
    OUT_QPI,
    OUT_READS_BASE,
    OUT_SIZE,
    SCAL_SIZE,
    SLOT_CYCLES,
    SLOT_P_CLOCK,
    SLOT_P_DIRTY,
    SLOT_P_EVICTIONS,
    SLOT_P_HITS,
    SLOT_P_MISSES,
    SLOT_SIZE,
)
from repro.probe import PROBES

#: Flush a socket's queue once it holds this many runs ...
MAX_PENDING_RUNS = 16384
#: ... or this many total lines, whichever comes first.
MAX_PENDING_LINES = 262144


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


class RunQueue:
    """One LLC's deferred run queue, shared by every core path on it.

    Built by the first :class:`ColumnarCorePath` on the socket and kept
    on the LLC (``CacheLevel.run_queue``).  The columns are cleared in
    place, so references bound by ``ColumnarSimThread`` stay valid.
    """

    __slots__ = ("q_base", "q_count", "q_write", "q_seg", "pending_lines",
                 "tail", "paths", "kernel", "by_address", "geometry",
                 "scal", "out", "slots", "slot_out", "llc_state")

    def __init__(self, machine: NumaMachine, socket: Socket,
                 llc: ColumnarCacheLevel,
                 private: Optional[ColumnarCacheLevel],
                 kernel: KernelFn) -> None:
        self.q_base = array("q")
        self.q_count = array("q")
        self.q_write = array("q")
        #: Segment starts: (first_run, slot) pairs, flat.
        self.q_seg = array("q")
        self.pending_lines = 0
        #: The path whose segment ends the queue; ``None`` while empty.
        self.tail: Optional["ColumnarCorePath"] = None
        #: Registered paths, indexed by slot.
        self.paths: List["ColumnarCorePath"] = []
        self.kernel = kernel
        #: The C kernel takes buffer addresses; the interpreted
        #: reference takes the buffers themselves.
        self.by_address = kernel is not pykernel.run_batch
        #: Private-cache (sets, ways) every registered path must share.
        self.geometry = _geometry(private)
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
        self.scal = scal
        self.out = array("q", [0] * OUT_SIZE)
        #: Slot table: each slot's private tag/dirty/age matrices, as
        #: addresses for the C kernel or flat views for the reference.
        self.slots = array("q") if self.by_address else []
        self.slot_out = array("q")
        #: LLC tag/dirty/age arguments, bound once for the cache's life.
        self.llc_state = llc.addresses if self.by_address else llc.flat

    def register(self, path: "ColumnarCorePath",
                 private: Optional[ColumnarCacheLevel],
                 kernel: KernelFn) -> int:
        """Add ``path`` to the queue; returns its slot number."""
        if _geometry(private) != self.geometry:
            raise ValueError(
                f"every core path on an LLC needs the same private cache "
                f"geometry: {_geometry(private)} != {self.geometry}")
        if kernel is not self.kernel:
            raise ValueError("every core path on an LLC needs the same "
                             "batch kernel")
        slot = len(self.paths)
        self.paths.append(path)
        if private is None:
            self.slots.extend((0, 0, 0))  # never read: scal[9] == 0
        else:
            self.slots.extend(private.addresses if self.by_address
                              else private.flat)
        self.slot_out.extend([0] * SLOT_SIZE)
        return slot


def _geometry(private: Optional[ColumnarCacheLevel]) -> Optional[tuple]:
    return None if private is None else (private.num_sets, private.assoc)


class ColumnarCorePath(CorePath):
    """A :class:`CorePath` that defers accesses into its LLC's run queue."""

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
        #: Sim-thread credited with flushed cycles (set by spawn_thread).
        self.cycle_sink: Optional[object] = None
        queue = llc.run_queue
        if queue is None:
            queue = llc.run_queue = RunQueue(machine, socket, llc, private,
                                             kernel)
        self._queue: RunQueue = queue
        #: This path's slot in the queue's slot table and segments.
        self._slot = queue.register(self, private, kernel)

    @property
    def _pending_lines(self) -> int:
        """Lines queued on this path's LLC, from every path on it."""
        return self._queue.pending_lines

    # ------------------------------------------------------------------
    # Enqueue (the hot path: three appends and a counter bump)
    # ------------------------------------------------------------------
    def access_line(self, line: int, is_write: bool) -> int:
        """Queue one line; cycles are credited to ``cycle_sink`` later."""
        queue = self._queue
        if queue.tail is not self:
            # Another path's runs end the queue: open our own segment.
            queue.q_seg.append(len(queue.q_base))
            queue.q_seg.append(self._slot)
            queue.tail = self
        queue.q_base.append(line)
        queue.q_count.append(1)
        queue.q_write.append(1 if is_write else 0)
        queue.pending_lines += 1
        if (len(queue.q_base) >= MAX_PENDING_RUNS
                or queue.pending_lines >= MAX_PENDING_LINES):
            self.flush_pending()
        return 0

    # ------------------------------------------------------------------
    # Flush: one kernel call for the whole socket's queue
    # ------------------------------------------------------------------
    def flush_pending(self) -> None:
        """Execute every run queued on this path's LLC, from any path,
        and apply the counter deltas."""
        queue = self._queue
        queue.tail = None
        q_base, q_seg = queue.q_base, queue.q_seg
        n_runs = len(q_base)
        if not n_runs:
            # A fault on a block's first page can leave an empty segment.
            del q_seg[:]
            return
        if PROBES.on:  # a fault here dies mid-batch
            PROBES.fire("machine.engine_flush", runs=n_runs)
        machine = self.machine
        llc = self._llc
        paths = queue.paths
        q_count, q_write = queue.q_count, queue.q_write
        slot_out = queue.slot_out
        scal = queue.scal
        scal[0] = n_runs
        scal[7] = len(q_seg) >> 1
        scal[8] = llc.clock
        scal[14] = len(paths)
        if queue.geometry is not None:
            for slot, path in enumerate(paths):
                slot_out[slot * SLOT_SIZE + SLOT_P_CLOCK] = \
                    path._private.clock  # type: ignore[union-attr]
        victims = _Victims.reserve(queue.pending_lines)
        out = queue.out
        if queue.by_address:
            # The columns may have moved since the last flush (appends
            # reallocate), so their addresses are taken afresh.
            queue.kernel(
                scal.buffer_info()[0], q_base.buffer_info()[0],
                q_count.buffer_info()[0], q_write.buffer_info()[0],
                q_seg.buffer_info()[0], queue.slots.buffer_info()[0],
                *queue.llc_state, _Victims.address, out.buffer_info()[0],
                slot_out.buffer_info()[0])
        else:
            queue.kernel(scal, q_base, q_count, q_write, q_seg, queue.slots,
                         *queue.llc_state, victims, out, slot_out)
        del q_base[:]
        del q_count[:]
        del q_write[:]
        del q_seg[:]
        queue.pending_lines = 0

        # Every out and slot_out entry is read before memory_write_bulk:
        # write listeners run inside it and may start a nested flush.
        for slot, path in enumerate(paths):
            base = slot * SLOT_SIZE
            private = path._private
            if private is not None:
                p_stats = private.stats
                p_stats.hits += slot_out[base + SLOT_P_HITS]
                p_stats.misses += slot_out[base + SLOT_P_MISSES]
                p_stats.evictions += slot_out[base + SLOT_P_EVICTIONS]
                p_stats.dirty_evictions += slot_out[base + SLOT_P_DIRTY]
                private.clock = slot_out[base + SLOT_P_CLOCK]
            cycles = slot_out[base + SLOT_CYCLES]
            sink = path.cycle_sink
            if cycles and sink is not None:
                sink._credit_cycles(cycles)  # type: ignore[attr-defined]
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
        if n_victims:
            machine.memory_write_bulk(victims[:n_victims])

    def drain(self) -> None:
        """Flush the private cache into the LLC (end-of-run hygiene)."""
        # The LLC's queued runs (any path's) precede the drain in
        # program order and must land first.
        if self._queue.tail is not None:
            self.flush_pending()
        super().drain()
