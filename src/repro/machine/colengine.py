"""Columnar core path: deferred access runs flushed through batch kernels.

:class:`ColumnarCorePath` replaces :class:`CorePath`'s per-line Python
work with a per-run *enqueue*: each ``access_line``/``access_run`` call
appends ``(first_line, count, is_write)`` to a queue and returns
immediately.  When the queue fills — or any observer needs consistent
counters — the whole queue is executed by one batch-kernel call
(interpreted or C; see :mod:`repro.machine.pykernel` for the
contract), and the resulting counter deltas are applied to the same
``CacheStats`` / ``MemoryNode`` / machine counters the per-line engine
mutates.  Because the kernel runs the per-line algorithm verbatim over
the columnar state, every counter is bit-identical at every sync point.

Two orderings make deferral safe:

* **Shared-LLC serialisation.**  Core paths on one socket share an LLC,
  so their runs must execute in program order across paths.  The LLC
  carries a ``pending_path`` owner token: only the owner may hold a
  non-empty queue, and a path enqueueing onto an LLC owned by another
  path flushes that owner first.  Within a path, queue order is program
  order by construction.
* **Sync points.**  Everything that observes machine state — counter
  reads, invariant checks, frame remapping, flushes — calls
  :meth:`NumaMachine.sync_engines` first, which flushes every socket's
  owner.  Page-table changes must sync too: queued runs hold physical
  line addresses, so remapping a frame before the queue drains would
  retroactively re-home old accesses.

Cycles are credited to ``cycle_sink`` (the owning sim-thread) at flush
time; the thread's ``cycles`` property syncs before reading.
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

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
)
from repro.probe import PROBES

#: Flush the queue once it holds this many runs ...
MAX_PENDING_RUNS = 16384
#: ... or this many total lines, whichever comes first.
MAX_PENDING_LINES = 262144

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_U8 = np.empty(0, dtype=np.uint8)


class ColumnarCorePath(CorePath):
    """A :class:`CorePath` that defers accesses into batch-kernel runs."""

    def __init__(self, machine: NumaMachine, socket: Socket,
                 private: Optional[ColumnarCacheLevel],
                 kernel: KernelFn) -> None:
        if not isinstance(socket.llc, ColumnarCacheLevel):
            raise TypeError(
                "ColumnarCorePath requires a columnar LLC; build the "
                "machine with the columnar engine")
        super().__init__(machine, socket, private)
        self._llc = socket.llc
        self._private = private
        self.kernel = kernel
        #: Sim-thread credited with flushed cycles (set by spawn_thread).
        self.cycle_sink: Optional[object] = None
        # Typed queues: appends are as cheap as list appends, and the
        # flush converts them to int64 numpy views zero-copy via the
        # buffer protocol.  Cleared in place so references stay valid.
        self._q_base = array("q")
        self._q_count = array("q")
        self._q_write = array("q")
        self._pending_lines = 0
        latency = machine.latency
        self._l2_hit = latency.l2_hit
        self._llc_hit = latency.llc_hit
        self._lat_local = latency.memory_latency(remote=False)
        self._lat_remote = latency.memory_latency(remote=True)
        self._home_node = socket.memory.node_id

    # ------------------------------------------------------------------
    # Enqueue (the hot path: two list appends and a counter bump)
    # ------------------------------------------------------------------
    def _enqueue(self, first_line: int, count: int, is_write: bool) -> None:
        llc = self._llc
        if llc.pending_path is not self:
            # Another path on this socket holds queued runs that must
            # execute before ours (shared-LLC program order).
            if llc.pending_path is not None:
                llc.pending_path.flush_pending()
            llc.pending_path = self
        self._q_base.append(first_line)
        self._q_count.append(count)
        self._q_write.append(1 if is_write else 0)
        self._pending_lines += count
        if (len(self._q_base) >= MAX_PENDING_RUNS
                or self._pending_lines >= MAX_PENDING_LINES):
            self.flush_pending()

    def access_line(self, line: int, is_write: bool) -> int:
        """Queue one line; cycles are credited to ``cycle_sink`` later."""
        self._enqueue(line, 1, is_write)
        return 0

    def access_run(self, first_line: int, count: int, is_write: bool) -> int:
        """Queue one run; cycles are credited to ``cycle_sink`` later."""
        if count <= 0:
            return 0
        self._enqueue(first_line, count, is_write)
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
        n_runs = len(self._q_base)
        if not n_runs:
            return
        if PROBES.on:  # a fault here dies mid-batch
            PROBES.fire("machine.engine_flush", runs=n_runs)
        machine = self.machine
        # Zero-copy views over the typed queues; consumed fully by the
        # runs-buffer assembly below, after which the queues are reset.
        base = np.frombuffer(self._q_base, dtype=np.int64)
        count = np.frombuffer(self._q_count, dtype=np.int64)
        write = np.frombuffer(self._q_write, dtype=np.int64)
        total_lines = self._pending_lines

        node = base >> NODE_LINE_SHIFT
        remote = (node != self._home_node).astype(np.int64)
        runs = np.empty(n_runs * 6, dtype=np.int64)
        runs[0::6] = base
        runs[1::6] = count
        runs[2::6] = write
        runs[3::6] = np.where(remote != 0, self._lat_remote, self._lat_local)
        runs[4::6] = node
        runs[5::6] = remote
        del base, count, write
        del self._q_base[:]
        del self._q_count[:]
        del self._q_write[:]
        self._pending_lines = 0

        private = self._private
        if private is not None:
            scal = np.array(
                [n_runs, private.num_sets, private.assoc,
                 llc.num_sets, llc.assoc, self._l2_hit, self._llc_hit,
                 private.clock, llc.clock, 1], dtype=np.int64)
            pt = private.tags.reshape(-1)
            pd = private.dirty.reshape(-1)
            pa = private.age.reshape(-1)
        else:
            scal = np.array(
                [n_runs, 1, 1, llc.num_sets, llc.assoc,
                 self._l2_hit, self._llc_hit, 0, llc.clock, 0],
                dtype=np.int64)
            pt, pd, pa = _EMPTY_I64, _EMPTY_U8, _EMPTY_I64
        victims = np.empty(2 * total_lines + 8, dtype=np.int64)
        out = np.zeros(OUT_SIZE, dtype=np.int64)
        self.kernel(scal, runs, pt, pd, pa,
                    llc.tags.reshape(-1), llc.dirty.reshape(-1),
                    llc.age.reshape(-1), victims, out)

        if private is not None:
            p_stats = private.stats
            p_stats.hits += int(out[OUT_P_HITS])
            p_stats.misses += int(out[OUT_P_MISSES])
            p_stats.evictions += int(out[OUT_P_EVICTIONS])
            p_stats.dirty_evictions += int(out[OUT_P_DIRTY])
            private.clock = int(out[OUT_P_CLOCK])
        l_stats = llc.stats
        l_stats.hits += int(out[OUT_L_HITS])
        l_stats.misses += int(out[OUT_L_MISSES])
        l_stats.evictions += int(out[OUT_L_EVICTIONS])
        l_stats.dirty_evictions += int(out[OUT_L_DIRTY])
        llc.clock = int(out[OUT_L_CLOCK])
        machine.qpi_crossings += int(out[OUT_QPI])
        for node_id in range(len(machine.nodes)):
            reads = int(out[OUT_READS_BASE + node_id])
            if reads:
                machine.nodes[node_id].read_lines += reads
        n_victims = int(out[OUT_N_VICTIMS])
        if n_victims:
            machine.memory_write_bulk(victims[:n_victims])
        sink = self.cycle_sink
        if sink is not None:
            # Direct credit to the thread's cycle store; going through
            # the ``cycles`` property would recurse into this flush.
            sink._cycles_v += int(out[OUT_CYCLES])  # type: ignore[attr-defined]

    def drain(self) -> None:
        """Flush the private cache into the LLC (end-of-run hygiene)."""
        # The LLC's queued runs (any path's) precede the drain in
        # program order and must land first.
        owner = self.socket.llc.pending_path
        if owner is not None:
            owner.flush_pending()
        super().drain()
