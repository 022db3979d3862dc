"""Processes and simulated threads.

A :class:`Process` owns a page table and a set of :class:`SimThread`
contexts.  ``SimThread.access`` is the single hottest function in the
whole simulator: every mutator and collector byte-touch funnels through
it, so the default engine's override (:class:`ColumnarSimThread`)
inlines both the page-table walk and the run enqueue.  A touch that
fits in one cache line (about three in four of a DaCapo mutator's)
takes a single-line path there: one software-TLB check and one queued
run, without the page-run loop.  Multi-line blocks and touches of an
unmapped page take the run loop, which services page faults.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Type

from repro.config import PAGE_SHIFT
from repro.kernel.pagetable import (
    LINE_OFFSET_MASK,
    LINES_PER_PAGE_SHIFT,
    PageTable,
)
from repro.kernel.placement import PlacementPolicy, StaticPlacement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.vm import Kernel
    from repro.machine.numa import CorePath


class SimThread:
    """One executing context: a core access path plus a cycle counter.

    The base class holds what every engine shares; the access entry
    points live in the engine's thread class (see
    :meth:`Process.spawn_thread`): :class:`PerLineSimThread` for the
    oracle, :class:`ColumnarSimThread` for the default engine.
    """

    def __init__(self, thread_id: int, process: "Process",
                 core_path: "CorePath") -> None:
        self.thread_id = thread_id
        self.process = process
        self.core_path = core_path
        self.cycles = 0
        # Software TLB: the last vpage -> line-base translation, valid
        # while the page table's epoch is unchanged.  Sequential touches
        # to the same page skip the line_map dict lookup entirely.
        self._tlb_vpage = -1
        self._tlb_base = 0
        self._tlb_epoch = -1

    @property
    def socket_id(self) -> int:
        return self.core_path.socket.socket_id

    def access(self, vaddr: int, size: int, is_write: bool) -> int:
        """Touch ``size`` bytes at ``vaddr``; returns cycles spent."""
        raise NotImplementedError

    def access_block(self, vaddr: int, size: int, is_write: bool) -> int:
        """Touch a multi-line block (same contract as :meth:`access`)."""
        return self.access(vaddr, size, is_write)

    def compute(self, cycles: int) -> None:
        """Account non-memory work (the latency model's op cost)."""
        self.cycles += cycles


class PerLineSimThread(SimThread):
    """Oracle thread: every line goes through ``CorePath.access_line``.

    Registered for the ``perline`` engine (and used by machines built
    without an engine), so the differential fuzzer's reference side is
    an engine selection rather than a special-cased dispatch in the
    replayer.
    """

    def access(self, vaddr: int, size: int, is_write: bool) -> int:
        """Touch ``size`` bytes at ``vaddr``, one line at a time."""
        line_map = self.process.page_table.line_base_map
        access_line = self.core_path.access_line
        first = vaddr >> 6
        last = (vaddr + size - 1) >> 6
        cycles = 0
        for vline in range(first, last + 1):
            base = line_map.get(vline >> LINES_PER_PAGE_SHIFT)
            if base is None:
                # fault_in counts the fault, then backs a reserved page
                # (lazy policies) or raises PageFault with this vaddr;
                # a raise discards the block's cycles so far.
                base = self.process.kernel.fault_in(
                    self.process, vline >> LINES_PER_PAGE_SHIFT,
                    self.socket_id, vline << 6)
            cycles += access_line(base + (vline & LINE_OFFSET_MASK), is_write)
        self.cycles += cycles
        return cycles

    access_block = access


class ColumnarSimThread(SimThread):
    """Thread for the columnar engine: accesses enqueue, cycles defer.

    ``ColumnarCorePath`` queues runs on its LLC's shared run queue
    instead of executing them, so the per-access returns are zero and
    real cycle counts only exist after a queue flush (the path credits
    them through ``_credit_cycles``).  Reading ``cycles`` therefore
    syncs the socket's queue first; the hot path below never touches
    ``self.cycles``, which would otherwise trigger that sync on every
    access.
    """

    def __init__(self, thread_id: int, process: "Process",
                 core_path: "CorePath") -> None:
        from repro.machine.colengine import (
            MAX_PENDING_LINES,
            MAX_PENDING_RUNS,
            ColumnarCorePath,
        )
        if not isinstance(core_path, ColumnarCorePath):
            raise TypeError("ColumnarSimThread needs a ColumnarCorePath")
        self._col_path = core_path
        self._max_runs = MAX_PENDING_RUNS
        self._max_lines = MAX_PENDING_LINES
        super().__init__(thread_id, process, core_path)
        core_path.cycle_sink = self
        # All of these live as long as the process, and the queue's
        # columns are cleared in place; binding them here saves the
        # attribute loads per access.
        self._table = process.page_table
        self._line_map = process.page_table.line_base_map
        self._queue = queue = core_path._queue
        self._slot = core_path._slot
        self._q_base = queue.q_base
        self._q_count = queue.q_count
        self._q_write = queue.q_write
        self._q_seg = queue.q_seg

    @property  # type: ignore[override]
    def cycles(self) -> int:
        """Cycles spent so far (syncs this socket's deferred queue)."""
        if self._queue.tail is not None:
            self._col_path.flush_pending()
        return self._cycles_v

    @cycles.setter
    def cycles(self, value: int) -> None:
        self._cycles_v = value

    def compute(self, cycles: int) -> None:
        """Account non-memory work (the latency model's op cost)."""
        self._cycles_v += cycles

    def _credit_cycles(self, cycles: int) -> None:
        """Take this thread's share of a queue flush (called by the
        path's ``flush_pending``; the ``cycles`` property would recurse
        into the flush)."""
        self._cycles_v += cycles

    def access(self, vaddr: int, size: int, is_write: bool) -> int:
        """Touch ``size`` bytes at ``vaddr``; cycles land at queue flush.

        One body serves both entry points (``access_block`` is an
        alias), saving the delegation call the base class makes for
        multi-line accesses.  A touch inside one cache line (most
        field reads and writes) takes the single-line path: one TLB
        check, the segment check and the three queue appends, with no
        run loop and no TLB write-back on a hit.  A touch that
        straddles a line boundary, and any touch whose page is not
        mapped yet, runs the general run loop below, which services
        the fault or rolls the block back.
        """
        table = self._table
        # Inline of ColumnarCorePath.access_line: a thread switch opens
        # a segment once up front, every page run is three plain
        # appends, and the flush threshold is checked once per block
        # (the queue may overshoot by one block's runs, which only
        # moves the flush boundary, never a counter).
        queue = self._queue
        q_base = self._q_base
        cp = self._col_path
        if queue.tail is not cp:
            q_seg = self._q_seg
            q_seg.append(len(q_base))
            q_seg.append(self._slot)
            queue.tail = cp
        if 0 < (vaddr & 63) + size <= 64:
            vpage = vaddr >> PAGE_SHIFT
            base: Optional[int]
            if vpage == self._tlb_vpage and table.epoch == self._tlb_epoch:
                base = self._tlb_base
            else:
                base = self._line_map.get(vpage)
                if base is not None:
                    self._tlb_vpage = vpage
                    self._tlb_base = base
                    self._tlb_epoch = table.epoch
            if base is not None:
                q_base.append(base + ((vaddr >> 6) & LINE_OFFSET_MASK))
                self._q_count.append(1)
                self._q_write.append(1 if is_write else 0)
                pending = queue.pending_lines + 1
                queue.pending_lines = pending
                if (len(q_base) >= self._max_runs
                        or pending >= self._max_lines):
                    cp.flush_pending()
                return 0
        line_map = self._line_map
        q_count = self._q_count
        q_write = self._q_write
        write_flag = 1 if is_write else 0
        first = vaddr >> 6
        last = (vaddr + size - 1) >> 6
        epoch = table.epoch
        tlb_vpage = self._tlb_vpage if epoch == self._tlb_epoch else -1
        tlb_base = self._tlb_base
        pending = queue.pending_lines
        while first <= last:
            vpage = first >> LINES_PER_PAGE_SHIFT
            if vpage == tlb_vpage:
                base = tlb_base
            else:
                base = line_map.get(vpage)
                if base is None:
                    # A serviced fault (lazy policies) continues the
                    # block with the fresh frame's base; any raise —
                    # PageFault or frame exhaustion — restores the
                    # queue and discards the block's cycles, matching
                    # the oracle's partial-block fault semantics.
                    try:
                        base = self.process.kernel.fault_in(
                            self.process, vpage, self.socket_id,
                            first << 6)
                    except Exception:
                        queue.pending_lines = pending
                        self._discard_block_cycles(first - (vaddr >> 6))
                        raise
                tlb_vpage = vpage
                tlb_base = base
            offset = first & LINE_OFFSET_MASK
            rem = last - first
            cap = LINE_OFFSET_MASK - offset
            count = (rem if rem < cap else cap) + 1
            q_base.append(base + offset)
            q_count.append(count)
            q_write.append(write_flag)
            pending += count
            first += count
        queue.pending_lines = pending
        self._tlb_vpage = tlb_vpage
        self._tlb_base = tlb_base
        self._tlb_epoch = epoch
        if len(q_base) >= self._max_runs or pending >= self._max_lines:
            cp.flush_pending()
        return 0

    access_block = access

    def _discard_block_cycles(self, block_lines: int) -> None:
        """Match the oracle's fault semantics for a partial block.

        The per-line engine keeps a faulting block's pre-fault cache and
        memory effects but loses its cycles with the exception (the
        ``self.cycles`` update never runs).  Here those runs sit at the
        tail of this thread's own segment, the last in the socket's
        queue, so: flush everything queued *before* this block
        normally, then flush the block's own runs alone and roll back
        this thread's cycle credit.  Cold path — only ever runs under
        an imminent :class:`PageFault`.
        """
        cp = self._col_path
        queue = self._queue
        q_base, q_count, q_write = self._q_base, self._q_count, self._q_write
        n_block = 0
        stripped = 0
        while stripped < block_lines:
            n_block += 1
            stripped += q_count[-n_block]
        if not n_block:
            return
        split = len(q_base) - n_block
        blk = (q_base[split:], q_count[split:], q_write[split:])
        del q_base[split:], q_count[split:], q_write[split:]
        # The segment may now be empty; the kernel walks it as zero runs.
        queue.pending_lines -= block_lines
        cp.flush_pending()
        q_base.extend(blk[0])
        q_count.extend(blk[1])
        q_write.extend(blk[2])
        self._q_seg.extend((0, self._slot))
        queue.pending_lines = block_lines
        queue.tail = cp
        before = self._cycles_v
        cp.flush_pending()
        self._cycles_v = before


class Process:
    """A managed or native application instance.

    Threads are bound to ``affinity_socket`` (the paper binds everything
    to Socket 0, or to Socket 1 when emulating PCM-Only, Section III-B).
    """

    def __init__(self, pid: int, kernel: "Kernel",
                 affinity_socket: int = 0,
                 placement: Optional[PlacementPolicy] = None) -> None:
        self.pid = pid
        self.kernel = kernel
        self.affinity_socket = affinity_socket
        self.page_table = PageTable()
        # Placement policy for this process's pages; the kernel's
        # create_process passes the resolved one, direct construction
        # (tests, tools) defaults to today's static behaviour.
        if placement is None:
            placement = StaticPlacement(kernel)
        placement.bind(self)
        self.placement: PlacementPolicy = placement
        self.threads: List[SimThread] = []
        self._next_tid = 0

    def spawn_thread(self, socket_id: Optional[int] = None) -> SimThread:
        """Create a thread bound to ``socket_id`` (default: affinity).

        The thread class follows the machine's access engine: the
        default ``columnar`` engine defers cycles (``ColumnarSimThread``);
        the ``perline`` engine, and machines built without an engine,
        route everything through the oracle walk.
        """
        socket = self.affinity_socket if socket_id is None else socket_id
        machine = self.kernel.machine
        core_path = machine.make_core(socket)
        engine = machine.engine
        thread_cls: Type[SimThread] = PerLineSimThread
        if engine is not None and engine.columnar:
            thread_cls = ColumnarSimThread
        thread = thread_cls(self._next_tid, self, core_path)
        self._next_tid += 1
        self.threads.append(thread)
        return thread

    def total_cycles(self) -> int:
        return sum(thread.cycles for thread in self.threads)

    def drain_caches(self) -> None:
        """Flush this process's private caches into the shared LLC."""
        for thread in self.threads:
            thread.core_path.drain()

    def exit(self) -> None:
        """Release every physical frame this process maps."""
        self.kernel.reclaim_process(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process(pid={self.pid}, threads={len(self.threads)})"
