"""Two-socket NUMA machine: sockets, QPI, and the core access path.

The paper's platform (Figure 2): threads execute on Socket 0 whose DRAM
emulates DRAM, while Socket 1's DRAM emulates PCM and runs no threads.
Here a :class:`Socket` bundles a shared LLC with a memory node, and a
:class:`CorePath` is the per-hardware-thread access path (private cache
in front of its socket's LLC).  Remote accesses pay a QPI latency
penalty, mirroring the emulator's use of remote-socket latency as a
stand-in for PCM latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from repro.config import LatencyModel
from repro.machine.cache import CacheLevel
from repro.machine.memory import NODE_LINE_SHIFT, MemoryNode, node_of_line
from repro.probe import PROBES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.engine import Engine


class Socket:
    """One CPU socket: cores sharing an LLC, plus attached memory."""

    def __init__(self, socket_id: int, llc: CacheLevel, memory: MemoryNode,
                 cores: int, hyperthreads: int = 2) -> None:
        self.socket_id = socket_id
        self.llc = llc
        self.memory = memory
        self.cores = cores
        self.hyperthreads = hyperthreads

    @property
    def logical_cpus(self) -> int:
        return self.cores * self.hyperthreads

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Socket({self.socket_id}, {self.cores} cores, {self.memory.kind})"


class CorePath:
    """The memory-access path of one executing context.

    Owns a private cache (modelling the per-core L1+L2) in front of its
    socket's shared LLC.  ``access`` returns the latency in cycles and
    routes dirty evictions to the owning memory node's counters.
    """

    def __init__(self, machine: "NumaMachine", socket: Socket,
                 private: Optional[CacheLevel]) -> None:
        self.machine = machine
        self.socket = socket
        self.private = private

    def access_line(self, line: int, is_write: bool) -> int:
        """Access one physical cache line; returns cycles spent."""
        machine = self.machine
        latency = machine.latency
        private = self.private
        llc = self.socket.llc
        if private is not None:
            hit, victim, victim_dirty = private.access(line, is_write)
            if hit:
                return latency.l2_hit
            if victim_dirty:
                # Write-back into the LLC; may displace a dirty LLC line
                # all the way to memory.
                wb_victim, wb_dirty = llc.install_dirty(victim)
                if wb_dirty:
                    machine.memory_write(wb_victim)
            hit, victim, victim_dirty = llc.access(line, False)
        else:
            hit, victim, victim_dirty = llc.access(line, is_write)
        if victim_dirty:
            machine.memory_write(victim)
        if hit:
            return latency.llc_hit
        node = node_of_line(line)
        machine.nodes[node].record_read(line)
        remote = node != self.socket.memory.node_id
        if remote:
            machine.qpi_crossings += 1
        return latency.memory_latency(remote=remote)

    def drain(self) -> None:
        """Flush the private cache into the LLC (end-of-run hygiene)."""
        if self.private is None:
            return
        llc = self.socket.llc
        for line in self.private.flush():
            wb_victim, wb_dirty = llc.install_dirty(line)
            if wb_dirty:
                self.machine.memory_write(wb_victim)


class NumaMachine:
    """A multi-socket machine with per-node write counters.

    Parameters
    ----------
    sockets:
        The sockets, indexed by socket id; ``sockets[i].memory.node_id``
        must equal ``i``.
    latency:
        The cycle-cost model shared by every core.
    """

    def __init__(self, sockets: List[Socket], latency: LatencyModel) -> None:
        if not sockets:
            raise ValueError("a machine needs at least one socket")
        for index, socket in enumerate(sockets):
            if socket.socket_id != index or socket.memory.node_id != index:
                raise ValueError("socket/node ids must match their index")
        self.sockets = sockets
        self.nodes: List[MemoryNode] = [s.memory for s in sockets]
        self.latency = latency
        #: Optional hook fired on every memory write (line address); the
        #: write-rate monitor and tests subscribe here.
        self.write_listeners: List[Callable[[int], None]] = []
        #: Demand misses served by a remote socket's memory (the QPI
        #: hops the emulator uses as its PCM-latency stand-in).
        self.qpi_crossings = 0
        self._core_caches: Dict[int, int] = {}
        self.private_cache_factory: Optional[Callable[[], CacheLevel]] = None
        #: The access engine this machine was built with (set by
        #: ``MachineSpec.build``); ``None`` means plain per-line paths.
        self.engine: Optional["Engine"] = None

    def memory_write(self, line: int) -> None:
        """Route a dirty-line write-back to its home node."""
        self.nodes[node_of_line(line)].record_write(line)
        for listener in self.write_listeners:
            listener(line)

    def migration_write(self, line: int) -> None:
        """Route one page-migration copy line to its home node.

        Like :meth:`memory_write` but lands in the node's dedicated
        migration counter (and the ``(migration)`` attribution tag)
        alongside its write counter.  Listeners fire as usual so the
        wear tracker charges the copy to PCM endurance.  Migration
        copies bypass the cache hierarchy — a device-side copy engine,
        not a cached mutator access — so no read counters move.
        """
        self.nodes[node_of_line(line)].record_migration_write(line)
        for listener in self.write_listeners:
            listener(line)

    def memory_write_bulk(self, lines: np.ndarray) -> None:
        """Route a batch of write-backs (int64 line addresses, in order).

        With write listeners subscribed this degrades to the per-line
        path so listeners observe every line in eviction order; without
        them the count/attribution updates happen per node in bulk.
        """
        if self.write_listeners:
            for line in lines.tolist():
                self.memory_write(line)
            return
        node_ids = lines >> NODE_LINE_SHIFT
        per_node = np.bincount(node_ids, minlength=len(self.nodes))
        single = int(np.argmax(per_node))
        if int(per_node[single]) == lines.size:
            # Common case: every victim lands on one node.
            self.nodes[single].record_writes(lines)
            return
        for node_id, node_count in enumerate(per_node.tolist()):
            if node_count:
                self.nodes[node_id].record_writes(
                    lines[node_ids == node_id])

    def sync_engines(self) -> None:
        """Flush every deferred-access queue (no-op for the per-line engine).

        Must run before anything observes or remaps machine state:
        counter reads, invariant checks, cache flushes, page-table
        changes.  The columnar engine parks queued runs in each LLC's
        ``run_queue``; executing them here makes all counters exactly
        what the per-line engine would have produced.
        """
        for socket in self.sockets:
            queue = socket.llc.run_queue
            if queue is not None and queue.tail is not None:
                queue.tail.flush_pending()

    def make_core(self, socket_id: int) -> CorePath:
        """Create an access path for a context bound to ``socket_id``."""
        socket = self.sockets[socket_id]
        private = (self.private_cache_factory()
                   if self.private_cache_factory is not None else None)
        if self.engine is not None:
            return self.engine.make_core(self, socket, private)
        return CorePath(self, socket, private)

    def flush_all(self, core_paths: List[CorePath]) -> None:
        """Flush private caches and every LLC out to memory."""
        self.sync_engines()
        if PROBES.on:
            PROBES.fire("machine.flush_all", paths=len(core_paths))
        # Span so the drain's write-backs are attributed to the flush
        # phase, not to whichever phase triggered it.
        frame = PROBES.push("machine.flush", paths=len(core_paths))
        try:
            for path in core_paths:
                path.drain()
            for socket in self.sockets:
                for line in socket.llc.flush():
                    self.memory_write(line)
        finally:
            PROBES.pop(frame)
        if PROBES.on:
            PROBES.fire("machine.flush_all.done", machine=self)

    def reset_counters(self) -> None:
        # Queued accesses were issued before the reset; land them first.
        self.sync_engines()
        for node in self.nodes:
            node.reset_counters()
        self.qpi_crossings = 0
        if PROBES.on:
            PROBES.fire("machine.reset_counters.done", machine=self)

    def node_writes(self, node_id: int) -> int:
        """Lines written to ``node_id`` since the last reset."""
        self.sync_engines()
        return self.nodes[node_id].write_lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NumaMachine({len(self.sockets)} sockets)"
