"""The native (C++) runtime: a process with a malloc'd heap.

Mirrors :class:`repro.runtime.jvm.MutatorContext` closely enough that
the GraphChi algorithms can run unchanged over either runtime — the
differences that remain are exactly the paper's: ``alloc`` writes only
the 16-byte allocator header (no zeroing), objects never move, and
freed memory is recycled in place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.config import PAGE_SIZE
from repro.kernel.process import Process, SimThread
from repro.kernel.vm import Kernel
from repro.native.malloc import HEADER_BYTES, FreeListAllocator
from repro.runtime.jvm import RuntimeStats


@dataclass
class NativeObj:
    """A malloc'd region (payload address + requested size)."""

    addr: int
    size: int

    def scalar_addr(self, offset: int) -> int:
        return self.addr + offset


class NativeRuntime:
    """One C++ application instance.

    Parameters
    ----------
    heap_bytes:
        Size of the malloc heap (the paper configures the C++ heap
        equal to the Java heap, 512 MB for GraphChi).
    node:
        NUMA node backing the heap (1 to model a PCM-Only system).
    thread_socket:
        Where the application threads run.
    """

    HEAP_BASE = 0x10000

    def __init__(self, kernel: Kernel, heap_bytes: int, node: int = 1,
                 thread_socket: int = 1, app_threads: int = 4) -> None:
        self.kernel = kernel
        heap_bytes = -(-heap_bytes // PAGE_SIZE) * PAGE_SIZE
        self.process: Process = kernel.create_process(
            affinity_socket=thread_socket)
        kernel.mmap_bind(self.process, self.HEAP_BASE, heap_bytes,
                         node_id=node, tag="native-heap")
        self.allocator = FreeListAllocator(self.HEAP_BASE, heap_bytes)
        self.app_threads: List[SimThread] = [
            self.process.spawn_thread() for _ in range(app_threads)]
        self.stats = RuntimeStats()

    def mutator(self, seed: int = 0) -> "NativeContext":
        return NativeContext(self, seed)

    def finish(self) -> None:
        self.stats.mutator_cycles = sum(t.cycles for t in self.app_threads)

    def shutdown(self) -> None:
        self.process.exit()


class NativeContext:
    """malloc/free plus raw reads and writes, with traffic accounting.

    ``thread`` is a plain attribute that :meth:`use_thread` sets, as in
    the managed runtime's ``MutatorContext``.
    """

    def __init__(self, runtime: NativeRuntime, seed: int = 0) -> None:
        self.runtime = runtime
        self.rng = random.Random(seed)
        self._threads = runtime.app_threads
        self.thread: SimThread = self._threads[0]

    def use_thread(self, index: int) -> None:
        threads = self._threads
        self.thread = threads[index % len(threads)]

    def malloc(self, nbytes: int) -> NativeObj:
        """Allocate; only the allocator header is written (no zeroing)."""
        addr = self.runtime.allocator.malloc(nbytes)
        self.thread.access(addr - HEADER_BYTES, HEADER_BYTES, True)
        stats = self.runtime.stats
        stats.bytes_allocated += nbytes
        stats.objects_allocated += 1
        return NativeObj(addr, nbytes)

    def free(self, obj: NativeObj) -> None:
        """Release; touches the header and the free-list neighbours."""
        self.thread.access(obj.addr - HEADER_BYTES, HEADER_BYTES, True)
        self.runtime.allocator.free(obj.addr)

    def write(self, obj: NativeObj, offset: int = 0, nbytes: int = 8) -> None:
        self.thread.access(obj.addr + offset, nbytes, True)

    def read(self, obj: NativeObj, offset: int = 0, nbytes: int = 8) -> None:
        self.thread.access(obj.addr + offset, nbytes, False)

    def write_all(self, obj: NativeObj) -> None:
        """Initialise the whole buffer (memset/fill, done explicitly)."""
        self.thread.access_block(obj.addr, obj.size, True)

    def read_all(self, obj: NativeObj) -> None:
        self.thread.access_block(obj.addr, obj.size, False)

    def compute(self, units: int = 1) -> None:
        thread = self.thread
        thread.compute(units * self.runtime.kernel.machine.latency.op_base)
