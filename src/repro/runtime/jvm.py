"""The managed virtual machine: allocation, barriers, GC triggering.

:class:`JavaVM` plays the role of the paper's modified Jikes RVM.  It
wires a process, a :class:`~repro.runtime.heap.HybridHeap`, and a
collector together, and exposes a :class:`MutatorContext` through which
workloads allocate and mutate objects.  Every byte the mutator or the
collector touches is pushed through the simulated cache hierarchy.

Notable fidelity points:

* allocation zero-initialises the whole object (Java's memory-safety
  guarantee — one of the three reasons the paper finds Java writes more
  than C++);
* reference stores run the generational *boundary* write barrier: the
  young spaces (nursery, and observer for KG-W) sit at the top of
  virtual memory, so the barrier is one address compare;
* the barrier also counts writes to monitored objects (observer space
  residents and PCM large objects), which is the signal Kingsguard-W
  uses for segregation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.config import DEFAULT_SCALE_CONFIG, ScaleConfig
from repro.kernel.addressspace import AddressSpaceLayout
from repro.kernel.process import SimThread
from repro.kernel.vm import Kernel
from repro.probe import PROBES
from repro.runtime.heap import HybridHeap, OutOfMemoryError
from repro.runtime.objectmodel import (
    HEADER_BYTES,
    LOS_THRESHOLD,
    REF_BYTES,
    Obj,
    object_size,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.collectors.base import Collector


@dataclass
class RuntimeStats:
    """Counters the harness reads after a run."""

    minor_gcs: int = 0
    full_gcs: int = 0
    observer_collections: int = 0
    bytes_allocated: int = 0
    bytes_copied: int = 0
    objects_allocated: int = 0
    objects_promoted: int = 0
    large_migrations: int = 0
    mutator_cycles: int = 0
    gc_cycles: int = 0
    #: Stop-the-world pause lengths in cycles, one entry per collection
    #: (minor and full alike), in occurrence order.
    pauses: List[int] = field(default_factory=list)

    def snapshot_delta(self, earlier: "RuntimeStats") -> "RuntimeStats":
        """Stats accumulated since ``earlier`` (for per-iteration data)."""
        delta = RuntimeStats(**{
            name: getattr(self, name) - getattr(earlier, name)
            for name in self.__dataclass_fields__ if name != "pauses"})
        delta.pauses = self.pauses[len(earlier.pauses):]
        return delta

    def copy(self) -> "RuntimeStats":
        copied = RuntimeStats(**{
            name: getattr(self, name)
            for name in self.__dataclass_fields__ if name != "pauses"})
        copied.pauses = list(self.pauses)
        return copied

    @property
    def max_pause_cycles(self) -> int:
        return max(self.pauses, default=0)

    @property
    def mean_pause_cycles(self) -> float:
        return sum(self.pauses) / len(self.pauses) if self.pauses else 0.0

    def mutator_utilization(self) -> float:
        """Fraction of total cycles spent in the mutator (a coarse
        minimum-mutator-utilization proxy)."""
        total = self.mutator_cycles + self.gc_cycles
        return self.mutator_cycles / total if total else 1.0


class JavaVM:
    """One managed-runtime instance bound to a collector configuration."""

    def __init__(self, kernel: Kernel, collector: "Collector",
                 heap_budget: int, nursery_size: int,
                 app_threads: int = 4, gc_threads: int = 2,
                 scale: ScaleConfig = DEFAULT_SCALE_CONFIG,
                 boot_noise_rate: float = 0.004, seed: int = 1) -> None:
        config = collector.config
        self.kernel = kernel
        self.collector = collector
        self.scale = scale
        self.process = kernel.create_process(
            affinity_socket=config.thread_socket)
        self.layout = AddressSpaceLayout.build(scale)
        observer_size = (config.observer_factor * nursery_size
                         if config.has_observer else 0)
        self.heap = HybridHeap(kernel, self.process, self.layout,
                               heap_budget, nursery_size, observer_size,
                               scale=scale)
        self.stats = RuntimeStats()
        self.roots: List[Optional[Obj]] = []
        self._free_root_slots: List[int] = []
        self.remset: List[Obj] = []
        self._rng = random.Random(seed)
        self.boot_noise_rate = boot_noise_rate

        #: KG-W variants monitor every store through the write barrier;
        #: the mutator pays a small per-write cost for it (the paper
        #: reports 7-10 % total overhead from monitoring and copying).
        self.monitoring_overhead = config.has_observer
        #: Cycles charged per (modeled) store for KG-W's monitoring
        #: barrier.  One modeled store stands in for many real stores,
        #: so the charge is calibrated to the paper's 7-10 % overall
        #: overhead rather than to a single instruction sequence.
        self.monitor_barrier_cycles = 10 * kernel.machine.latency.op_base
        #: Optional profile-driven collector hook (Crystal Gazer): when
        #: set, allocations are tagged with a context key and mutator
        #: writes feed the profile.  This is bookkeeping outside the
        #: simulated machine, so it costs no simulated cycles — exactly
        #: the point of offline profiling versus online monitoring.
        self.write_profiler = None
        self.app_threads = [self.process.spawn_thread()
                            for _ in range(app_threads)]
        self.gc_threads = [self.process.spawn_thread()
                           for _ in range(gc_threads)]
        self._gc_toggle = 0

        collector.attach(self)
        self.nursery = self.heap.space("nursery")
        self.observer = (self.heap.space("observer")
                         if config.has_observer else None)
        self.boot = self.heap.space("boot")
        #: Young-generation boundary for the fast write barrier.
        self.young_boundary = (self.observer.start if self.observer
                               else self.nursery.start)
        # Remset buffer lives in immortal VM memory (the boot region).
        self._remset_buffer = self.boot.start
        self._remset_cursor = 0
        self._boot_image_load()

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def _boot_image_load(self) -> None:
        """Write the boot image (the VM loading its image files)."""
        frame = PROBES.push("jvm.boot")
        try:
            self.gc_threads[0].access_block(
                self.boot.start, self.boot.end - self.boot.start, True)
        finally:
            PROBES.pop(frame, bytes=self.boot.end - self.boot.start)

    # ------------------------------------------------------------------
    # GC plumbing
    # ------------------------------------------------------------------
    def gc_thread(self) -> SimThread:
        """Alternate between the (two) GC threads for traffic."""
        thread = self.gc_threads[self._gc_toggle % len(self.gc_threads)]
        self._gc_toggle += 1
        return thread

    def remset_record(self, src: Obj, thread: SimThread) -> None:
        """Barrier slow path: log ``src`` into the remembered set."""
        src.in_remset = True
        self.remset.append(src)
        offset = (self._remset_cursor * 4) % 4096
        self._remset_cursor += 1
        thread.access(self._remset_buffer + offset, 4, True)

    def rebuild_remset(self) -> None:
        """Keep only sources that still reference young objects."""
        boundary = self.young_boundary
        survivors: List[Obj] = []
        for src in self.remset:
            if any(ref is not None and ref.addr >= boundary
                   for ref in src.refs):
                survivors.append(src)
            else:
                src.in_remset = False
        self.remset = survivors

    def minor_collect(self) -> None:
        if PROBES.on:  # a fault here crashes at the safepoint
            PROBES.fire("runtime.gc", kind="minor")
        frame = PROBES.push("gc.minor")
        before = sum(t.cycles for t in self.gc_threads)
        try:
            self.collector.minor_collect(self)
        finally:
            # The span closes (with dur and the pause measured so far)
            # even when a fault aborts the collection mid-phase, so the
            # span stack never orphans the enclosing run/mutator spans.
            pause = sum(t.cycles for t in self.gc_threads) - before
            PROBES.pop(frame, collector=self.collector.config.name,
                       pause_cycles=pause // len(self.gc_threads))
        self.stats.minor_gcs += 1
        self.stats.gc_cycles += pause
        self.stats.pauses.append(pause // len(self.gc_threads))
        if PROBES.on:
            PROBES.fire("runtime.gc.done", vm=self)

    def full_collect(self) -> None:
        # stats.full_gcs is counted inside mark_and_sweep, which also
        # runs on emergency (allocation-failure) collections.
        if PROBES.on:  # a fault here crashes at the safepoint
            PROBES.fire("runtime.gc", kind="full")
        frame = PROBES.push("gc.full")
        before = sum(t.cycles for t in self.gc_threads)
        try:
            self.collector.full_collect(self)
        finally:
            pause = sum(t.cycles for t in self.gc_threads) - before
            PROBES.pop(frame, collector=self.collector.config.name,
                       pause_cycles=pause // len(self.gc_threads))
        self.stats.gc_cycles += pause
        self.stats.pauses.append(pause // len(self.gc_threads))
        if PROBES.on:
            PROBES.fire("runtime.gc.done", vm=self)

    # ------------------------------------------------------------------
    # Mutator interface
    # ------------------------------------------------------------------
    def mutator(self, seed: int = 0) -> "MutatorContext":
        return MutatorContext(self, seed)

    def live_heap_bytes(self) -> int:
        return sum(obj.size for space in self.heap.spaces.values()
                   for obj in space.live_objects())

    def finish(self) -> None:
        """Account mutator cycles at the end of a run segment."""
        total = sum(t.cycles for t in self.app_threads)
        self.stats.mutator_cycles = total

    def shutdown(self) -> None:
        self.process.exit()
        if PROBES.on:
            # After frame release: a fault here models a shutdown step
            # (listener detach, stats flush) failing so teardown-path
            # tests can prove one bad VM cannot skip its siblings.
            PROBES.fire("runtime.shutdown", pid=self.process.pid)


class MutatorContext:
    """The workload-facing allocation and mutation API.

    A context multiplexes the VM's application threads: ``self.thread``
    selects which simulated thread issues the next operation's traffic
    (workloads rotate it to model their four application threads).

    Every field touch costs one ``SimThread.access`` call and nothing
    else the context can avoid: ``thread`` is a plain attribute that
    :meth:`use_thread` sets, field addresses are computed inline from
    the object layout, and random offsets are drawn straight from the
    RNG's ``_randbelow``, the method ``randrange(n)`` delegates to.
    """

    def __init__(self, vm: JavaVM, seed: int = 0) -> None:
        self.vm = vm
        self.rng = random.Random(seed)
        self._threads = vm.app_threads
        self.thread: SimThread = self._threads[0]

    # -- thread selection ------------------------------------------------
    def use_thread(self, index: int) -> None:
        threads = self._threads
        self.thread = threads[index % len(threads)]

    # -- allocation -------------------------------------------------------
    def alloc(self, scalar_bytes: int = 16, num_refs: int = 0,
              large: Optional[bool] = None) -> Obj:
        """Allocate and zero-initialise a new object.

        ``large`` forces large-object treatment; by default objects of
        ``LOS_THRESHOLD`` bytes or more are large.
        """
        vm = self.vm
        if PROBES.on:
            # Faults: heap exhaustion ("oom") or a wild page touch
            # ("page_fault") at the Nth allocation.  Deliberately not in
            # the byte-access engine — that hot path stays hook-free.
            PROBES.fire("runtime.alloc", scalar_bytes=scalar_bytes,
                        num_refs=num_refs)
        size = object_size(scalar_bytes, num_refs)
        is_large = large if large is not None else size >= LOS_THRESHOLD
        thread = self.thread
        if is_large:
            obj = vm.collector.allocate_large(vm, size, num_refs, thread)
        else:
            obj = vm.nursery.allocate(size, num_refs)
            if obj is None:
                obj = self._alloc_nursery(size, num_refs)
        if vm.write_profiler is not None:
            obj.context = vm.write_profiler.context_key(scalar_bytes,
                                                        num_refs, is_large)
            vm.write_profiler.note_allocation(obj)
        # Zero-initialisation: Java writes the whole object up front.
        thread.access_block(obj.addr, obj.size, True)
        stats = vm.stats
        stats.bytes_allocated += size
        stats.objects_allocated += 1
        # Occasional VM-service write to the boot image (JIT, statics).
        if vm.boot_noise_rate and self.rng.random() < vm.boot_noise_rate:
            boot = vm.boot
            offset = self.rng.randrange(0, boot.size - 64)
            thread.access(boot.start + offset, 8, True)
        return obj

    def _alloc_nursery(self, size: int, num_refs: int) -> Obj:
        """Slow path once the nursery is full: collect until it fits."""
        vm = self.vm
        nursery = vm.nursery
        obj = None
        while obj is None:
            vm.minor_collect()
            obj = nursery.allocate(size, num_refs)
            if obj is None and size > nursery.size:
                raise OutOfMemoryError(
                    f"object of {size} B cannot fit the nursery")
        return obj

    # -- field access -------------------------------------------------------
    def write_ref(self, obj: Obj, slot: int, value: Optional[Obj]) -> None:
        """Store a reference, running the boundary write barrier."""
        vm = self.vm
        thread = self.thread
        obj.refs[slot] = value
        thread.access(obj.addr + HEADER_BYTES + slot * REF_BYTES, 4, True)
        if vm.monitoring_overhead:
            thread.compute(vm.monitor_barrier_cycles)
        self._monitor_write(obj)
        if (value is not None and value.addr >= vm.young_boundary
                and obj.addr < vm.young_boundary and not obj.in_remset):
            vm.remset_record(obj, thread)

    def read_ref(self, obj: Obj, slot: int) -> Optional[Obj]:
        self.thread.access(obj.addr + HEADER_BYTES + slot * REF_BYTES, 4,
                           False)
        return obj.refs[slot]

    def write_scalar(self, obj: Obj, offset: int = 0, nbytes: int = 8) -> None:
        """Write ``nbytes`` of scalar payload at ``offset``."""
        vm = self.vm
        thread = self.thread
        thread.access(obj.addr + HEADER_BYTES + len(obj.refs) * REF_BYTES
                      + offset, nbytes, True)
        if vm.monitoring_overhead:
            thread.compute(vm.monitor_barrier_cycles)
        self._monitor_write(obj)

    def read_scalar(self, obj: Obj, offset: int = 0, nbytes: int = 8) -> None:
        self.thread.access(obj.addr + HEADER_BYTES + len(obj.refs) * REF_BYTES
                           + offset, nbytes, False)

    def write_scalar_random(self, obj: Obj, nbytes: int = 8) -> None:
        """Write at a random payload offset (mutation models use this)."""
        vm = self.vm
        thread = self.thread
        scalar_start = HEADER_BYTES + len(obj.refs) * REF_BYTES
        span = obj.size - scalar_start - nbytes
        thread.access(obj.addr + scalar_start
                      + self.rng._randbelow(span if span > 1 else 1),
                      nbytes, True)
        if vm.monitoring_overhead:
            thread.compute(vm.monitor_barrier_cycles)
        self._monitor_write(obj)

    def read_scalar_random(self, obj: Obj, nbytes: int = 8) -> None:
        scalar_start = HEADER_BYTES + len(obj.refs) * REF_BYTES
        span = obj.size - scalar_start - nbytes
        self.thread.access(obj.addr + scalar_start
                           + self.rng._randbelow(span if span > 1 else 1),
                           nbytes, False)

    def _monitor_write(self, obj: Obj) -> None:
        # Kingsguard write monitoring: observer residents and PCM large
        # objects accumulate write counts the collector acts on.
        if obj.space == "observer" or (obj.is_large
                                       and obj.space == "large.pcm"):
            obj.write_count += 1
        profiler = self.vm.write_profiler
        if profiler is not None:
            profiler.note_write(obj)

    # -- compute ------------------------------------------------------------
    def compute(self, units: int = 1) -> None:
        """Account non-memory work for the current thread."""
        thread = self.thread
        thread.compute(units * self.vm.kernel.machine.latency.op_base)

    # -- roots ----------------------------------------------------------------
    def add_root(self, obj: Optional[Obj]) -> int:
        vm = self.vm
        if vm._free_root_slots:
            index = vm._free_root_slots.pop()
            vm.roots[index] = obj
            return index
        vm.roots.append(obj)
        return len(vm.roots) - 1

    def set_root(self, index: int, obj: Optional[Obj]) -> None:
        self.vm.roots[index] = obj

    def clear_root(self, index: int) -> None:
        self.vm.roots[index] = None
        self.vm._free_root_slots.append(index)
