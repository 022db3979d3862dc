"""The hybrid heap: dual free lists, space registry, NUMA placement.

:class:`HybridHeap` owns the paper's heap organisation (Figure 1): the
virtual heap is split into a PCM-backed portion managed by FreeList-Lo
and a DRAM-backed portion managed by FreeList-Hi.  Spaces declare only
``in_dram``; the heap routes their chunk requests to the matching free
list and their ``mmap`` calls to the matching NUMA node via ``mbind``.

The heap also enforces the benchmark's heap budget (the paper sizes
heaps at twice the minimum) and owns the side-metadata mapping used by
full-heap marking.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import DEFAULT_SCALE_CONFIG, ScaleConfig
from repro.kernel.addressspace import AddressSpaceLayout
from repro.kernel.process import Process
from repro.kernel.vm import Kernel
from repro.probe import PROBES
from repro.runtime.freelist import ChunkFreeList, ChunkRecord
from repro.runtime.objectmodel import Obj
from repro.runtime.spaces import (
    BootSpace,
    ContiguousSpace,
    LargeObjectSpace,
    MatureSpace,
    MetadataSpace,
    Space,
)


class OutOfMemoryError(MemoryError):
    """The heap budget is exhausted even after a full collection."""


class HybridHeap:
    """Heap manager for one managed process on the hybrid machine.

    Parameters
    ----------
    kernel / process:
        The simulated OS and the owning process.
    layout:
        Virtual address-space boundaries.
    heap_budget:
        Byte budget for chunked spaces (mature + large); requests beyond
        it fail, prompting the VM to run a full collection.
    nursery_size / observer_size:
        Contiguous space sizes; observer may be zero (non-KG-W).
    dram_node / pcm_node:
        NUMA nodes backing each memory kind (0 and 1 on the platform).
    """

    def __init__(self, kernel: Kernel, process: Process,
                 layout: AddressSpaceLayout, heap_budget: int,
                 nursery_size: int, observer_size: int = 0,
                 dram_node: int = 0, pcm_node: int = 1,
                 scale: ScaleConfig = DEFAULT_SCALE_CONFIG) -> None:
        self.kernel = kernel
        self.process = process
        self.layout = layout
        self.heap_budget = heap_budget
        self.chunk_size = scale.chunk_size
        self.dram_node = dram_node
        self.pcm_node = pcm_node
        self.committed = 0
        self.gc_epoch = 0
        self.spaces: Dict[str, Space] = {}

        # --- carve the DRAM portion: [chunk area | observer | nursery] ---
        nursery_start = layout.dram_end - nursery_size
        observer_start = nursery_start - observer_size
        chunk_area_end = (observer_start - layout.dram_start) \
            // self.chunk_size * self.chunk_size + layout.dram_start
        if chunk_area_end <= layout.dram_start:
            raise ValueError("DRAM portion too small for nursery+observer")

        self.freelist_lo = ChunkFreeList(
            "FreeList-Lo", layout.pcm_start, layout.pcm_end, self.chunk_size,
            self._map_pcm_chunk)
        self.freelist_hi = ChunkFreeList(
            "FreeList-Hi", layout.dram_start, chunk_area_end, self.chunk_size,
            self._map_dram_chunk)

        self.nursery_start = nursery_start
        self.nursery_size = nursery_size
        self.observer_start = observer_start
        self.observer_size = observer_size

    # ------------------------------------------------------------------
    # NUMA routing
    # ------------------------------------------------------------------
    def node_for(self, in_dram: bool) -> int:
        return self.dram_node if in_dram else self.pcm_node

    def freelist_for(self, in_dram: bool) -> ChunkFreeList:
        return self.freelist_hi if in_dram else self.freelist_lo

    def _map_pcm_chunk(self, addr: int, size: int) -> None:
        self.kernel.mmap_bind(self.process, addr, size, self.pcm_node)

    def _map_dram_chunk(self, addr: int, size: int) -> None:
        self.kernel.mmap_bind(self.process, addr, size, self.dram_node)

    def map_contiguous(self, start: int, size: int, in_dram: bool,
                       tag: str) -> None:
        """Reserve and bind a contiguous space region at boot time."""
        self.kernel.mmap_bind(self.process, start, size,
                              self.node_for(in_dram), tag=tag)

    # ------------------------------------------------------------------
    # Budget accounting
    # ------------------------------------------------------------------
    def may_commit(self, nbytes: int) -> bool:
        if PROBES.on:
            # An "exhaust" answer denies the budget check so the VM
            # walks its real emergency-collection -> OutOfMemoryError
            # path rather than a synthetic raise.
            if PROBES.fire("runtime.heap.commit",
                           nbytes=nbytes) == "exhaust":
                return False
        return self.committed + nbytes <= self.heap_budget

    def note_chunk_acquired(self, space: Space, record: ChunkRecord) -> None:
        self.committed += record.size
        self.kernel.retag_range(self.process, record.addr, record.size,
                                space.name)
        if PROBES.on:
            PROBES.fire("runtime.heap.chunk_acquired", heap=self)

    def note_chunk_released(self, space: Space) -> None:
        self.committed -= self.chunk_size

    @property
    def budget_headroom(self) -> int:
        return self.heap_budget - self.committed

    # ------------------------------------------------------------------
    # Space registry
    # ------------------------------------------------------------------
    def register(self, space: Space) -> Space:
        if space.name in self.spaces:
            raise ValueError(f"space {space.name!r} already registered")
        self.spaces[space.name] = space
        return space

    def space(self, name: str) -> Space:
        return self.spaces[name]

    def make_nursery(self, in_dram: bool) -> ContiguousSpace:
        nursery = ContiguousSpace("nursery", self, in_dram,
                                  self.nursery_start, self.nursery_size)
        self.map_contiguous(nursery.start, nursery.size, in_dram, "nursery")
        return self.register(nursery)  # type: ignore[return-value]

    def make_observer(self, in_dram: bool) -> ContiguousSpace:
        if not self.observer_size:
            raise ValueError("heap was built without an observer region")
        observer = ContiguousSpace("observer", self, in_dram,
                                   self.observer_start, self.observer_size)
        self.map_contiguous(observer.start, observer.size, in_dram, "observer")
        return self.register(observer)  # type: ignore[return-value]

    def make_mature(self, name: str, in_dram: bool) -> MatureSpace:
        space = MatureSpace(name, self, in_dram)
        return self.register(space)  # type: ignore[return-value]

    def make_los(self, name: str, in_dram: bool) -> LargeObjectSpace:
        space = LargeObjectSpace(name, self, in_dram)
        return self.register(space)  # type: ignore[return-value]

    def make_boot(self, in_dram: bool, size: int = 0) -> BootSpace:
        layout = self.layout
        size = size or (layout.boot_end - layout.boot_start)
        boot = BootSpace("boot", self, in_dram, layout.boot_start, size)
        self.map_contiguous(boot.start, size, in_dram, "boot")
        return self.register(boot)  # type: ignore[return-value]

    def make_metadata(self, pcm_meta_in_dram: bool,
                      dram_meta_in_dram: bool = True) -> None:
        """Create the two side-metadata spaces.

        Metadata covering the PCM portion lives in PCM by default; the
        MetaData Optimization (MDO) moves it to DRAM.  Metadata for the
        DRAM portion lives in DRAM, except on a PCM-Only system where
        everything is PCM-backed.
        """
        layout = self.layout

        def page_ceil(nbytes: int) -> int:
            return max(4096, -(-nbytes // 4096) * 4096)

        pcm_meta_size = page_ceil(layout.pcm_capacity >> 6)
        dram_meta_size = page_ceil(layout.dram_capacity >> 6)
        if layout.meta_start + pcm_meta_size + dram_meta_size > layout.meta_end:
            raise ValueError("metadata region too small for heap layout")
        meta_pcm = MetadataSpace("metadata.pcm", self, pcm_meta_in_dram,
                                 layout.meta_start, layout.pcm_start,
                                 layout.pcm_capacity)
        meta_dram = MetadataSpace("metadata.dram", self, dram_meta_in_dram,
                                  layout.meta_start + pcm_meta_size,
                                  layout.dram_start, layout.dram_capacity)
        self.map_contiguous(meta_pcm.start, pcm_meta_size,
                            meta_pcm.in_dram, meta_pcm.name)
        self.map_contiguous(meta_dram.start, dram_meta_size,
                            meta_dram.in_dram, meta_dram.name)
        self.register(meta_pcm)
        self.register(meta_dram)
        self._meta_pcm = meta_pcm
        self._meta_dram = meta_dram

    def mark_addr(self, obj: Obj) -> int:
        """Side-metadata byte address for marking ``obj`` live."""
        if self.layout.in_pcm_portion(obj.addr):
            return self._meta_pcm.mark_addr(obj.addr)
        return self._meta_dram.mark_addr(obj.addr)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def chunked_spaces(self) -> List[Space]:
        return [s for s in self.spaces.values()
                if isinstance(s, (MatureSpace, LargeObjectSpace))]

    def describe(self) -> str:
        """Human-readable heap map (mirrors Figure 1)."""
        lines = [f"heap budget {self.heap_budget} B, "
                 f"committed {self.committed} B"]
        for name, space in self.spaces.items():
            lines.append(f"  {name:<14} -> node {space.node} "
                         f"({'DRAM' if space.in_dram else 'PCM'})")
        lines.append(f"  {self.freelist_lo!r}")
        lines.append(f"  {self.freelist_hi!r}")
        return "\n".join(lines)
