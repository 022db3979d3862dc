"""The Kingsguard write-rationing collectors (KG-N, KG-B, KG-W).

Kingsguard-nursery (KG-N) simply places the nursery in DRAM: the
mutator's high nursery write rate then never reaches PCM.  KG-B is KG-N
with a 3x nursery.  Kingsguard-writers (KG-W) additionally monitors
nursery survivors in a DRAM observer space; at observer collections,
objects written at least once tenure to DRAM mature and unwritten ones
to PCM mature — past writes being a good predictor of future writes.
KG-W also migrates heavily-written PCM large objects to the DRAM large
space during full collections, and (with MDO) keeps PCM objects' mark
metadata in DRAM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.collectors.base import Collector
from repro.probe import PROBES
from repro.runtime.objectmodel import Obj

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.jvm import JavaVM
    from repro.runtime.spaces import Space


class KingsguardCollector(Collector):
    """KG-N / KG-B / KG-W, selected by the attached configuration."""

    def nursery_promotion_target(self, vm: "JavaVM", obj: Obj) -> "Space":
        if self.config.has_observer:
            return vm.heap.space("observer")
        return vm.heap.space("mature.pcm")

    def post_full_collection(self, vm: "JavaVM") -> None:
        """KG-W: move written large objects from PCM to DRAM (LOO/KG-W).

        The collector copies highly written large objects from PCM to
        DRAM during a mature collection (Section II-B).
        """
        if not self.config.dram_los:
            return
        heap = vm.heap
        los_pcm = heap.space("large.pcm")
        los_dram = heap.space("large.dram")
        for obj in [o for o in los_pcm.objects
                    if o.write_count >= self.LARGE_MIGRATION_WRITES]:
            old_addr = obj.addr
            thread = vm.gc_thread()
            thread.access_block(old_addr, obj.size, False)
            if not los_dram.adopt(obj):
                continue  # DRAM large space full; leave the rest in PCM
            los_pcm.release_object(obj, at_addr=old_addr)
            thread.access_block(obj.addr, obj.size, True)
            obj.write_count = 0
            vm.stats.large_migrations += 1
            vm.stats.bytes_copied += obj.size
            if PROBES.on:
                PROBES.event("gc.large_migration",
                             collector=self.config.name, bytes=obj.size)
