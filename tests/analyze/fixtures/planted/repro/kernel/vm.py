"""Planted probe-site violations; tests/analyze asserts H001.

The path mirrors ``src/repro/kernel/vm.py``: ``munmap`` fires neither of
its ``repro.probe.SITES`` sites, ``retag_range`` fires an unlisted one.
"""


class Kernel:
    def munmap(self, process: object, vaddr: int, length: int) -> None:
        self.munmap_calls += 1

    # Every registered Kernel counter except pages_migrated gets an
    # increment here — pages_migrated is the planted C002.
    def note_counters(self) -> None:
        self.mmap_calls += 1
        self.retag_calls += 1
        self.pages_mapped += 1
        self.pages_unmapped += 1
        self.page_faults += 1
        self.migration_writes += 1
        self.migration_cycles += 1

    def retag_range(self, process: object, vaddr: int) -> None:
        from repro.probe import PROBES

        if PROBES.on:
            PROBES.fire("kernel.retag", vaddr=vaddr)
