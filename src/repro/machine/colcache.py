"""Columnar cache state: tag/dirty/age matrices instead of dicts.

:class:`ColumnarCacheLevel` is representation-for-representation what
:class:`repro.machine.cache.CacheLevel` keeps in its per-set ordered
dicts, laid out as three ``(num_sets, assoc)`` numpy matrices so batch
kernels (interpreted or C) can walk whole access runs without
touching a Python object per line:

* ``tags`` — int64 line tag per way, ``-1`` marking an invalid way;
* ``dirty`` — uint8 dirty bit per way;
* ``age`` — int64 LRU age per way, stamped from a per-level monotonic
  ``clock``.

The dict representation's LRU is CPython insertion order: hits pop and
re-insert at the back, evictions take the front.  Here every touch
stamps a *strictly increasing* clock value, so ascending age within a
set is exactly the dict's insertion order — LRU victim selection is
``argmin(age)`` with no ties to break, and flush/resident enumeration
(set-major, age-ascending) reproduces the dict engine's write-back
order bit for bit.  That equivalence is what keeps every counter
identical across engines, and the differential fuzzer holds it down.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.machine.cache import CacheLevel, CacheStats, validate_geometry


class ColumnarCacheLevel(CacheLevel):
    """One write-back, write-allocate LRU cache level, columnar layout.

    Drop-in for :class:`CacheLevel` (and a subclass, so every machine
    annotation covers both engines): same constructor contract with the
    same geometry validation, same methods, same counters.  Every
    state-touching method is overridden — the dict representation is
    never allocated — and scalar methods exist only for the cold paths
    (drain, flush, lookups); hot access runs go through batch kernels.
    """

    def __init__(self, size: int, assoc: int, line_size: int = 64,
                 name: str = "cache") -> None:
        # Deliberately does NOT chain to CacheLevel.__init__: the dict
        # representation is replaced wholesale by the matrices below.
        num_sets = validate_geometry(size, assoc, line_size, name)
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = num_sets
        self.stats = CacheStats()
        self.flushed_dirty = 0
        self.run_queue = None
        self.tags = np.full((num_sets, assoc), -1, dtype=np.int64)
        self.dirty = np.zeros((num_sets, assoc), dtype=np.uint8)
        self.age = np.zeros((num_sets, assoc), dtype=np.int64)
        #: Monotonic LRU clock; every touch stamps a unique age.
        self.clock = 0
        # The matrices are only ever mutated in place (``flush`` fills
        # them), so batch kernels bind these flat views and addresses
        # once, for the life of the cache.
        #: (tags, dirty, age) as flat views, for the interpreted kernel.
        self.flat = (self.tags.reshape(-1), self.dirty.reshape(-1),
                     self.age.reshape(-1))
        #: (tags, dirty, age) data addresses, for the C kernel.
        self.addresses = tuple(view.ctypes.data for view in self.flat)

    # ------------------------------------------------------------------
    # Scalar operations (cold paths; dict-engine semantics, verbatim)
    # ------------------------------------------------------------------
    def _find_way(self, set_index: int, tag: int) -> int:
        ways = np.nonzero(self.tags[set_index] == tag)[0]
        return int(ways[0]) if ways.size else -1

    def _victim_way(self, set_index: int) -> Tuple[int, bool]:
        """(way, evicted): a free way, or the LRU way if the set is full."""
        row = self.tags[set_index]
        free = np.nonzero(row == -1)[0]
        if free.size:
            return int(free[0]), False
        return int(np.argmin(self.age[set_index])), True

    def _stamp(self, set_index: int, way: int) -> None:
        self.age[set_index, way] = self.clock
        self.clock += 1

    def lookup(self, line: int) -> bool:
        """Return True if ``line`` is present, without touching LRU state."""
        return self._find_way(line % self.num_sets,
                              line // self.num_sets) >= 0

    def is_dirty(self, line: int) -> bool:
        """Return the dirty bit of ``line`` (False if absent)."""
        set_index = line % self.num_sets
        way = self._find_way(set_index, line // self.num_sets)
        return way >= 0 and bool(self.dirty[set_index, way])

    def access(self, line: int,
               is_write: bool) -> Tuple[bool, Optional[int], bool]:
        """Access one cache line; ``(hit, victim_line, victim_dirty)``."""
        set_index = line % self.num_sets
        tag = line // self.num_sets
        way = self._find_way(set_index, tag)
        stats = self.stats
        if way >= 0:
            if is_write:
                self.dirty[set_index, way] = 1
            self._stamp(set_index, way)
            stats.hits += 1
            return True, None, False
        stats.misses += 1
        way, evicted = self._victim_way(set_index)
        victim_line: Optional[int] = None
        victim_dirty = False
        if evicted:
            victim_dirty = bool(self.dirty[set_index, way])
            victim_line = int(self.tags[set_index, way]) * self.num_sets \
                + set_index
            stats.evictions += 1
            if victim_dirty:
                stats.dirty_evictions += 1
        self.tags[set_index, way] = tag
        self.dirty[set_index, way] = 1 if is_write else 0
        self._stamp(set_index, way)
        return False, victim_line, victim_dirty

    def install_dirty(self, line: int) -> Tuple[Optional[int], bool]:
        """Install ``line`` as dirty (incoming write-back from above)."""
        set_index = line % self.num_sets
        tag = line // self.num_sets
        way = self._find_way(set_index, tag)
        if way >= 0:
            self.dirty[set_index, way] = 1
            self._stamp(set_index, way)
            return None, False
        way, evicted = self._victim_way(set_index)
        victim_line: Optional[int] = None
        victim_dirty = False
        if evicted:
            victim_dirty = bool(self.dirty[set_index, way])
            victim_line = int(self.tags[set_index, way]) * self.num_sets \
                + set_index
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
        self.tags[set_index, way] = tag
        self.dirty[set_index, way] = 1
        self._stamp(set_index, way)
        return victim_line, victim_dirty

    # ------------------------------------------------------------------
    # Enumeration (set-major, age-ascending == dict insertion order)
    # ------------------------------------------------------------------
    def _ordered_ways(self, dirty_only: bool) -> List[int]:
        valid = self.tags.reshape(-1) != -1
        if dirty_only:
            valid &= self.dirty.reshape(-1) != 0
        sets = np.repeat(np.arange(self.num_sets, dtype=np.int64),
                         self.assoc)
        order = np.lexsort((self.age.reshape(-1), sets))
        order = order[valid[order]]
        lines = self.tags.reshape(-1)[order] * self.num_sets + sets[order]
        return lines.tolist()

    def flush(self) -> List[int]:
        """Write back and drop every line; return the dirty line addresses."""
        dirty_lines = self._ordered_ways(dirty_only=True)
        self.tags.fill(-1)
        self.dirty.fill(0)
        self.age.fill(0)
        self.flushed_dirty += len(dirty_lines)
        return dirty_lines

    def resident_lines(self) -> List[int]:
        """All line addresses currently cached (for tests/invariants)."""
        return self._ordered_ways(dirty_only=False)

    def set_occupancy(self) -> List[int]:
        """Valid-line count per set (the sanitizer's overflow law)."""
        return np.count_nonzero(self.tags != -1, axis=1).tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ColumnarCacheLevel({self.name}, {self.size}B, "
                f"{self.assoc}-way, {self.num_sets} sets)")
