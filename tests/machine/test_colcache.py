"""Columnar cache level: representation parity with the dict engine.

``ColumnarCacheLevel`` re-encodes ``CacheLevel``'s per-set ordered
dicts as tag/dirty/age matrices; these tests hold the two
representations together operation by operation — same geometry
validation, same hit/miss/eviction decisions, same LRU victim under
ties and re-touches, same flush and resident enumeration order — so the
batch kernels built on the columnar state inherit a proven foundation.
"""

import random
from array import array

import numpy as np
import pytest

from repro.machine import pykernel
from repro.machine.cache import CacheLevel
from repro.machine.colcache import ColumnarCacheLevel

BOTH = (CacheLevel, ColumnarCacheLevel)


class TestGeometryGuards:
    """Degenerate geometries fail identically in both constructors."""

    @pytest.mark.parametrize("cls", BOTH)
    @pytest.mark.parametrize("size,assoc,line_size", [
        (0, 4, 64),          # zero size
        (-4096, 4, 64),      # negative size
        (4096, 0, 64),       # zero ways
        (4096, -2, 64),      # negative ways
        (4096, 4, 0),        # zero line size
        (4100, 4, 64),       # size not a multiple of line_size
        (4096, 3, 64),       # lines not divisible by assoc
        (64, 2, 64),         # one line cannot make a 2-way set
    ])
    def test_bad_geometry_raises_value_error(self, cls, size, assoc,
                                             line_size):
        with pytest.raises(ValueError):
            cls(size, assoc, line_size=line_size, name="guard")

    @pytest.mark.parametrize("cls", BOTH)
    def test_error_names_the_cache(self, cls):
        with pytest.raises(ValueError, match="victim-l2"):
            cls(0, 4, name="victim-l2")

    def test_valid_geometry_matches(self):
        dict_cache = CacheLevel(8192, 4)
        col_cache = ColumnarCacheLevel(8192, 4)
        assert col_cache.num_sets == dict_cache.num_sets == 32
        assert col_cache.assoc == dict_cache.assoc == 4


def _stats_tuple(cache):
    return (cache.stats.hits, cache.stats.misses, cache.stats.evictions,
            cache.stats.dirty_evictions, cache.flushed_dirty)


class TestScalarParity:
    """Randomized op-by-op lockstep against the dict representation."""

    def test_access_and_install_lockstep(self):
        rng = random.Random(1234)
        dict_cache = CacheLevel(4096, 4, name="L")
        col_cache = ColumnarCacheLevel(4096, 4, name="L")
        for step in range(4000):
            line = rng.randrange(0, 256)
            op = rng.random()
            if op < 0.75:
                is_write = rng.random() < 0.5
                expect = dict_cache.access(line, is_write)
                got = col_cache.access(line, is_write)
            else:
                expect = dict_cache.install_dirty(line)
                got = col_cache.install_dirty(line)
            assert got == expect, f"step {step}: {got} != {expect}"
            assert _stats_tuple(col_cache) == _stats_tuple(dict_cache)

    def test_lookup_and_is_dirty_parity(self):
        dict_cache = CacheLevel(2048, 2)
        col_cache = ColumnarCacheLevel(2048, 2)
        rng = random.Random(99)
        for _ in range(1000):
            line = rng.randrange(0, 128)
            is_write = rng.random() < 0.5
            dict_cache.access(line, is_write)
            col_cache.access(line, is_write)
        for line in range(128):
            assert col_cache.lookup(line) == dict_cache.lookup(line)
            assert col_cache.is_dirty(line) == dict_cache.is_dirty(line)

    def test_kernel_run_matches_scalar_loop(self):
        """An LLC-only batch-kernel run is the scalar access loop."""
        scalar = ColumnarCacheLevel(4096, 4)
        kernel = ColumnarCacheLevel(4096, 4)
        rng = random.Random(7)
        victims = np.zeros(2 * 40 + 8, dtype=np.int64)
        out = array("q", [0] * pykernel.OUT_SIZE)
        slot_out = array("q", [0] * pykernel.SLOT_SIZE)
        for _ in range(200):
            first = rng.randrange(0, 200)
            count = rng.randrange(1, 40)
            is_write = rng.random() < 0.5
            expected_victims = []
            for line in range(first, first + count):
                _, victim, victim_dirty = scalar.access(line, is_write)
                if victim_dirty:
                    expected_victims.append(victim)
            scal = array("q", [1, 1, 1, kernel.num_sets, kernel.assoc,
                               0, 0, 1, kernel.clock, 0, 0, 0, 0, 40, 1])
            pykernel.run_batch(scal, array("q", [first]),
                               array("q", [count]),
                               array("q", [1 if is_write else 0]),
                               array("q", [0, 0]), [None, None, None],
                               *kernel.flat, victims, out, slot_out)
            kernel.clock = out[pykernel.OUT_L_CLOCK]
            stats = kernel.stats
            stats.hits += out[pykernel.OUT_L_HITS]
            stats.misses += out[pykernel.OUT_L_MISSES]
            stats.evictions += out[pykernel.OUT_L_EVICTIONS]
            stats.dirty_evictions += out[pykernel.OUT_L_DIRTY]
            n_victims = out[pykernel.OUT_N_VICTIMS]
            assert victims[:n_victims].tolist() == expected_victims
            assert _stats_tuple(kernel) == _stats_tuple(scalar)
        assert kernel.resident_lines() == scalar.resident_lines()


class TestLruOrderAudit:
    """The audits behind the engine bug burn-down.

    The dict engine's LRU is CPython dict insertion order; the columnar
    engine's is strictly-increasing age stamps.  These pin the two
    corner cases where a sloppy port diverges: victim choice after a
    re-touch reorders the set, and the order dirty victims leave in.
    """

    @pytest.mark.parametrize("cls", BOTH)
    def test_retouch_moves_line_to_mru(self, cls):
        # 1 set, 2 ways: lines 0 and 1 fill it; re-touching 0 must make
        # 1 the LRU victim when 2 arrives.
        cache = cls(128, 2)
        cache.access(0, False)
        cache.access(1, False)
        cache.access(0, False)  # re-touch: 0 becomes MRU
        hit, victim, _ = cache.access(2, False)
        assert not hit
        assert victim == 1

    @pytest.mark.parametrize("cls", BOTH)
    def test_install_dirty_also_touches_lru(self, cls):
        cache = cls(128, 2)
        cache.access(0, False)
        cache.access(1, False)
        cache.install_dirty(0)  # write-back arrival counts as a touch
        _, victim, victim_dirty = cache.access(2, False)
        assert victim == 1
        assert not victim_dirty

    def test_flush_order_is_set_major_insertion_order(self):
        rng = random.Random(5)
        dict_cache = CacheLevel(4096, 4)
        col_cache = ColumnarCacheLevel(4096, 4)
        for _ in range(2000):
            line = rng.randrange(0, 300)
            is_write = rng.random() < 0.6
            dict_cache.access(line, is_write)
            col_cache.access(line, is_write)
        assert col_cache.resident_lines() == dict_cache.resident_lines()
        # Flush order *is* the dirty write-back order the memory nodes
        # see, so it must match element for element, not as a set.
        assert col_cache.flush() == dict_cache.flush()
        assert col_cache.flushed_dirty == dict_cache.flushed_dirty
        assert col_cache.resident_lines() == dict_cache.resident_lines() == []

    def test_set_occupancy_parity(self):
        rng = random.Random(31)
        dict_cache = CacheLevel(2048, 2)
        col_cache = ColumnarCacheLevel(2048, 2)
        for _ in range(500):
            line = rng.randrange(0, 90)
            dict_cache.access(line, False)
            col_cache.access(line, False)
        assert col_cache.set_occupancy() == dict_cache.set_occupancy()
