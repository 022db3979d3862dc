"""Access-engine registry and cross-engine equivalence.

The registry half pins resolution: names, the ``REPRO_ENGINE``
environment variable, precedence, and graceful degradation of the
optional C kernel.  The equivalence half is satellite coverage for the
differential fuzzer: the interpreted and compiled batch kernels agree
on raw kernel state when fed the same multi-slot run queues, the columnar state
matrices stay where the kernels bound them, and a fixed-seed 20k-op
fuzz run of the columnar engine against the per-line oracle passes
with zero divergences in tier-1 (not just in the nightly
``repro sanitize`` sweeps).
"""

import random
from array import array

import numpy as np
import pytest

from repro.machine import pykernel
from repro.machine.cache import CacheLevel
from repro.machine.colcache import ColumnarCacheLevel
from repro.machine.colengine import ColumnarCorePath
from repro.machine.engine import (
    DEFAULT_ENGINE,
    ENGINE_ENV,
    describe_engines,
    engine_names,
    resolve_engine,
)
from repro.machine.nativekernel import load_native_kernel


class TestRegistry:
    def test_registry_names(self):
        assert engine_names() == ("perline", "columnar")

    def test_default_engine(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        engine = resolve_engine()
        assert engine.name == DEFAULT_ENGINE == "columnar"
        assert engine.columnar
        assert engine.kernel_name in ("native", "python")

    def test_deleted_batched_engine_is_unknown(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "batched")
        with pytest.raises(ValueError, match="unknown engine 'batched'"):
            resolve_engine()

    def test_env_variable_selects_engine(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "columnar")
        assert resolve_engine().name == "columnar"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "columnar")
        assert resolve_engine("perline").name == "perline"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("vectorised")

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "warp-drive")
        with pytest.raises(ValueError, match="warp-drive"):
            resolve_engine()

    def test_describe_covers_every_engine(self):
        text = describe_engines()
        for name in engine_names():
            assert name in text

    def test_columnar_kernel_provenance(self):
        engine = resolve_engine("columnar")
        assert engine.columnar
        assert engine.kernel_name in ("native", "python")

    def test_cache_factories_follow_representation(self):
        assert isinstance(resolve_engine("columnar").make_cache(4096, 4),
                          ColumnarCacheLevel)
        oracle_cache = resolve_engine("perline").make_cache(4096, 4)
        assert isinstance(oracle_cache, CacheLevel)
        assert not isinstance(oracle_cache, ColumnarCacheLevel)

    def test_columnar_core_needs_columnar_llc(self):
        from repro.config import DEFAULT_LATENCY, DEFAULT_SCALE_CONFIG
        from repro.machine.topology import emulation_platform_spec

        machine = emulation_platform_spec(
            DEFAULT_SCALE_CONFIG, DEFAULT_LATENCY).build(engine="perline")
        engine = resolve_engine("columnar")
        with pytest.raises(TypeError):
            ColumnarCorePath(machine, machine.sockets[0], None,
                             engine.kernel)

    def test_paths_on_one_llc_share_private_geometry(self):
        from repro.machine.topology import emulation_platform_spec

        machine = emulation_platform_spec().build(engine="columnar")
        first = machine.make_core(0)
        engine = resolve_engine("columnar")
        odd = ColumnarCacheLevel(2 * first.private.size, first.private.assoc)
        with pytest.raises(ValueError, match="geometry"):
            ColumnarCorePath(machine, machine.sockets[0], odd, engine.kernel)
        # Another socket's LLC has its own queue.
        ColumnarCorePath(machine, machine.sockets[1], odd, engine.kernel)
        assert machine.make_core(0)._queue is first._queue


def _segments(rng, n_runs, n_slots):
    """Random (first_run, slot) pairs, flat: interleaved slots, slot 0
    coming back after another slot, and possibly empty segments."""
    n_segs = int(rng.integers(4, 10))
    slots = [0, 1, 0] + rng.integers(0, n_slots, size=n_segs - 3).tolist()
    # Sampled with replacement: equal starts make empty segments.
    starts = [0] + sorted(rng.integers(1, n_runs, size=n_segs - 1).tolist())
    flat = []
    for first_run, slot in zip(starts, slots):
        flat.extend((first_run, slot))
    return array("q", flat)


def _kernel_batch(rng, geometry, has_private, n_slots, n_runs=64):
    """One randomized queue: scalars, run columns, segment starts."""
    p_sets, p_ways, l_sets, l_ways = geometry
    node_shift = 12  # lines 0..8191 span two home nodes
    count = rng.integers(1, 33, size=n_runs).tolist()
    columns = (
        array("q", rng.integers(0, 8192, size=n_runs).tolist()),
        array("q", count),
        array("q", rng.integers(0, 2, size=n_runs).tolist()),
        _segments(rng, n_runs, n_slots),
    )
    scal = array("q", [n_runs, p_sets, p_ways, l_sets, l_ways, 10, 35,
                       len(columns[3]) // 2, 7, has_private, 0, 120, 190,
                       node_shift, n_slots])
    return scal, columns, 2 * sum(count) + 8


class _KernelSide:
    """One kernel's copy of every input it mutates: the per-slot
    private matrices, the LLC matrices, victims, out and slot_out."""

    def __init__(self, geometry, n_slots):
        p_sets, p_ways, l_sets, l_ways = geometry
        self.private = [(np.full(p_sets * p_ways, -1, dtype=np.int64),
                         np.zeros(p_sets * p_ways, dtype=np.uint8),
                         np.zeros(p_sets * p_ways, dtype=np.int64))
                        for _ in range(n_slots)]
        self.llc = (np.full(l_sets * l_ways, -1, dtype=np.int64),
                    np.zeros(l_sets * l_ways, dtype=np.uint8),
                    np.zeros(l_sets * l_ways, dtype=np.int64))
        # Stale values: both kernels must overwrite every output entry
        # except each slot's private clock, which is an input.
        self.out = array("q", [99] * pykernel.OUT_SIZE)
        self.slot_out = array("q", [99] * (pykernel.SLOT_SIZE * n_slots))
        for slot in range(n_slots):
            self.slot_out[slot * pykernel.SLOT_SIZE
                          + pykernel.SLOT_P_CLOCK] = 5 + 3 * slot
        self.victims = np.zeros(0, dtype=np.int64)

    def state(self):
        return [m for mats in self.private for m in mats] + list(self.llc)


def _address(buffer):
    if isinstance(buffer, array):
        return buffer.buffer_info()[0]
    return buffer.ctypes.data


@pytest.mark.skipif(load_native_kernel() is None,
                    reason="no host C compiler / cached kernel")
class TestNativeKernelDifferential:
    """The C kernel is the interpreted kernel, instruction for result,
    on multi-slot queues whose segments switch private caches."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_native_matches_python_kernel(self, seed):
        self._check(seed, (8, 4, 32, 4), has_private=1)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_native_matches_python_kernel_llc_only(self, seed):
        self._check(seed, (8, 4, 32, 4), has_private=0)

    def test_native_matches_python_kernel_16_way_clone(self):
        self._check(6, (4, 16, 16, 16), has_private=1)

    @staticmethod
    def _check(seed, geometry, has_private, n_slots=3):
        native = load_native_kernel()
        rng = np.random.default_rng(seed)
        c_side = _KernelSide(geometry, n_slots)
        py_side = _KernelSide(geometry, n_slots)
        if has_private:
            c_slots = array("q", [_address(m) for mats in c_side.private
                                  for m in mats])
            py_slots = [m for mats in py_side.private for m in mats]
        else:
            c_slots = array("q", [0] * (3 * n_slots))
            py_slots = [None] * (3 * n_slots)
        # Three batches in a row: the later ones start from the cache
        # state, the clocks and the stale outputs the earlier ones left.
        for _ in range(3):
            scal, columns, n_victims_max = _kernel_batch(
                rng, geometry, has_private, n_slots)
            for side in (c_side, py_side):
                side.victims = np.full(n_victims_max, -7, dtype=np.int64)
            native(_address(scal), *(_address(c) for c in columns),
                   _address(c_slots), *(_address(m) for m in c_side.llc),
                   _address(c_side.victims), _address(c_side.out),
                   _address(c_side.slot_out))
            pykernel.run_batch(scal, *columns, py_slots, *py_side.llc,
                               py_side.victims, py_side.out,
                               py_side.slot_out)
            assert c_side.out == py_side.out
            assert c_side.slot_out == py_side.slot_out
            n_victims = c_side.out[pykernel.OUT_N_VICTIMS]
            assert (c_side.victims[:n_victims]
                    == py_side.victims[:n_victims]).all()
            for c_mat, py_mat in zip(c_side.state(), py_side.state()):
                assert (c_mat == py_mat).all()
        assert c_side.out[pykernel.OUT_READS_BASE + 1] > 0  # remote runs
        size = pykernel.SLOT_SIZE
        cycles = [c_side.slot_out[slot * size + pykernel.SLOT_CYCLES]
                  for slot in range(n_slots)]
        assert cycles[0] > 0 and cycles[1] > 0
        if has_private:
            assert c_side.slot_out[pykernel.SLOT_P_HITS] \
                + c_side.slot_out[pykernel.SLOT_P_MISSES] > 0


class TestBoundStateStaysInPlace:
    """The C kernel holds each cache's matrix addresses for the cache's
    whole life, so nothing may replace the matrices."""

    @staticmethod
    def _addresses(cache):
        return (cache.tags.ctypes.data, cache.dirty.ctypes.data,
                cache.age.ctypes.data)

    def test_flush_keeps_matrices_in_place(self):
        cache = ColumnarCacheLevel(4096, 4)
        before = self._addresses(cache)
        for line in range(100):
            cache.access(line, line % 3 == 0)
        cache.flush()
        assert self._addresses(cache) == before == cache.addresses

    def test_full_drain_keeps_matrices_in_place(self):
        from repro.config import PAGE_SIZE
        from repro.kernel.vm import Kernel
        from repro.machine.topology import emulation_platform_spec

        machine = emulation_platform_spec().build(engine="columnar")
        kernel = Kernel(machine)
        process = kernel.create_process()
        kernel.mmap_bind(process, 0x40000, 8 * PAGE_SIZE, node_id=0)
        thread = process.spawn_thread()
        caches = [thread.core_path.private] + [s.llc
                                               for s in machine.sockets]
        before = [self._addresses(cache) for cache in caches]
        for round_index in range(3):
            thread.access(0x40000, 8 * PAGE_SIZE, round_index % 2 == 0)
            machine.flush_all([thread.core_path])
        assert [self._addresses(cache) for cache in caches] == before
        assert [cache.addresses for cache in caches] == before
        assert machine.nodes[0].write_lines > 0


class TestThreadSwitchesDoNotFlush:
    """Threads sharing an LLC share its one run queue: rotating between
    them opens segments, and only a sync point executes the queue."""

    PAGES = 16
    DRAM_BASE = 0x100000
    PCM_BASE = 0x200000

    def _trace(self):
        """(thread, vaddr, size, is_write): single lines and blocks."""
        from repro.config import PAGE_SIZE

        rng = random.Random(2024)
        span = self.PAGES * PAGE_SIZE
        ops = []
        for index in range(3000):
            size = rng.choice((8, 8, 32, 64, 200, 1024, 3 * PAGE_SIZE // 2))
            base = rng.choice((self.DRAM_BASE, self.PCM_BASE))
            # Mostly round-robin, sometimes the same thread again.
            tid = index % 4 if rng.random() < 0.8 else rng.randrange(4)
            ops.append((tid, base + rng.randrange(0, span - size, 8), size,
                        rng.random() < 0.4))
        return ops

    def _drive(self, engine, ops):
        from repro.config import PAGE_SIZE, ScaleConfig
        from repro.kernel.vm import Kernel
        from repro.machine.topology import emulation_platform_spec
        from repro.probe import PROBES

        # Small caches, so the trace evicts to both memory nodes.
        machine = emulation_platform_spec(ScaleConfig(scale=256)).build(
            engine=engine)
        kernel = Kernel(machine)
        process = kernel.create_process()
        kernel.mmap_bind(process, self.DRAM_BASE, self.PAGES * PAGE_SIZE,
                         node_id=0)
        kernel.mmap_bind(process, self.PCM_BASE, self.PAGES * PAGE_SIZE,
                         node_id=1)
        threads = [process.spawn_thread(socket_id=0) for _ in range(4)]
        flushes = []

        def count(site, ctx):
            if site == "machine.engine_flush":
                flushes.append(ctx["runs"])

        PROBES.subscribe(count)
        try:
            for tid, vaddr, size, is_write in ops:
                threads[tid].access(vaddr, size, is_write)
            machine.sync_engines()
        finally:
            PROBES.unsubscribe(count)
        state = {
            "cycles": [thread.cycles for thread in threads],
            "private": [self._stats(thread.core_path.private)
                        for thread in threads],
            "llc": [self._stats(socket.llc) for socket in machine.sockets],
            "nodes": [(node.read_lines, node.write_lines)
                      for node in machine.nodes],
            "qpi": machine.qpi_crossings,
        }
        return flushes, state

    @staticmethod
    def _stats(cache):
        stats = cache.stats
        return (stats.hits, stats.misses, stats.evictions,
                stats.dirty_evictions)

    def test_one_flush_and_oracle_counters(self):
        ops = self._trace()
        switches = sum(1 for prev, op in zip(ops, ops[1:])
                       if prev[0] != op[0])
        assert switches > 2000
        flushes, state = self._drive("columnar", ops)
        oracle_flushes, oracle = self._drive("perline", ops)
        assert oracle_flushes == []
        assert len(flushes) == 1
        assert state == oracle
        assert all(cycles > 0 for cycles in state["cycles"])
        assert all(writes > 0 for _, writes in state["nodes"])


class TestFixedSeedFuzzCrossCheck:
    """Tier-1 smoke of the full differential harness, engine matrix."""

    @pytest.mark.parametrize("engine", ["columnar"])
    def test_20k_ops_zero_divergence(self, engine):
        from repro.sanitize.fuzz import DifferentialFuzzer

        fuzzer = DifferentialFuzzer(ops=20_000, shrink=False,
                                    check_every=0, engine=engine,
                                    reference="perline")
        results = fuzzer.run(seed=1905, trials=1)
        assert len(results) == 1
        result = results[0]
        assert result.divergence is None
        assert result.violations == []
        assert result.ok


class TestSingleLinePath:
    """``ColumnarSimThread.access`` queues a touch inside one cache line
    without the page-run loop.  Each scenario runs under both engines
    and must leave identical per-thread cycles, private and LLC stats,
    node counters and QPI crossings."""

    DRAM_BASE = 0x100000
    PCM_BASE = 0x200000
    HOLE = 0x300000
    PAGES = 4

    def _drive(self, engine, scenario, placement="static"):
        from repro.config import PAGE_SIZE
        from repro.kernel.vm import Kernel
        from repro.machine.topology import emulation_platform_spec

        machine = emulation_platform_spec().build(engine=engine)
        kernel = Kernel(machine)
        process = kernel.create_process(placement=placement)
        kernel.mmap_bind(process, self.DRAM_BASE, self.PAGES * PAGE_SIZE,
                         node_id=0)
        kernel.mmap_bind(process, self.PCM_BASE, self.PAGES * PAGE_SIZE,
                         node_id=1)
        threads = [process.spawn_thread(socket_id=0) for _ in range(2)]
        scenario(kernel, process, threads)
        machine.flush_all([thread.core_path for thread in threads])
        return {
            "cycles": [thread.cycles for thread in threads],
            "private": [TestThreadSwitchesDoNotFlush._stats(
                thread.core_path.private) for thread in threads],
            "llc": [TestThreadSwitchesDoNotFlush._stats(socket.llc)
                    for socket in machine.sockets],
            "nodes": [(node.read_lines, node.write_lines)
                      for node in machine.nodes],
            "qpi": machine.qpi_crossings,
            "faults": kernel.page_faults,
            "mapped": kernel.pages_mapped,
        }

    def _check(self, scenario, placement="static"):
        state = self._drive("columnar", scenario, placement)
        assert state == self._drive("perline", scenario, placement)
        return state

    @staticmethod
    def _queued(thread):
        """The (base, count, write) runs queued on the thread's LLC."""
        queue = thread.core_path._queue
        return list(zip(queue.q_base, queue.q_count, queue.q_write))

    def test_every_offset_and_size(self):
        sizes = (1, 4, 8, 16)

        def scenario(kernel, process, threads):
            thread = threads[0]
            columnar = kernel.machine.engine.columnar
            for base in (self.DRAM_BASE, self.PCM_BASE):
                for offset in range(64):
                    for size in sizes:
                        vaddr = base + 64 * size + offset
                        before = self._queued(thread) if columnar else None
                        thread.access(vaddr, size, (offset + size) % 3 == 0)
                        if not columnar:
                            continue
                        lines = 1 if offset + size <= 64 else 2
                        # One run per touch; a straddling touch queues
                        # a two-line run, which only the run loop makes.
                        runs = self._queued(thread)
                        assert runs[:-1] == before
                        assert runs[-1][1] == lines

        state = self._check(scenario)
        assert all(writes > 0 for _, writes in state["nodes"])

    def test_thread_switch_between_single_line_touches(self):
        def scenario(kernel, process, threads):
            for index in range(24):
                thread = threads[index % 2]
                thread.access(self.DRAM_BASE + 8 * index, 8, index % 3 == 0)
                thread.access(self.PCM_BASE + 72 * index, 4, True)
            if kernel.machine.engine.columnar:
                # Each switch opened a segment; nothing has flushed.
                queue = threads[0].core_path._queue
                assert len(queue.q_seg) // 2 == 24
                assert len(queue.q_base) == 48

        state = self._check(scenario)
        assert all(cycles > 0 for cycles in state["cycles"])

    def test_lazy_first_touch_fault_is_serviced(self):
        def scenario(kernel, process, threads):
            thread = threads[0]
            thread.access(self.DRAM_BASE + 40, 8, True)  # faults in
            thread.access(self.DRAM_BASE + 48, 8, False)  # TLB hit
            thread.access(self.PCM_BASE + 100, 4, False)  # faults in
            assert kernel.page_faults == 2

        state = self._check(scenario, placement="first-touch")
        assert state["faults"] == state["mapped"] == 2

    def test_unmapped_hole_rolls_back(self):
        from repro.kernel.pagetable import PageFault

        def scenario(kernel, process, threads):
            thread, other = threads
            thread.access(self.DRAM_BASE, 8, True)
            other.access(self.DRAM_BASE + 64, 8, True)
            thread.access(self.DRAM_BASE + 128, 8, False)
            columnar = kernel.machine.engine.columnar
            queued = self._queued(thread) if columnar else None
            with pytest.raises(PageFault) as raised:
                thread.access(self.HOLE + 8, 8, True)
            assert raised.value.vaddr == self.HOLE  # the line's start
            if columnar:
                # Nothing of the faulting touch stays queued; what
                # was queued before it is untouched.
                assert len(queued) == 3
                assert self._queued(thread) == queued
            thread.access(self.DRAM_BASE + 192, 8, True)

        state = self._check(scenario)
        assert state["faults"] == 1

    def test_epoch_bump_invalidates_the_tlb(self):
        from repro.config import PAGE_SHIFT

        vpage = self.DRAM_BASE >> PAGE_SHIFT

        def scenario(kernel, process, threads):
            thread = threads[0]
            thread.access(self.DRAM_BASE + 8, 8, True)  # primes the TLB
            epoch = process.page_table.epoch
            kernel.migrate_page(process, vpage, 1)
            assert process.page_table.epoch > epoch
            # Same vpage: a stale TLB entry would write the old frame.
            thread.access(self.DRAM_BASE + 16, 8, True)
            thread.access(self.DRAM_BASE + 200, 8, True)

        self._check(scenario)
