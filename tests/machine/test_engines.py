"""Access-engine registry and cross-engine equivalence.

The registry half pins resolution: names, the ``REPRO_ENGINE``
environment variable, precedence, and graceful degradation of the
optional C kernel.  The equivalence half is satellite coverage for the
differential fuzzer: the interpreted and compiled batch kernels agree
on raw kernel state when fed the same run queues, the columnar state
matrices stay where the kernels bound them, and a fixed-seed 20k-op
fuzz run of the columnar engine against the per-line oracle passes
with zero divergences in tier-1 (not just in the nightly
``repro sanitize`` sweeps).
"""

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


def _kernel_inputs(seed, n_runs=64, has_private=1):
    """One randomized batch: scalars, run queues, fresh cache matrices."""
    rng = np.random.default_rng(seed)
    p_sets, p_ways = 8, 4
    l_sets, l_ways = 32, 4
    node_shift = 12  # lines 0..8191 span two home nodes
    count = rng.integers(1, 33, size=n_runs).tolist()
    queues = {
        "q_base": array("q", rng.integers(0, 8192, size=n_runs).tolist()),
        "q_count": array("q", count),
        "q_write": array("q", rng.integers(0, 2, size=n_runs).tolist()),
    }
    scal = array("q", [n_runs, p_sets, p_ways, l_sets, l_ways, 10, 35,
                       5, 7, has_private, 0, 120, 190, node_shift])
    state = {
        "pt": np.full(p_sets * p_ways, -1, dtype=np.int64),
        "pd": np.zeros(p_sets * p_ways, dtype=np.uint8),
        "pa": np.zeros(p_sets * p_ways, dtype=np.int64),
        "lt": np.full(l_sets * l_ways, -1, dtype=np.int64),
        "ld": np.zeros(l_sets * l_ways, dtype=np.uint8),
        "la": np.zeros(l_sets * l_ways, dtype=np.int64),
    }
    victims = np.zeros(2 * sum(count) + 8, dtype=np.int64)
    # Stale values: both kernels must overwrite every out slot.
    out = array("q", [99] * pykernel.OUT_SIZE)
    return scal, queues, state, victims, out


def _address(buffer):
    if isinstance(buffer, array):
        return buffer.buffer_info()[0]
    return buffer.ctypes.data


@pytest.mark.skipif(load_native_kernel() is None,
                    reason="no host C compiler / cached kernel")
class TestNativeKernelDifferential:
    """The C kernel is the interpreted kernel, instruction for result."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_native_matches_python_kernel(self, seed):
        self._check(seed, has_private=1)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_native_matches_python_kernel_llc_only(self, seed):
        self._check(seed, has_private=0)

    @staticmethod
    def _check(seed, has_private):
        native = load_native_kernel()
        scal, queues, state, victims, out = _kernel_inputs(
            seed, has_private=has_private)
        py_state = {k: v.copy() for k, v in state.items()}
        py_victims = victims.copy()
        py_out = array("q", out)
        order = ("q_base", "q_count", "q_write")
        native(_address(scal), *(_address(queues[k]) for k in order),
               *(_address(state[k]) for k in ("pt", "pd", "pa",
                                               "lt", "ld", "la")),
               _address(victims), _address(out))
        pykernel.run_batch(scal, *(queues[k] for k in order),
                           py_state["pt"], py_state["pd"], py_state["pa"],
                           py_state["lt"], py_state["ld"], py_state["la"],
                           py_victims, py_out)
        assert out == py_out
        assert out[pykernel.OUT_READS_BASE + 1] > 0  # remote runs seen
        n_victims = out[pykernel.OUT_N_VICTIMS]
        assert (victims[:n_victims] == py_victims[:n_victims]).all()
        for key in state:
            assert (state[key] == py_state[key]).all(), key


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
