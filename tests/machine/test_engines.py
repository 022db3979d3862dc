"""Access-engine registry and cross-engine equivalence.

The registry half pins resolution: names, the ``REPRO_ENGINE``
environment variable, precedence, and graceful degradation of the
optional backends (numba, the C compiler).  The equivalence half is
satellite coverage for the differential fuzzer: the interpreted and
compiled batch kernels agree on raw kernel state, and a fixed-seed
20k-op fuzz run of the columnar engine against the per-line oracle
passes with zero divergences in tier-1 (not just in the nightly
``repro sanitize`` sweeps).
"""

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
        assert engine_names() == ("perline", "batched", "columnar")

    def test_default_engine(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        engine = resolve_engine()
        assert engine.name == DEFAULT_ENGINE == "batched"
        assert not engine.columnar
        assert engine.kernel_name == "none"

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
        batched_cache = resolve_engine("batched").make_cache(4096, 4)
        assert isinstance(batched_cache, CacheLevel)
        assert not isinstance(batched_cache, ColumnarCacheLevel)

    def test_columnar_core_needs_columnar_llc(self):
        from repro.config import DEFAULT_LATENCY, DEFAULT_SCALE_CONFIG
        from repro.machine.topology import emulation_platform_spec

        machine = emulation_platform_spec(
            DEFAULT_SCALE_CONFIG, DEFAULT_LATENCY).build(engine="batched")
        engine = resolve_engine("columnar")
        with pytest.raises(TypeError):
            ColumnarCorePath(machine, machine.sockets[0], None,
                             engine.kernel)


def _kernel_inputs(seed, n_runs=64):
    """One randomized batch: scalars, runs, and fresh cache matrices."""
    rng = np.random.default_rng(seed)
    p_sets, p_ways = 8, 4
    l_sets, l_ways = 32, 4
    base = rng.integers(0, 4096, size=n_runs, dtype=np.int64)
    count = rng.integers(1, 33, size=n_runs, dtype=np.int64)
    runs = np.empty(n_runs * 6, dtype=np.int64)
    runs[0::6] = base
    runs[1::6] = count
    runs[2::6] = rng.integers(0, 2, size=n_runs, dtype=np.int64)
    runs[3::6] = 120
    runs[4::6] = rng.integers(0, 2, size=n_runs, dtype=np.int64)
    runs[5::6] = runs[4::6]
    scal = np.array([n_runs, p_sets, p_ways, l_sets, l_ways,
                     10, 35, 0, 0, 1], dtype=np.int64)
    state = {
        "pt": np.full(p_sets * p_ways, -1, dtype=np.int64),
        "pd": np.zeros(p_sets * p_ways, dtype=np.uint8),
        "pa": np.zeros(p_sets * p_ways, dtype=np.int64),
        "lt": np.full(l_sets * l_ways, -1, dtype=np.int64),
        "ld": np.zeros(l_sets * l_ways, dtype=np.uint8),
        "la": np.zeros(l_sets * l_ways, dtype=np.int64),
    }
    victims = np.empty(2 * int(count.sum()) + 8, dtype=np.int64)
    out = np.zeros(pykernel.OUT_SIZE, dtype=np.int64)
    return scal, runs, state, victims, out


@pytest.mark.skipif(load_native_kernel() is None,
                    reason="no host C compiler / cached kernel")
class TestNativeKernelDifferential:
    """The C kernel is the interpreted kernel, instruction for result."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_native_matches_python_kernel(self, seed):
        native = load_native_kernel()
        scal, runs, state, victims, out = _kernel_inputs(seed)
        py_state = {k: v.copy() for k, v in state.items()}
        py_victims = victims.copy()
        py_out = out.copy()
        native(scal, runs, state["pt"], state["pd"], state["pa"],
               state["lt"], state["ld"], state["la"], victims, out)
        pykernel.run_batch(scal.copy(), runs, py_state["pt"],
                           py_state["pd"], py_state["pa"], py_state["lt"],
                           py_state["ld"], py_state["la"], py_victims,
                           py_out)
        assert (out == py_out).all()
        n_victims = int(out[pykernel.OUT_N_VICTIMS])
        assert (victims[:n_victims] == py_victims[:n_victims]).all()
        for key in state:
            assert (state[key] == py_state[key]).all(), key


class TestFixedSeedFuzzCrossCheck:
    """Tier-1 smoke of the full differential harness, engine matrix."""

    @pytest.mark.parametrize("engine", ["batched", "columnar"])
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
