"""End-to-end write attribution: per-phase deltas conserve globals.

The acceptance bar for the profiler: run a deterministic workload with
attribution on and check that the per-phase attributed counters sum to
the platform's global counters **bit-identically** — no sampling slop,
no missing phases.  The ``attribution_conservation`` SANITIZE law
enforces the same equality inside ``platform.run``; here it is pinned
from the outside against the MeasurementResult the caller sees.
"""

import pytest

from repro.core.platform import EmulationMode, HybridMemoryPlatform
from repro.observability.profile import (
    PROFILE_SCHEMA,
    PROFILER,
    attributed_total,
    parse_folded,
    to_chrome_trace,
    to_folded,
)
from repro.observability.trace import TRACER
from repro.workloads.base import BenchmarkApp


class ChurnApp(BenchmarkApp):
    """Deterministic allocation churn: enough garbage to force minor
    GCs, with a rooted survivor table so collections actually copy."""

    SLOTS = 64

    def __init__(self, index):
        super().__init__("churn", heap_budget=2 * 1024 * 1024,
                         nursery_size=64 * 1024, app_threads=2)
        self.table = None

    def setup(self, ctx):
        self.table = ctx.alloc(16, self.SLOTS)
        ctx.add_root(self.table)

    def iteration(self, ctx):
        for step in range(768):
            obj = ctx.alloc(512, 2)
            ctx.write_scalar(obj, 0)
            if step % 3 == 0:
                # Rooted survivors: these live across the next minor
                # GC, so gc.trace/gc.promote move real bytes.
                ctx.write_ref(self.table, step % self.SLOTS, obj)
            if step % 16 == 0:
                yield
        yield


@pytest.fixture(autouse=True)
def observability_off_after():
    yield
    PROFILER.disable()
    TRACER.disable()
    TRACER.boundary = None
    TRACER.clear()


def profiled_run(enable_trace=True, engine=None):
    TRACER.clear()
    if enable_trace:
        TRACER.enable()
    PROFILER.enable()
    # A tiny LLC so stores spill to the memory nodes instead of living
    # in cache for the whole run — attribution needs memory traffic.
    platform = HybridMemoryPlatform(mode=EmulationMode.EMULATION,
                                    llc_size_override=32 * 1024,
                                    engine=engine)
    try:
        result = platform.run(lambda index: ChurnApp(index),
                              collector="KG-W", instances=1)
    finally:
        PROFILER.disable()
        TRACER.disable()
    return result


class TestConservation:
    def test_attributed_writes_sum_to_globals_bit_identically(self):
        result = profiled_run()
        profile = result.profile
        assert profile is not None
        assert profile["schema"] == PROFILE_SCHEMA
        assert attributed_total(profile, "pcm.writes") == \
            result.pcm_write_lines
        assert attributed_total(profile, "dram.writes") == \
            result.dram_write_lines
        assert attributed_total(profile, "qpi.crossings") == \
            result.qpi_crossings

    def test_deterministic_across_runs(self):
        first = profiled_run()
        second = profiled_run()
        assert first.profile["self"] == second.profile["self"]

    def test_self_buckets_identical_across_engines(self):
        """The columnar engine defers lines in queues; every span
        boundary must land them, or they are charged to a later phase
        than the per-line oracle charges them to."""
        oracle = profiled_run(engine="perline")
        columnar = profiled_run(engine="columnar")
        assert columnar.profile["self"] == oracle.profile["self"]

    def test_phase_tree_covers_gc_and_mutator(self):
        result = profiled_run()
        paths = set(result.profile["self"])
        assert "run" in paths
        assert "run/mutator" in paths
        assert any(path.startswith("run/mutator/gc.minor")
                   for path in paths), paths

    def test_gc_phases_attract_writes(self):
        """The paper's point: GC phases are a visible write source."""
        result = profiled_run()
        gc_writes = sum(
            bucket.get("dram.writes", 0) + bucket.get("pcm.writes", 0)
            for path, bucket in result.profile["self"].items()
            if "/gc." in path)
        assert gc_writes > 0

    def test_profile_off_leaves_result_unprofiled(self):
        platform = HybridMemoryPlatform(mode=EmulationMode.EMULATION)
        result = platform.run(lambda index: ChurnApp(index),
                              collector="KG-W", instances=1)
        assert result.profile is None
        assert TRACER.depth() == 0

    def test_attribution_without_tracing(self):
        """Profiling alone (no span records) still conserves."""
        result = profiled_run(enable_trace=False)
        profile = result.profile
        assert profile["spans"] == []
        assert attributed_total(profile, "pcm.writes") == \
            result.pcm_write_lines

    def test_exporters_accept_real_artifact(self):
        result = profiled_run()
        trace = to_chrome_trace(result.profile)
        assert all(key in event for event in trace["traceEvents"]
                   for key in ("ph", "ts", "dur", "pid", "tid", "name"))
        folded = to_folded(result.profile, counter="dram.writes")
        stacks = parse_folded(folded)
        assert sum(stacks.values()) == \
            attributed_total(result.profile, "dram.writes")

    def test_sanitize_law_holds_on_a_real_run(self):
        """The in-run conservation check flags nothing on a clean run."""
        from repro.sanitize import SANITIZE

        TRACER.clear()
        PROFILER.enable()
        platform = HybridMemoryPlatform(mode=EmulationMode.EMULATION)
        try:
            with SANITIZE.installed(strict=False) as checker:
                platform.run(lambda index: ChurnApp(index),
                             collector="KG-W", instances=1)
        finally:
            PROFILER.disable()
        conservation = [v for v in checker.violations
                        if v.law == "attribution_conservation"]
        assert conservation == []
