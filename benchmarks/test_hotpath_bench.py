"""Hot-path engine gate: the access-engine matrix, speed + identity.

The columnar engine (numpy state matrices plus C batch kernels) exists
purely to make the simulator faster; it must not change a single
simulated counter.  This gate drives identical access traces through
both engines on identically built machines and asserts the full
architectural state — per-node read/write lines, per-tag write
attribution, every thread's private-cache stats and cycles, LLC stats
and QPI crossings — comes out *bit-identical* to the per-line oracle,
while the columnar engine clears its speed floor.  The
``thread_switch`` scenario rotates four threads on one socket every
op, so it gates the shared per-LLC run queue: a thread switch must not
cost a flush.

Results land in ``BENCH_hotpath.json`` at the repo root (uploaded as a
CI artifact).  The headline number is the columnar engine on the
L2-resident hot-page scenario: it isolates raw engine overhead the way
lmbench isolates syscall cost.  Every speedup is a within-run ratio
(oracle and candidate timed back to back in the same process) because
absolute wall times on shared CI runners are too noisy to gate on.

Floor: a flat 10x on every scenario, enforced when the compiled C
kernel is available (the interpreted fallback stays counter-identical
but is not speed-gated).
"""

import json
import os
import random
import time

import pytest

from repro.config import DEFAULT_LATENCY, DEFAULT_SCALE_CONFIG, PAGE_SIZE
from repro.core.platform import EmulationMode, HybridMemoryPlatform
from repro.kernel.vm import Kernel
from repro.machine.engine import resolve_engine
from repro.machine.topology import (
    DRAM_NODE,
    PCM_NODE,
    emulation_platform_spec,
)
from repro.workloads.registry import benchmark_factory

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_hotpath.json")

BASE = 0x100000
#: Pages mapped per node for the microbenchmark traces.
PAGES_PER_NODE = 512

#: The columnar engine's flat floor, every scenario, when the compiled
#: C kernel is loaded.
COLUMNAR_FLOOR = 10.0

#: Conservative CI floor for the headline (columnar hot_page) number.
HEADLINE_FLOOR = COLUMNAR_FLOOR


# ----------------------------------------------------------------------
# Trace construction (deterministic, seeded)
# ----------------------------------------------------------------------
def _trace_hot_page():
    """L2-resident page re-touches: raw engine overhead dominates.

    One whole-page block per op, the shape of the JVM's zero-on-alloc
    and copy loops; every line hits the private cache, so the timing
    isolates per-line Python overhead rather than simulated misses.
    """
    ops = []
    for index in range(2_500):
        ops.append((BASE, PAGE_SIZE, index % 2 == 0))
    return ops

def _trace_llc_set():
    """LLC-resident blocks: working set spills L2 but fits the LLC."""
    rng = random.Random(23)
    span = 48 * PAGE_SIZE  # 192 KB: > 4 KB L2, < 320 KB LLC
    ops = []
    for _ in range(4_000):
        size = rng.choice((512, 1024, 2048, 4096))
        offset = rng.randrange(0, span - size, 64)
        ops.append((BASE + offset, size, rng.random() < 0.4))
    return ops

def _trace_stream():
    """Streaming writes across both nodes: miss/write-back dominated."""
    ops = []
    span = 2 * PAGES_PER_NODE * PAGE_SIZE
    for index in range(1_500):
        addr = BASE + (index * 4096) % (span - 4096)
        ops.append((addr, 4096, True))
    return ops

def _trace_mixed():
    """Random sizes and nodes: the GC/mutator blend."""
    rng = random.Random(47)
    span = 2 * PAGES_PER_NODE * PAGE_SIZE
    ops = []
    for _ in range(12_000):
        size = rng.choice((4, 8, 64, 256, 512, 2048))
        addr = BASE + rng.randrange(0, span - size, 8)
        ops.append((addr, size, rng.random() < 0.5))
    return ops


#: Threads sharing socket 0 in the thread_switch scenario.
SWITCH_THREADS = 4


def _trace_thread_switch():
    """Four threads on one socket, a different thread every op.

    The DaCapo profiles' small object sizes, plus page-sized large
    objects and copy blocks; half the ops bump-allocate in the issuing
    thread's own quarter of the span, half touch a random address.
    Every op switches thread, so every op changes the core path that
    feeds the socket's shared LLC.
    """
    rng = random.Random(59)
    quarter = 2 * PAGES_PER_NODE * PAGE_SIZE // SWITCH_THREADS
    bumps = [BASE + tid * quarter for tid in range(SWITCH_THREADS)]
    ops = []
    for index in range(12_000):
        tid = index % SWITCH_THREADS
        size = rng.choice((16, 24, 32, 48, 64, 96, 2048, 4096))
        if rng.random() < 0.5:
            if bumps[tid] + size > BASE + (tid + 1) * quarter:
                bumps[tid] = BASE + tid * quarter
            ops.append((bumps[tid], size, True))
            bumps[tid] += size
        else:
            addr = BASE + rng.randrange(0, SWITCH_THREADS * quarter - size,
                                        8)
            ops.append((addr, size, rng.random() < 0.3))
    return ops


#: (name, trace builder, threads); op ``i`` runs on thread ``i % threads``.
SCENARIOS = [
    ("hot_page", _trace_hot_page, 1),
    ("llc_set", _trace_llc_set, 1),
    ("stream", _trace_stream, 1),
    ("mixed", _trace_mixed, 1),
    ("thread_switch", _trace_thread_switch, SWITCH_THREADS),
]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _fresh_threads(engine, count):
    """``count`` socket-0 threads over PAGES_PER_NODE pages on DRAM
    then PCM."""
    machine = emulation_platform_spec(
        DEFAULT_SCALE_CONFIG, DEFAULT_LATENCY).build(engine=engine)
    kernel = Kernel(machine)
    process = kernel.create_process(affinity_socket=0)
    length = PAGES_PER_NODE * PAGE_SIZE
    kernel.mmap_bind(process, BASE, length, node_id=DRAM_NODE, tag="dram")
    kernel.mmap_bind(process, BASE + length, length, node_id=PCM_NODE,
                     tag="pcm")
    return machine, [process.spawn_thread() for _ in range(count)]


def _snapshot(machine, threads):
    """Every simulated counter the engines could possibly disagree on."""
    machine.flush_all([thread.core_path for thread in threads])
    privates = [thread.core_path.private for thread in threads]
    return {
        "nodes": [(node.read_lines, node.write_lines,
                   dict(node.writes_by_tag)) for node in machine.nodes],
        "llc": [(s.llc.stats.hits, s.llc.stats.misses, s.llc.stats.evictions,
                 s.llc.stats.dirty_evictions) for s in machine.sockets],
        "private": [(private.stats.hits, private.stats.misses,
                     private.stats.evictions, private.stats.dirty_evictions)
                    if private is not None else None
                    for private in privates],
        "qpi": machine.qpi_crossings,
        "cycles": [thread.cycles for thread in threads],
        "page_faults": threads[0].process.kernel.page_faults,
    }


def _drive(ops, engine, threads=1, repeats=3):
    """Best-of-N wall time plus the end-state snapshot for one engine.

    The machine is built fresh per repeat with ``engine`` selected at
    build time, and the trace always goes through ``thread.access`` —
    engine dispatch happens where production runs dispatch it, in
    ``Process.spawn_thread``, not via a method override here.
    """
    best = float("inf")
    snapshot = None
    for _ in range(repeats):
        machine, thread_list = _fresh_threads(engine, threads)
        if threads == 1:
            access = thread_list[0].access
            start = time.perf_counter()
            for vaddr, size, is_write in ops:
                access(vaddr, size, is_write)
        else:
            accesses = [thread.access for thread in thread_list]
            start = time.perf_counter()
            for index, (vaddr, size, is_write) in enumerate(ops):
                accesses[index % threads](vaddr, size, is_write)
        best = min(best, time.perf_counter() - start)
        # The snapshot flushes any deferred queue outside the timed
        # region; the bulk of the columnar flush cost was already paid
        # by threshold flushes inside the loop.
        snapshot = _snapshot(machine, thread_list)
    return best, snapshot


def _columnar_is_native():
    return resolve_engine("columnar").kernel_name == "native"


def test_engine_matrix_identical_and_faster():
    """The gate: bit-identical counters per engine, recorded speedups."""
    engines = ["columnar"]
    report = {
        "benchmark": "hotpath",
        "headline_scenario": "hot_page",
        "headline_engine": "columnar",
        "headline_floor": HEADLINE_FLOOR,
        "engines": {
            "reference": "perline",
            "measured": engines,
            "columnar_kernel": resolve_engine("columnar").kernel_name,
        },
        "scenarios": {},
    }
    for name, build_trace, threads in SCENARIOS:
        ops = build_trace()
        baseline_seconds, oracle_state = _drive(ops, "perline", threads)
        lines = sum((vaddr + size - 1) // 64 - vaddr // 64 + 1
                    for vaddr, size, _ in ops)
        entry = {
            "ops": len(ops),
            "threads": threads,
            "lines": lines,
            "per_line_seconds": round(baseline_seconds, 6),
            "per_line_us_per_line": round(baseline_seconds / lines * 1e6, 4),
        }
        for engine in engines:
            engine_seconds, engine_state = _drive(ops, engine, threads)
            assert engine_state == oracle_state, (
                f"{name}: {engine} engine diverged from the per-line "
                f"oracle")
            entry[engine] = {
                "seconds": round(engine_seconds, 6),
                "us_per_line": round(engine_seconds / lines * 1e6, 4),
                "speedup": round(baseline_seconds / engine_seconds, 3),
                "identical_counters": True,
            }
        entry["columnar"]["floor"] = COLUMNAR_FLOOR
        report["scenarios"][name] = entry
    headline = report["scenarios"]["hot_page"]["columnar"]["speedup"]
    report["headline_speedup"] = headline
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    speed_gate_columnar = _columnar_is_native()
    for name, entry in report["scenarios"].items():
        columnar = entry["columnar"]["speedup"]
        if speed_gate_columnar:
            assert columnar >= COLUMNAR_FLOOR, (
                f"{name}: columnar speedup {columnar:.2f}x below the "
                f"{COLUMNAR_FLOOR}x floor")
        else:
            assert columnar > 0, name  # identity still proven above


def _run_fop(engine):
    """One full platform run on the given access engine."""
    platform = HybridMemoryPlatform(mode=EmulationMode.EMULATION,
                                    engine=engine)
    factory = benchmark_factory("fop")

    def make_app(index):
        return factory(index, dataset="default")

    return platform.run(make_app, collector="KG-W", instances=1)


@pytest.mark.parametrize("engine", ["columnar"])
def test_platform_results_identical_to_per_line_engine(engine):
    """End-to-end: a whole measured run matches the per-line oracle."""
    baseline = _run_fop("perline")
    candidate = _run_fop(engine)
    assert candidate.pcm_write_lines == baseline.pcm_write_lines
    assert candidate.dram_write_lines == baseline.dram_write_lines
    assert candidate.per_tag_pcm_writes == baseline.per_tag_pcm_writes
    assert candidate.per_tag_dram_writes == baseline.per_tag_dram_writes
    assert candidate.node_counters == baseline.node_counters
    assert candidate.llc_stats == baseline.llc_stats
    assert candidate.qpi_crossings == baseline.qpi_crossings
    assert candidate.elapsed_seconds == baseline.elapsed_seconds
