"""End-to-end benchmark of ``HybridMemoryPlatform.run``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dacapo-gc --seed 0 --seconds 32 \
        --trace 0 [--engine batched]

``--trace 0`` times untraced passes and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer split.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a JSON object with provenance and the digest checks.  The
exit code is 1 when any run failed or any check did not hold.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host_platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import boot

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
#: Timed passes made even when --seconds runs out sooner.
MIN_TIMED_PASSES = 2


def time_setup(engine: str) -> float:
    """Median host seconds of fresh processes doing the set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "boot.py"), engine],
                       check=True, timeout=120, cwd=boot.ROOT)
        samples.append(time.perf_counter() - start)
    return median(samples)


def load_golden(seed: int) -> Optional[Dict[str, str]]:
    """Expected digests for ``seed`` (label -> SHA-256), if recorded."""
    table = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return table["digests"].get(str(seed))


def check_runs(passes, golden: Optional[Dict[str, str]]
               ) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over every run of every pass.

    A run fails if it raised or its digest differs from the expected
    one: the recorded golden digest when this seed has one, else the
    digest most runs of that key produced (self-consistency only).
    """
    by_label: Dict[str, Counter] = {}
    for done in passes:
        for run in done.runs:
            by_label.setdefault(run.key.label, Counter())[run.digest] += 1
    attempted = failed = 0
    problems: List[str] = []
    for done in passes:
        for run in done.runs:
            attempted += 1
            label = run.key.label
            if golden is not None:
                expected = golden.get(label)
            else:
                expected = by_label[label].most_common(1)[0][0]
            if run.error is not None:
                failed += 1
                problems.append(f"{label}: {run.error}")
            elif expected is None or run.digest != expected:
                failed += 1
                problems.append(f"{label}: digest {run.digest} != "
                                f"expected {expected}")
    return attempted, failed, problems


def layer_metrics(tracer, done) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced pass, and failed cross-checks."""
    from layers import LAYERS

    metrics: Dict[str, float] = {}
    for name in LAYERS:
        stats = tracer.stats[name]
        metrics[f"{name}.calls"] = stats.calls
        metrics[f"{name}.total_s"] = stats.total_s
        metrics[f"{name}.self_s"] = stats.self_s

    results = [run.result for run in done.runs if run.result is not None]
    managed = [run.result for run in done.runs
               if run.result is not None and run.managed]
    lines = tracer.machine_lines
    llc = [socket for r in results for socket in r.llc_stats]
    llc_hits = sum(s["hits"] for s in llc)
    llc_accesses = llc_hits + sum(s["misses"] for s in llc)
    metrics.update({
        "machine.lines": lines,
        "machine.lines_per_call": (lines / tracer.machine_line_calls
                                   if tracer.machine_line_calls else 0.0),
        "machine.self_ns_per_line": (metrics["machine.self_s"] / lines * 1e9
                                     if lines else 0.0),
        "machine.llc_accesses": llc_accesses,
        "machine.llc_hit_rate": llc_hits / llc_accesses if llc_accesses
        else 0.0,
        "machine.llc_dirty_evictions": sum(s["dirty_evictions"]
                                           for s in llc),
        "machine.qpi_crossings": sum(r.qpi_crossings for r in results),
        "machine.flushes": tracer.flushes,
        "machine.lines_per_flush": (lines / tracer.flushes
                                    if tracer.flushes else 0.0),
    })

    schedulers = tracer.kept("Scheduler")
    kernels = tracer.kept("Kernel")
    dispatches = sum(s.dispatches for s in schedulers)
    page_faults = sum(k.page_faults for k in kernels)
    metrics.update({
        "kernel.translations": tracer.calls_of(
            "SimThread.access", "SimThread.access_block",
            "PerLineSimThread.access", "PerLineSimThread.access_block",
            "ColumnarSimThread.access"),
        "kernel.page_faults": page_faults,
        "kernel.pages_migrated": sum(r.pages_migrated for r in results),
        "kernel.migration_writes": sum(r.migration_writes for r in results),
        "kernel.placement_ticks": tracer.calls_of("Kernel.placement_tick"),
        "kernel.scheduler_dispatches": dispatches,
    })

    stats = [s for r in managed for s in r.instance_stats]
    for field in ("objects_allocated", "bytes_allocated", "bytes_copied",
                  "minor_gcs", "full_gcs", "gc_cycles"):
        metrics[f"runtime.{field}"] = sum(getattr(s, field) for s in stats)
    metrics["workloads.steps"] = tracer.workload_steps

    # Each layer's traced count against a counter the program keeps
    # itself (whole run: both iterations).
    vms = tracer.kept("JavaVM")
    natives = tracer.kept("NativeRuntime")
    private_probes = sum(p.private.stats.hits + p.private.stats.misses
                         for p in tracer.kept("CorePath")
                         if p.private is not None)
    checks = [
        ("core.platform", "HybridMemoryPlatform.run calls", "keys run",
         tracer.calls_of("HybridMemoryPlatform.run"), len(done.runs)),
        ("workloads", "iteration() steps", "Scheduler.dispatches",
         tracer.workload_steps, dispatches),
        ("runtime", "MutatorContext.alloc calls",
         "RuntimeStats.objects_allocated",
         tracer.calls_of("MutatorContext.alloc"),
         sum(vm.stats.objects_allocated for vm in vms)),
        ("core.collectors", "Collector.minor_collect calls",
         "RuntimeStats.minor_gcs",
         tracer.calls_of("Collector.minor_collect"),
         sum(vm.stats.minor_gcs for vm in vms)),
        ("native", "NativeContext.malloc calls",
         "NativeRuntime.stats.objects_allocated",
         tracer.calls_of("NativeContext.malloc"),
         sum(rt.stats.objects_allocated for rt in natives)),
        ("kernel", "Kernel.fault_in calls", "Kernel.page_faults",
         tracer.calls_of("Kernel.fault_in"), page_faults),
        ("kernel", "Kernel.migrate_page calls", "Kernel.pages_migrated",
         tracer.calls_of("Kernel.migrate_page"),
         sum(k.pages_migrated for k in kernels)),
        ("machine", "lines into the machine",
         "private-cache hits + misses", lines, private_probes),
        ("core.monitor", "WriteRateMonitor.sample calls",
         "len(WriteRateMonitor.samples)",
         tracer.calls_of("WriteRateMonitor.sample"),
         sum(len(m.samples) for m in tracer.kept("WriteRateMonitor"))),
    ]
    failures = [f"{layer}: {traced_name} {traced} != {program_name} "
                f"{program}"
                for layer, traced_name, program_name, traced, program
                in checks if traced != program]
    return metrics, failures


def parse_args(argv: List[str]) -> argparse.Namespace:
    from bench import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; derives SimulationSeeds "
                             f"({DEFAULT_SEED} = the repository default)")
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--engine", default=None,
                        help="access engine (default: the repository "
                             "default; any other is exploratory)")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        cleared = boot.prepare()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from bench import assert_quiet, run_pass
    from repro.machine.engine import DEFAULT_ENGINE

    engine = args.engine or DEFAULT_ENGINE
    provenance = boot.setup(engine)
    setup_s = time_setup(engine) if args.trace == 0 else None
    golden = load_golden(args.seed)

    # No warm-up pass: a user's `repro run` pays the first pass too.
    passes = []
    untraced: List[float] = []
    traced_walls: List[float] = []
    layer_samples: List[Dict[str, float]] = []
    cross_check_failures: List[str] = []
    # A traced run needs one untraced/traced pair; timing runs need more.
    min_passes = 1 if args.trace else MIN_TIMED_PASSES
    start = time.perf_counter()
    while (len(untraced) < min_passes
           or time.perf_counter() - start < args.seconds):
        assert_quiet()
        done = run_pass(args.workload, args.seed, engine)
        assert_quiet()
        passes.append(done)
        untraced.append(done.wall_s)
        if args.trace:
            from layers import LayerTracer

            with LayerTracer() as tracer:
                done = run_pass(args.workload, args.seed, engine)
            passes.append(done)
            traced_walls.append(done.wall_s)
            sample, failures = layer_metrics(tracer, done)
            layer_samples.append(sample)
            cross_check_failures.extend(failures)

    attempted, failed, problems = check_runs(passes, golden)
    problems.extend(cross_check_failures)
    correct = not problems

    if args.trace:
        metrics = {name: {"value": median([s[name] for s in layer_samples]),
                          "unit": unit_of(name)}
                   for name in layer_samples[0]}
        metrics["trace.overhead"] = {
            "value": median(traced_walls) / median(untraced),
            "unit": unit_of("trace.overhead")}
    else:
        # Simulated figures are deterministic: any pass will do.
        results = [run.result for run in passes[0].runs
                   if run.result is not None]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": median(untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "sim_ms": {"value": sum(r.elapsed_seconds for r in results)
                       * 1e3, "unit": "ms"},
            "pcm_write_mb": {"value": sum(r.pcm_write_bytes for r in results)
                             / 1e6, "unit": "MB"},
            "run_ok_frac": {"value": (attempted - failed) / attempted,
                            "unit": "fraction"},
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "engine": provenance["engine"],
        "engine_status": ("default" if engine == DEFAULT_ENGINE
                          else "exploratory"),
        "engine_kernel": provenance["engine_kernel"],
        "native_kernel": provenance["native_kernel"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": host_platform.python_version(),
        "cleared_env": cleared,
        "digest_check": ("golden" if golden is not None
                         else "self-consistent only"),
        "digests": passes[0].digests(),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced_walls,
        "problems": problems,
    }
    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:32s} {metric['value']:.6g} "
              f"{metric['unit']}")
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_line"):
        return "ns/line"
    if name.endswith(("_rate", "_per_call", "_per_flush", "overhead")):
        return "ratio"
    if name.endswith("_bytes") or "bytes_" in name:
        return "bytes"
    if name.endswith("gc_cycles"):
        return "cycles"
    return "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
