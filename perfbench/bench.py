"""Workloads, seeds, result digests and the pass runner.

A *pass* runs every key of one workload once, in order, by calling
``HybridMemoryPlatform.run`` directly (not ``ExperimentRunner.run``,
whose memo cache would turn repeats into dictionary lookups).  Imports
of ``repro`` happen inside functions: ``run.py`` sets up ``sys.path``
and the environment first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Key:
    """One ``platform.run`` call: benchmark x collector (x placement)."""

    benchmark: str
    collector: str
    placement: str = "static"

    @property
    def label(self) -> str:
        text = f"{self.benchmark}/{self.collector}"
        return text if self.placement == "static" else \
            f"{text}/{self.placement}"


#: Workload name -> keys run in one pass.  Every key runs in emulation
#: mode with one instance and the default dataset and scale.
WORKLOADS: Dict[str, Tuple[Key, ...]] = {
    # DaCapo mutators: 4 app threads rotated per op, ~160k allocations
    # per run, so workloads/runtime/collectors/kernel translation carry
    # most host time.
    "dacapo-gc": (Key("lusearch", "KG-W"), Key("xalan", "KG-N")),
    # Streaming graph working set far larger than the scaled LLC: the
    # machine layer dominates; pr.cpp runs on the native runtime, no GC.
    "graph-stream": (Key("pr", "PCM-Only"), Key("pr.cpp", "PCM-Only")),
    # Same mutator as dacapo-gc, but the migrate policy's write listener
    # forces per-line write delivery and its safepoints migrate pages.
    "xalan-migrate": (Key("xalan", "PCM-Only", "migrate"),),
}

#: The seed whose digests are the repository's defaults
#: (``repro.config.DEFAULT_SEEDS``).
DEFAULT_SEED = 0


def simulation_seeds(seed: int):
    """``SimulationSeeds`` for a benchmark seed; 0 is the repo default."""
    from repro.config import DEFAULT_SEEDS, SimulationSeeds

    if seed == DEFAULT_SEED:
        return DEFAULT_SEEDS
    return SimulationSeeds(**{
        field.name: DEFAULT_SEEDS.derive(getattr(DEFAULT_SEEDS, field.name),
                                         seed)
        for field in dataclasses.fields(SimulationSeeds)})


def result_digest(result) -> str:
    """SHA-256 of the canonical result payload, as ``repro serve``
    defines "same result" (host wall clock and profile stripped)."""
    from repro.harness.checkpoint import result_to_dict
    from repro.serve.wire import canonical_result

    text = json.dumps(canonical_result(result_to_dict(result)),
                      sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assert_quiet() -> None:
    """Refuse to time anything while a cross-cutting hook is live."""
    from repro.faults import FAULTS
    from repro.observability.profile import PROFILER
    from repro.observability.trace import TRACER
    from repro.sanitize.invariants import SANITIZE

    live = [name for name, on in (
        ("TRACER", TRACER.enabled), ("PROFILER", PROFILER.enabled),
        ("SANITIZE", SANITIZE.active is not None),
        ("FAULTS", FAULTS.active is not None)) if on]
    if live:
        raise RuntimeError(f"hooks active during a timed pass: {live}")


@dataclass
class KeyRun:
    """The outcome of one key in one pass."""

    key: Key
    digest: Optional[str] = None
    error: Optional[str] = None
    result: object = None
    #: False when the app runs on the native (C++) runtime.
    managed: bool = True


@dataclass
class Pass:
    """One pass over a workload's keys."""

    wall_s: float
    runs: List[KeyRun]

    def digests(self) -> Dict[str, Optional[str]]:
        return {run.key.label: run.digest for run in self.runs}


def run_pass(workload: str, seed: int, engine: str) -> Pass:
    """Run every key of ``workload`` once; host seconds for the pass."""
    from repro.config import DEFAULT_SCALE_CONFIG
    from repro.core.platform import EmulationMode, HybridMemoryPlatform
    from repro.workloads.registry import benchmark_factory

    seeds = simulation_seeds(seed)
    runs: List[KeyRun] = []
    start = time.perf_counter()
    for key in WORKLOADS[workload]:
        run = KeyRun(key)
        try:
            factory = benchmark_factory(key.benchmark)
            platform = HybridMemoryPlatform(
                mode=EmulationMode.EMULATION, scale=DEFAULT_SCALE_CONFIG,
                seeds=seeds, engine=engine, placement=key.placement)

            def make_app(index: int, scale=DEFAULT_SCALE_CONFIG,
                         factory=factory, run=run):
                app = factory(index, dataset="default", scale=scale)
                run.managed = getattr(app, "runtime", "managed") == "managed"
                return app

            run.result = platform.run(make_app, collector=key.collector,
                                      instances=1)
        except Exception as exc:  # a failed run is counted, not fatal
            run.error = f"{type(exc).__name__}: {exc}"
        runs.append(run)
    wall_s = time.perf_counter() - start
    for run in runs:
        if run.result is not None:
            run.digest = result_digest(run.result)
    return Pass(wall_s, runs)
