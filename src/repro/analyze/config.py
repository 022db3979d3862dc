"""Configuration for ``repro lint``: the built-in policy.

The defaults below *are* the repo's policy — there is no second copy
to keep in sync (a TOML mirror would need :mod:`tomllib`, which the
3.9/3.10 interpreters the package supports do not have).  Tests and
callers tweak a :class:`LintConfig` instance directly.

Policy pieces:

* **layers** — dotted package prefix -> rank.  A module may only import
  modules of equal or lower rank (rule ``L001``); longest-prefix match
  decides a module's rank.
* **crosscutting / hot** — the observability/faults/sanitize packages
  may be imported from anywhere *except* the hot packages (``L002``);
  hot packages reach those subsystems only through the probe bus
  (:mod:`repro.probe`), which is not cross-cutting.
* **counters** — registered counter attribute -> owning class names.
  Augmented/plain assignment to a registered counter outside its owning
  class must come from a declared mutator (``C001``).
* **counter_mutators** — ``module::Qual.name`` functions allowed to
  mutate foreign counters (the access engines' inner loops).
* **engine_functions** — functions allowed to reach into another
  object's private attributes (``RC01``'s ownership protocol).
* **async_packages** — packages whose ``async def`` bodies must never
  (transitively) reach blocking calls (``A001``/``A002``).
* **parity_groups** — named groups of engine classes whose public
  method surfaces must stay in lock-step (``P001``/``P002``).
* **test_paths / test_select** — extra trees the CLI lints with a
  restricted rule set (D-rules: unseeded RNG and wall-clock use in
  tests is a flakiness source).
* **exclude** — path prefixes dropped from the *test_paths* sweep
  (the planted lint fixtures are deliberate violations).

The probe sites rule ``H001`` checks are not policy: they live in
:data:`repro.probe.SITES`, next to the bus the sites fire into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


#: Import-DAG ranks (longest prefix wins).  machine < kernel < runtime
#: < native < core < workloads < harness < experiments < top-level.
DEFAULT_LAYERS: Dict[str, int] = {
    "repro": 70,              # cli, __init__, __main__
    "repro.analyze": 70,
    "repro.config": 0,
    "repro.probe": 1,
    "repro.observability": 5,
    "repro.faults": 8,
    "repro.machine": 10,
    "repro.kernel": 20,
    "repro.runtime": 30,
    "repro.native": 35,
    "repro.sanitize": 38,
    "repro.core": 40,
    "repro.workloads": 45,
    "repro.harness": 50,
    "repro.experiments": 60,
    "repro.serve": 65,
}

#: Cross-cutting packages: importable from anywhere except hot packages.
DEFAULT_CROSSCUTTING: Tuple[str, ...] = (
    "repro.observability", "repro.faults", "repro.sanitize",
)

#: Hot-path packages: per-access simulation code where a stray import
#: of tooling can silently change counters or cost cycles.
DEFAULT_HOT: Tuple[str, ...] = (
    "repro.machine", "repro.kernel", "repro.runtime", "repro.native",
)

#: Registered counter attribute -> class names allowed to mutate it.
DEFAULT_COUNTERS: Dict[str, List[str]] = {
    # MemoryNode traffic counters (the "PCM write count" ground truth).
    "write_lines": ["MemoryNode"],
    "read_lines": ["MemoryNode"],
    "writes_by_tag": ["MemoryNode"],
    "migration_write_lines": ["MemoryNode"],
    # Cache accounting (CacheLevel owns its CacheStats; the columnar
    # subclass keeps the same ownership over the matrix state).
    "hits": ["CacheStats", "CacheLevel", "ColumnarCacheLevel"],
    "misses": ["CacheStats", "CacheLevel", "ColumnarCacheLevel"],
    "evictions": ["CacheStats", "CacheLevel", "ColumnarCacheLevel"],
    "dirty_evictions": ["CacheStats", "CacheLevel", "ColumnarCacheLevel"],
    "flushed_dirty": ["CacheLevel", "ColumnarCacheLevel"],
    # Machine-level traffic.
    "qpi_crossings": ["NumaMachine"],
    # Kernel syscall/fault counters.
    "mmap_calls": ["Kernel"],
    "munmap_calls": ["Kernel"],
    "retag_calls": ["Kernel"],
    "pages_mapped": ["Kernel"],
    "pages_unmapped": ["Kernel"],
    "page_faults": ["Kernel"],
    "pages_migrated": ["Kernel"],
    "migration_writes": ["Kernel"],
    "migration_cycles": ["Kernel"],
    # Wear family.
    "total_writes": ["WearTracker", "StartGapWearLeveler"],
    "gap_moves": ["StartGapWearLeveler"],
    "gap_copies": ["StartGapWearLeveler"],
    "writes_since_move": ["StartGapWearLeveler"],
    "physical_wear": ["StartGapWearLeveler"],
    "wear": ["WearTracker"],
}

#: Functions allowed to mutate foreign registered counters: the access
#: engines' inner loops, where the method-call discipline is
#: deliberately traded away (counter-identity is proven by the
#: differential fuzzer instead).
DEFAULT_COUNTER_MUTATORS: Tuple[str, ...] = (
    "repro.machine.numa::CorePath.access_line",
    "repro.machine.colengine::ColumnarCorePath.flush_pending",
)

#: Functions allowed to touch another object's private attributes (an
#: engine's ownership protocol).  None today: the columnar engine's
#: shared run queue keeps its columns public, and a flush credits each
#: thread's cycles through the thread's own method.
DEFAULT_ENGINE_FUNCTIONS: Tuple[str, ...] = ()

#: Packages whose coroutines run on the serve event loop: blocking
#: calls reachable from an ``async def`` here stall every in-flight
#: request (PR 8's phantom-SIGTERM bug came from exactly this class of
#: mistake).
DEFAULT_ASYNC_PACKAGES: Tuple[str, ...] = ("repro.serve",)

#: Engine API-parity groups: each group names classes (by
#: ``module::QualName``) whose *public* method names and arities must
#: match, so the perline and columnar engines cannot drift apart.
#: The perline CacheLevel is the reference; ColumnarCacheLevel
#: overrides its whole surface.  CorePath (the per-line path) pairs
#: with ColumnarCorePath.
DEFAULT_PARITY_GROUPS: Dict[str, List[str]] = {
    "engine-cache": [
        "repro.machine.cache::CacheLevel",
        "repro.machine.colcache::ColumnarCacheLevel",
    ],
    "engine-core": [
        "repro.machine.numa::CorePath",
        "repro.machine.colengine::ColumnarCorePath",
    ],
}

#: Extra trees linted with the restricted ``test_select`` rule set.
DEFAULT_TEST_PATHS: Tuple[str, ...] = ("tests", "benchmarks")

#: Rules applied to the test trees (determinism family only — layering
#: and counter discipline do not apply to test code).
DEFAULT_TEST_SELECT: Tuple[str, ...] = ("D001", "D002", "D003", "D004")

#: Path prefixes excluded from the test-tree sweep: the lint fixtures
#: are planted violations and must not be re-reported.
DEFAULT_EXCLUDE: Tuple[str, ...] = ("tests/analyze/fixtures",)


@dataclass
class LintConfig:
    """Effective policy the engine and checkers consult."""

    paths: List[str] = field(default_factory=lambda: ["src/repro"])
    baseline: str = "lint-baseline.json"
    select: List[str] = field(default_factory=list)
    ignore: List[str] = field(default_factory=list)
    layers: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_LAYERS))
    crosscutting: List[str] = field(
        default_factory=lambda: list(DEFAULT_CROSSCUTTING))
    hot: List[str] = field(default_factory=lambda: list(DEFAULT_HOT))
    counters: Dict[str, List[str]] = field(
        default_factory=lambda: {k: list(v)
                                 for k, v in DEFAULT_COUNTERS.items()})
    counter_mutators: List[str] = field(
        default_factory=lambda: list(DEFAULT_COUNTER_MUTATORS))
    engine_functions: List[str] = field(
        default_factory=lambda: list(DEFAULT_ENGINE_FUNCTIONS))
    async_packages: List[str] = field(
        default_factory=lambda: list(DEFAULT_ASYNC_PACKAGES))
    parity_groups: Dict[str, List[str]] = field(
        default_factory=lambda: {k: list(v)
                                 for k, v in DEFAULT_PARITY_GROUPS.items()})
    test_paths: List[str] = field(
        default_factory=lambda: list(DEFAULT_TEST_PATHS))
    test_select: List[str] = field(
        default_factory=lambda: list(DEFAULT_TEST_SELECT))
    exclude: List[str] = field(
        default_factory=lambda: list(DEFAULT_EXCLUDE))

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def rank_of(self, module: str) -> Optional[int]:
        """Layer rank by longest prefix match; None if unranked."""
        best_len = -1
        best_rank: Optional[int] = None
        for prefix, rank in self.layers.items():
            if module == prefix or module.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best_len = len(prefix)
                    best_rank = rank
        return best_rank

    def _matches_any(self, module: str, prefixes: List[str]) -> bool:
        return any(module == p or module.startswith(p + ".")
                   for p in prefixes)

    def is_crosscutting(self, module: str) -> bool:
        return self._matches_any(module, self.crosscutting)

    def is_hot(self, module: str) -> bool:
        return self._matches_any(module, self.hot)

    def is_counter_mutator(self, module: str, qualname: str) -> bool:
        return f"{module}::{qualname}" in self.counter_mutators

    def is_engine_function(self, module: str, qualname: str) -> bool:
        return f"{module}::{qualname}" in self.engine_functions

    def is_async_package(self, module: str) -> bool:
        return self._matches_any(module, self.async_packages)
