"""Workload base classes and the statistical mutator model.

A :class:`BenchmarkApp` supplies heap sizing and two phases:

* ``setup(ctx)`` — build long-lived data structures (run once, before
  the first iteration, like class loading and benchmark setup);
* ``iteration(ctx)`` — a generator performing one benchmark iteration,
  yielding every ``quantum`` operations so the scheduler can interleave
  concurrent instances (the paper's multiprogramming).

:class:`SyntheticApp` drives a parameterised mutator: per operation it
allocates objects (most of which die young), links survivors into
rooted container tables (producing real write-barrier and remembered-
set traffic), and mutates/reads the live working set with a hot/cold
skew.  The parameters in :class:`WorkloadProfile` are what distinguish
lusearch from fop from Pjbb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator, List, Tuple

from repro.config import KB
from repro.runtime.jvm import MutatorContext
from repro.runtime.objectmodel import Obj


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one benchmark's memory behaviour.

    Rates are per mutator operation; sizes are (unscaled) bytes.
    """

    ops: int = 20_000
    #: Expected small allocations per op (DaCapo apps allocate heavily).
    alloc_per_op: float = 1.0
    #: Candidate scalar payload sizes for small objects.
    small_sizes: Tuple[int, ...] = (16, 24, 32, 48, 64, 96)
    #: Candidate reference-field counts for small objects.
    small_refs: Tuple[int, ...] = (0, 0, 1, 2, 4)
    #: Probability a fresh object is linked into a container (survives).
    survival_rate: float = 0.10
    #: Reference slots per container table.
    table_slots: int = 32
    #: Scalar writes per op into the live working set.
    writes_per_op: float = 2.0
    #: Reads per op from the live working set.
    reads_per_op: float = 4.0
    #: Fraction of working-set writes landing on the hot subset.
    hot_write_fraction: float = 0.8
    #: Fraction of tables considered hot.
    hot_table_fraction: float = 0.2
    #: Ops per program phase; each phase the hot window rotates, so
    #: objects that were cold while monitored in the observer space
    #: become write targets later — the residual PCM writes KG-W
    #: cannot eliminate (the paper's ~62 %, not 100 %, reduction).
    phase_ops: int = 2500
    #: Large allocations per op.
    large_alloc_per_op: float = 0.0
    #: Candidate scalar sizes for large objects.
    large_sizes: Tuple[int, ...] = (4 * KB, 8 * KB, 16 * KB)
    #: Probability a large object is retained past the iteration.
    large_survival: float = 0.2
    #: Retained large objects kept alive (FIFO window).
    large_window: int = 8
    #: Fraction of the heap budget that is live working set (churny
    #: benchmarks keep little live data; databases keep a lot).
    live_fraction: float = 0.35
    #: Of the surviving allocations, the fraction that is only
    #: *medium-lived* — alive for about ``medium_lifetime_factor``
    #: nursery-fill periods.  Whether these die before promotion is
    #: exactly what nursery size (KG-B) and observer grace (KG-W)
    #: change.
    medium_fraction: float = 0.75
    #: Medium lifetime in multiples of the (default) nursery fill time.
    medium_lifetime_factor: float = 1.5
    #: Compute units (non-memory work) per op.
    compute_per_op: int = 4
    #: Scheduler quantum in ops.
    quantum: int = 64


class BenchmarkApp:
    """Base class for all benchmarks."""

    #: Paper suite name: "dacapo", "pjbb", or "graphchi".
    suite = "custom"

    def __init__(self, name: str, heap_budget: int, nursery_size: int,
                 app_threads: int = 4, seed: int = 0) -> None:
        self.name = name
        self.heap_budget = heap_budget
        self.nursery_size = nursery_size
        self.app_threads = app_threads
        self.seed = seed
        self.rng = random.Random(seed)

    def setup(self, ctx: MutatorContext) -> None:
        """Build long-lived state (runs once)."""

    def iteration(self, ctx: MutatorContext) -> Generator[None, None, None]:
        """One benchmark iteration; must yield every quantum."""
        raise NotImplementedError
        yield  # pragma: no cover


class SyntheticApp(BenchmarkApp):
    """A benchmark driven by a :class:`WorkloadProfile`."""

    def __init__(self, name: str, suite: str, profile: WorkloadProfile,
                 heap_budget: int, nursery_size: int,
                 app_threads: int = 4, seed: int = 0) -> None:
        super().__init__(name, heap_budget, nursery_size, app_threads, seed)
        self.suite = suite
        self.profile = profile
        # Size the long-lived working set from the heap budget: the
        # paper runs every benchmark at twice its minimum heap, so the
        # live set is roughly 40-50 % of the total heap.
        avg_small = (8 + sum(profile.small_sizes) / len(profile.small_sizes)
                     + 4 * sum(profile.small_refs) / len(profile.small_refs))
        table_bytes = 8 + 16 + 4 * profile.table_slots
        per_table = table_bytes + profile.table_slots * avg_small
        self.num_tables = max(
            8, int(heap_budget * profile.live_fraction / per_table))
        # Medium-lived objects cycle through dedicated buffer tables
        # whose slots are overwritten at the medium link rate, giving a
        # deterministic lifetime of ~medium_lifetime_factor nursery
        # fills (computed against the *default* nursery size; a bigger
        # nursery then lets these objects die before promotion).
        nursery_fill_ops = max(1.0, nursery_size
                               / max(1e-9, profile.alloc_per_op * avg_small))
        medium_rate = (profile.alloc_per_op * profile.survival_rate
                       * profile.medium_fraction)
        medium_slots = max(profile.table_slots, int(
            profile.medium_lifetime_factor * nursery_fill_ops * medium_rate))
        self.num_medium_tables = -(-medium_slots // profile.table_slots)
        self._tables: List[Obj] = []
        self._medium_tables: List[Obj] = []
        self._large_window: List[Obj] = []
        self._large_roots: List[int] = []
        self._slot_cursor = 0
        self._medium_cursor = 0

    # ------------------------------------------------------------------
    # Setup: the long-lived working set
    # ------------------------------------------------------------------
    def setup(self, ctx: MutatorContext) -> None:
        profile = self.profile
        rng = self.rng
        for _ in range(self.num_tables):
            table = ctx.alloc(scalar_bytes=16, num_refs=profile.table_slots)
            ctx.add_root(table)
            self._tables.append(table)
            # Pre-populate some slots so the mature working set exists
            # from the start (the app's static data).
            for slot in range(0, profile.table_slots, 2):
                leaf = ctx.alloc(scalar_bytes=rng.choice(profile.small_sizes),
                                 num_refs=rng.choice(profile.small_refs))
                ctx.write_ref(table, slot, leaf)
        for _ in range(self.num_medium_tables):
            table = ctx.alloc(scalar_bytes=16, num_refs=profile.table_slots)
            ctx.add_root(table)
            self._medium_tables.append(table)

    # ------------------------------------------------------------------
    # One iteration of the mutator loop
    # ------------------------------------------------------------------
    def iteration(self, ctx: MutatorContext) -> Generator[None, None, None]:
        # The per-op loop runs ~10^5 times per run, so everything it
        # reads is hoisted into locals, and draws go straight through
        # Random._randbelow: randrange(n) and choice(seq) delegate to
        # it, so the RNG stream is the same draw for draw.
        profile = self.profile
        rng = self.rng
        draw = rng.random
        below = rng._randbelow
        tables = self._tables
        num_tables = len(tables)
        hot_tables = max(1, int(num_tables * profile.hot_table_fraction))
        hot_start = 0
        phase_step = max(1, hot_tables // 2)
        app_threads = self.app_threads
        compute_per_op = profile.compute_per_op
        phase_ops = profile.phase_ops
        quantum = profile.quantum
        alloc_per_op = profile.alloc_per_op
        small_sizes = profile.small_sizes
        n_sizes = len(small_sizes)
        small_refs = profile.small_refs
        n_refs = len(small_refs)
        survival_rate = profile.survival_rate
        large_alloc_per_op = profile.large_alloc_per_op
        writes_per_op = profile.writes_per_op
        hot_write_fraction = profile.hot_write_fraction
        reads_per_op = profile.reads_per_op
        use_thread = ctx.use_thread
        compute = ctx.compute
        alloc = ctx.alloc
        write_scalar_random = ctx.write_scalar_random
        read_scalar_random = ctx.read_scalar_random
        pick = self._pick
        alloc_acc = 0.0
        write_acc = 0.0
        read_acc = 0.0
        large_acc = 0.0
        for op in range(profile.ops):
            use_thread(op % app_threads)
            compute(compute_per_op)
            if op % phase_ops == 0 and op:
                # Phase change: the hot working set drifts.
                hot_start = (hot_start + phase_step) % num_tables

            # --- allocation ---
            alloc_acc += alloc_per_op
            while alloc_acc >= 1.0:
                alloc_acc -= 1.0
                obj = alloc(scalar_bytes=small_sizes[below(n_sizes)],
                            num_refs=small_refs[below(n_refs)])
                if draw() < survival_rate:
                    self._link(ctx, rng, obj)
                # otherwise the object dies in the nursery

            # --- large allocation ---
            large_acc += large_alloc_per_op
            while large_acc >= 1.0:
                large_acc -= 1.0
                self._alloc_large(ctx, rng)

            # --- working-set mutation ---
            write_acc += writes_per_op
            while write_acc >= 1.0:
                write_acc -= 1.0
                write_scalar_random(pick(ctx, rng, hot_start, hot_tables,
                                         hot_write_fraction))

            # --- working-set reads ---
            read_acc += reads_per_op
            while read_acc >= 1.0:
                read_acc -= 1.0
                read_scalar_random(pick(ctx, rng, hot_start, hot_tables,
                                        0.5))

            if (op + 1) % quantum == 0:
                yield

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _link(self, ctx: MutatorContext, rng: random.Random,
              obj: Obj) -> None:
        """Retain ``obj`` by linking it into a container table.

        Overwriting a slot unlinks (kills) its previous resident:
        medium buffer tables cycle quickly, long-lived tables slowly.
        """
        profile = self.profile
        if rng.random() < profile.medium_fraction:
            tables = self._medium_tables
            cursor = self._medium_cursor
            self._medium_cursor += 1
        else:
            tables = self._tables
            cursor = self._slot_cursor
            self._slot_cursor += 1
        table = tables[cursor % len(tables)]
        slot = (cursor // len(tables)) % profile.table_slots
        ctx.write_ref(table, slot, obj)

    def _alloc_large(self, ctx: MutatorContext, rng: random.Random) -> None:
        profile = self.profile
        size = rng.choice(profile.large_sizes)
        obj = ctx.alloc(scalar_bytes=size, num_refs=0, large=True)
        # Touch the buffer the way applications fill fresh buffers.
        ctx.write_scalar(obj, offset=0, nbytes=min(size, 512))
        if rng.random() < profile.large_survival:
            if len(self._large_window) >= profile.large_window:
                victim_root = self._large_roots.pop(0)
                self._large_window.pop(0)
                ctx.clear_root(victim_root)
            self._large_window.append(obj)
            self._large_roots.append(ctx.add_root(obj))

    def _pick(self, ctx: MutatorContext, rng: random.Random,
              hot_start: int, hot_tables: int,
              hot_fraction: float) -> Obj:
        """Pick a live object with hot/cold skew; fall back to a table.

        The hot window starts at ``hot_start`` and drifts across the
        working set as the program changes phase.
        """
        tables = self._tables
        draw = rng.random
        # _randbelow(n) is the draw randrange(n) makes (see iteration).
        if draw() < hot_fraction:
            table = tables[(hot_start + rng._randbelow(hot_tables))
                           % len(tables)]
        else:
            table = tables[rng._randbelow(len(tables))]
        # Log-uniform slot choice: a few objects per table take most of
        # the writes, persistently.  This is the skew that makes "past
        # writes predict future writes" — the premise KG-W relies on.
        slot = int(len(table.refs) ** draw()) - 1
        ref = ctx.read_ref(table, slot if slot > 0 else 0)
        return ref if ref is not None else table
