"""Deterministic, seedable fault injection.

The emulation stack claims to survive partial runs — teardown paths
release frames, monitors shut down, sweeps keep completed work — but
until now nothing could *deliberately* produce the failures those paths
handle.  This module is the chaos half of that contract: a
:class:`FaultPlan` names trigger points across the stack and the
process-wide :class:`FaultInjector` (:data:`FAULTS`) fires them.

The stack announces its fault points on the probe bus
(:data:`repro.probe.PROBES`); while a plan is installed, :data:`FAULTS`
subscribes and treats every fired site as an arrival::

    if PROBES.on:
        PROBES.fire("kernel.mmap_bind", node=node_id)

The sites, what each one models and the function firing it are listed
in :data:`repro.probe.SITES` (the entries marked "fault"); each site
passes its own context keys.

Harness-level faults (worker-process crash/hang in ``run_many``) cannot
be expressed as in-process hooks — the victim is another process — and
live in :mod:`repro.faults.worker` instead, keyed by an environment
variable the pool workers inherit.

Determinism: trigger points count *arrivals* per site, and probabilistic
specs draw from a ``random.Random`` seeded by the plan, so the same plan
against the same workload injects the same faults every time.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.observability.metrics import METRICS, sanitize
from repro.observability.trace import TRACER
from repro.probe import PROBES, ProbeBus


class FaultError(RuntimeError):
    """Generic injected failure (the default ``raise`` payload)."""


def make_exception(kind: str, site: str, arrival: int, /,
                   **context) -> BaseException:
    """Build the exception a ``raise`` action throws.

    The first three parameters are positional-only: site contexts are
    free-form keyword dicts (``runtime.gc`` passes ``kind="minor"``)
    and must never collide with them.

    ``kind`` selects the same exception type the organic failure would
    produce, so handlers cannot tell an injected fault from a real one:

    * ``"oom"`` -> :class:`repro.runtime.heap.OutOfMemoryError`
    * ``"page_fault"`` -> :class:`repro.kernel.pagetable.PageFault`
    * ``"frame_exhausted"`` -> :class:`repro.machine.memory.OutOfPhysicalMemory`
    * ``"mbind"`` -> :class:`repro.kernel.vm.MBindError`
    * anything else -> :class:`FaultError`
    """
    detail = f"injected at {site} (arrival {arrival})"
    if kind == "oom":
        from repro.runtime.heap import OutOfMemoryError
        return OutOfMemoryError(detail)
    if kind == "page_fault":
        from repro.kernel.pagetable import PageFault
        return PageFault(context.get("vaddr", 0xFA017000))
    if kind == "frame_exhausted":
        from repro.machine.memory import OutOfPhysicalMemory
        return OutOfPhysicalMemory(detail)
    if kind == "mbind":
        from repro.kernel.vm import MBindError
        return MBindError(detail)
    return FaultError(detail)


@dataclass(frozen=True)
class FaultSpec:
    """One trigger point in a plan.

    Parameters
    ----------
    site:
        Probe site name (see :data:`repro.probe.SITES`).
    at:
        Fire on the Nth arrival at the site (1-based).
    action:
        ``"raise"`` throws :func:`make_exception`; any other string is
        returned to the hook, which interprets it (``"stale"`` for the
        monitor, ``"exhaust"`` for the heap budget).
    error:
        Exception kind for ``raise`` actions.
    times:
        Consecutive arrivals (from ``at``) the spec stays armed for;
        ``-1`` keeps it armed forever.
    probability:
        Chance an armed arrival actually fires, drawn from the plan's
        seeded RNG (deterministic given the seed and arrival order).
    match:
        Context filters: the spec only considers arrivals whose context
        matches every ``key: value`` pair (e.g. ``{"tag": "monitor"}``).
    """

    site: str
    at: int = 1
    action: str = "raise"
    error: str = "fault"
    times: int = 1
    probability: float = 1.0
    match: Tuple[Tuple[str, object], ...] = ()

    def armed_for(self, arrival: int) -> bool:
        if arrival < self.at:
            return False
        return self.times < 0 or arrival < self.at + self.times

    def matches(self, context: Dict[str, object]) -> bool:
        return all(context.get(key) == value for key, value in self.match)


class FaultPlan:
    """An ordered set of :class:`FaultSpec` triggers plus an RNG seed."""

    def __init__(self, specs: Optional[List[FaultSpec]] = None,
                 seed: int = 0) -> None:
        self.specs: List[FaultSpec] = list(specs or [])
        self.seed = seed

    def add(self, site: str, at: int = 1, action: str = "raise",
            error: str = "fault", times: int = 1, probability: float = 1.0,
            **match) -> "FaultPlan":
        """Builder-style helper: append a spec, return the plan."""
        self.specs.append(FaultSpec(
            site=site, at=at, action=action, error=error, times=times,
            probability=probability, match=tuple(sorted(match.items()))))
        return self

    def sites(self) -> List[str]:
        return sorted({spec.site for spec in self.specs})


@dataclass
class FiredFault:
    """Record of one injection, kept for assertions and reports."""

    site: str
    arrival: int
    action: str
    error: str


class FaultInjector:
    """Process-wide injector: the probe bus's fault subscriber.

    ``active`` is the installed :class:`FaultPlan` or ``None``.
    :meth:`arrive` is also callable directly (tests, the fuzzer).
    """

    def __init__(self, bus: Optional[ProbeBus] = None) -> None:
        self.active: Optional[FaultPlan] = None
        self._bus = bus
        self._arrivals: Dict[str, int] = {}
        self.fired: List[FiredFault] = []
        self._rng = random.Random(0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self, plan: FaultPlan) -> None:
        """Install ``plan``, resetting arrival counters and the RNG."""
        self.active = plan
        self._arrivals = {}
        self.fired = []
        self._rng = random.Random(plan.seed)
        if self._bus is not None:
            self._bus.subscribe(self.probe)

    def uninstall(self) -> None:
        self.active = None
        if self._bus is not None:
            self._bus.unsubscribe(self.probe)

    @contextmanager
    def installed(self, plan: FaultPlan):
        """Install ``plan`` for a ``with`` block, uninstalling after."""
        self.install(plan)
        try:
            yield self
        finally:
            self.uninstall()

    def arrivals(self, site: str) -> int:
        return self._arrivals.get(site, 0)

    # ------------------------------------------------------------------
    # The hook-point entry
    # ------------------------------------------------------------------
    def probe(self, site: str, ctx: Dict[str, object]) -> Optional[str]:
        """Bus subscriber: every fired site is an arrival."""
        return self.arrive(site, **ctx)

    def arrive(self, site: str, **context) -> Optional[str]:
        """Count an arrival at ``site``; fire a matching spec if armed.

        Returns the fired spec's action for non-``raise`` actions (the
        hook interprets it), ``None`` when nothing fires.  ``raise``
        actions throw from here.
        """
        plan = self.active
        if plan is None:
            return None
        arrival = self._arrivals.get(site, 0) + 1
        self._arrivals[site] = arrival
        for spec in plan.specs:
            if spec.site != site or not spec.armed_for(arrival):
                continue
            if not spec.matches(context):
                continue
            if spec.probability < 1.0 and \
                    self._rng.random() >= spec.probability:
                continue
            self.fired.append(FiredFault(site, arrival, spec.action,
                                         spec.error))
            METRICS.inc(f"faults.injected.{sanitize(site)}")
            if TRACER.enabled:
                TRACER.event("fault.injected", site=site, arrival=arrival,
                             action=spec.action, error=spec.error)
            if spec.action == "raise":
                raise make_exception(spec.error, site, arrival, **context)
            return spec.action
        return None


#: The process-wide injector, subscribed to the probe bus while a plan
#: is installed.
FAULTS = FaultInjector(bus=PROBES)
