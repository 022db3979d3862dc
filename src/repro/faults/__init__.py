"""Fault injection: deterministic chaos for the emulation stack.

See :mod:`repro.faults.plan` for the in-process injector (its sites
are listed in :data:`repro.probe.SITES`), and :mod:`repro.faults.worker` for the env-keyed shim that
crashes or hangs ``run_many`` pool workers.
"""

from repro.faults.plan import (
    FAULTS,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FiredFault,
    make_exception,
)

__all__ = [
    "FAULTS",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "make_exception",
]
