"""Access-engine registry: the per-line oracle and the columnar engine.

The simulator has two interchangeable *access engines* — ways of
pushing the same access stream through the same cache model with
bit-identical counters:

``perline``
    The per-line oracle: every line goes through
    ``CacheLevel.access`` / ``CorePath.access_line`` individually.
    Slowest; the differential-fuzz reference.
``columnar``
    The default.  Cache state in numpy tag/dirty/age matrices; runs are
    queued and executed by a batch kernel — a small compiled C kernel
    when a host compiler is available (see
    :mod:`repro.machine.nativekernel`), else the interpreted reference
    kernel, which is several times slower (the resolved
    :class:`Engine` records which one loaded in ``kernel_name``).

Selection: explicit ``engine=`` arguments (``repro run --engine ...``)
win over the ``REPRO_ENGINE`` environment variable, which wins over the
default (``columnar``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.machine import pykernel
from repro.machine.cache import CacheLevel
from repro.machine.colcache import ColumnarCacheLevel
from repro.machine.colengine import ColumnarCorePath
from repro.machine.nativekernel import KernelFn, load_native_kernel
from repro.machine.numa import CorePath, NumaMachine, Socket

#: Environment variable consulted when no explicit engine is given.
ENGINE_ENV = "REPRO_ENGINE"
#: Registry order is also the CLI help order.
ENGINE_NAMES: Tuple[str, ...] = ("perline", "columnar")
DEFAULT_ENGINE = "columnar"

_DESCRIPTIONS = {
    "perline": "per-line oracle (dict caches, one access per line)",
    "columnar": "numpy state matrices + compiled batch kernel (default)",
}


@dataclass(frozen=True)
class Engine:
    """A resolved access engine: factories plus provenance.

    ``requested`` is the name asked for; ``kernel_name`` records which
    kernel backend actually loaded (``columnar`` without a C compiler
    resolves to the ``python`` kernel).
    """

    name: str
    requested: str
    description: str
    columnar: bool
    kernel_name: str
    kernel: Optional[KernelFn]

    def make_cache(self, size: int, assoc: int, line_size: int = 64,
                   name: str = "cache") -> CacheLevel:
        """Construct a cache level in this engine's representation."""
        if self.columnar:
            return ColumnarCacheLevel(size, assoc, line_size, name)
        return CacheLevel(size, assoc, line_size, name)

    def make_core(self, machine: NumaMachine, socket: Socket,
                  private: Optional[CacheLevel]) -> CorePath:
        """Construct the per-context access path for this engine."""
        if not self.columnar:
            return CorePath(machine, socket, private)
        if private is not None and not isinstance(private,
                                                  ColumnarCacheLevel):
            raise TypeError(
                f"engine {self.name!r} needs columnar private caches; "
                f"got {type(private).__name__}")
        assert self.kernel is not None
        return ColumnarCorePath(machine, socket, private, self.kernel)


def engine_names() -> Tuple[str, ...]:
    """Valid engine names, in CLI presentation order."""
    return ENGINE_NAMES


def describe_engines() -> str:
    """One line per engine, for ``--help`` text."""
    return "; ".join(f"{n}: {_DESCRIPTIONS[n]}" for n in ENGINE_NAMES)


def resolve_engine(name: Optional[str] = None) -> Engine:
    """Resolve an engine name (or ``$REPRO_ENGINE``, or the default).

    Always succeeds for registered names: ``columnar`` without a C
    compiler falls back from the native kernel to the interpreted one,
    changing only speed, never counters.
    """
    requested = name or os.environ.get(ENGINE_ENV) or DEFAULT_ENGINE
    if requested not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {requested!r}; choose from "
            f"{', '.join(ENGINE_NAMES)}")
    if requested == "perline":
        return Engine(name=requested, requested=requested,
                      description=_DESCRIPTIONS[requested],
                      columnar=False, kernel_name="none", kernel=None)
    kernel: Optional[KernelFn] = load_native_kernel()
    kernel_name = "native"
    if kernel is None:
        kernel = pykernel.run_batch
        kernel_name = "python"
    return Engine(name=requested, requested=requested,
                  description=_DESCRIPTIONS[requested],
                  columnar=True, kernel_name=kernel_name, kernel=kernel)
