"""Per-layer host-time tracing, done from outside the program.

:class:`LayerTracer` wraps the public methods of each ``repro.*``
layer's entry classes for the duration of one traced pass and restores
them afterwards.  Every wrapped call is a span: its duration goes to
its layer's ``total_s`` (outermost span of that layer only, so
re-entry is not double counted) and its duration minus the time of the
spans it encloses goes to the layer's ``self_s``.  Self times of all
layers therefore add up to the traced wall time of the root span,
``HybridMemoryPlatform.run``.

Nothing under ``src/`` is changed: the wrappers are installed with
``setattr`` on the classes and restored when the tracer exits.  The
deterministic simulated counters do not depend on host time, so a
traced pass must produce the same result digests as an untraced one
(checked by the caller).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, Iterator, List, Tuple

#: Layer names, in report order.  ``core.platform`` is the glue: any
#: time inside ``HybridMemoryPlatform.run`` no other layer claims.
LAYERS: Tuple[str, ...] = (
    "workloads", "runtime", "native", "core.collectors", "kernel",
    "machine", "core.monitor", "core.platform")

#: (module, class names) whose public methods and ``__init__`` are the
#: entry points of each layer.  Methods are wrapped where the class
#: defines them (``__dict__``), so overrides are covered too.  Machine
#: internals (``CacheLevel``, the batch kernels) are deliberately not
#: wrapped: they are only reached from inside the machine layer.
ENTRY_CLASSES: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {
    "runtime": [
        ("repro.runtime.jvm", ("JavaVM", "MutatorContext")),
        ("repro.runtime.heap", ("HybridHeap",)),
        ("repro.runtime.spaces", ("Space", "ContiguousSpace", "MatureSpace",
                                  "LargeObjectSpace", "MetadataSpace",
                                  "BootSpace")),
        ("repro.runtime.freelist", ("ChunkFreeList",)),
    ],
    "native": [
        ("repro.native.runtime", ("NativeRuntime", "NativeContext")),
        ("repro.native.malloc", ("FreeListAllocator",)),
    ],
    "core.collectors": [
        ("repro.core.collectors.base", ("Collector",)),
        ("repro.core.collectors.genimmix", ("GenImmixCollector",)),
        ("repro.core.collectors.kingsguard", ("KingsguardCollector",)),
        ("repro.core.collectors.crystalgazer", ("CrystalGazerCollector",
                                                "WriteProfile")),
    ],
    "kernel": [
        ("repro.kernel.process", ("SimThread", "PerLineSimThread",
                                  "ColumnarSimThread", "Process")),
        ("repro.kernel.vm", ("Kernel",)),
        ("repro.kernel.scheduler", ("Scheduler",)),
        ("repro.kernel.placement", ("PlacementPolicy", "FirstTouchPlacement",
                                    "InterleavePlacement",
                                    "MigrantStorePlacement")),
    ],
    "machine": [
        ("repro.machine.numa", ("CorePath", "NumaMachine")),
        ("repro.machine.colengine", ("ColumnarCorePath",)),
        ("repro.machine.topology", ("MachineSpec",)),
    ],
    "core.monitor": [
        ("repro.core.monitor", ("WriteRateMonitor",)),
    ],
    "core.platform": [
        ("repro.core.platform", ("HybridMemoryPlatform",)),
    ],
}

#: Where lines enter the machine: "Class.method" -> lines one call
#: carries.  The eager engines receive lines through access_line and
#: access_run; the columnar engine queues them (partly inlined in
#: ColumnarSimThread.access) and services them in flush_pending, so its
#: lines are counted there, from the queue length at entry.
_LINE_ENTRIES: Dict[str, Callable[..., int]] = {
    "CorePath.access_line": lambda *args, **kwargs: 1,
    "CorePath.access_run": lambda path, first_line, count, *rest: count,
    "ColumnarCorePath.flush_pending": lambda path: path._pending_lines,
}

#: Classes whose constructed instances are kept for the cross-checks
#: (ColumnarCorePath.__init__ chains to CorePath's, so columnar paths
#: are kept under "CorePath" too).
_KEPT = ("JavaVM", "NativeRuntime", "Kernel", "Scheduler",
         "WriteRateMonitor", "CorePath")


class LayerStats:
    """Calls and host seconds charged to one layer."""

    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


def _public_functions(cls: type) -> Iterator[Tuple[str, Callable]]:
    """Plain functions ``cls`` itself defines: public ones and __init__."""
    for name, value in list(vars(cls).items()):
        if not inspect.isfunction(value):
            continue  # properties, static/class methods, attributes
        if name.startswith("_") and name != "__init__":
            continue
        yield name, value


class LayerTracer:
    """Install span wrappers on every layer's entry points (a context
    manager); read :attr:`stats` and the extra counters afterwards."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {name: LayerStats()
                                             for name in LAYERS}
        #: Open spans: each entry accumulates its children's seconds.
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[type, str, Callable]] = []
        #: Lines handed to the machine from outside it.
        self.machine_lines = 0
        #: Calls that delivered those lines: eager access_line/access_run
        #: calls from outside the machine, plus columnar flushes.
        self.machine_line_calls = 0
        #: ColumnarCorePath.flush_pending calls (zero under eager engines).
        self.flushes = 0
        #: Generator steps of the benchmark apps' iteration().
        self.workload_steps = 0
        #: Calls per wrapped method, keyed "Class.method".
        self.method_calls: Dict[str, int] = {}
        #: Instances of the _KEPT classes built during the pass.
        self.objects: Dict[str, Dict[int, object]] = {n: {} for n in _KEPT}

    # -- span bookkeeping ----------------------------------------------
    def _spanned(self, layer: LayerStats, fn: Callable,
                 before: Callable) -> Callable:
        """``fn`` as a span of ``layer``; ``before(*args)`` runs first,
        outside the span.  Kept flat: this is the traced hot path."""
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            before(*args, **kwargs)
            layer.calls += 1
            layer.depth += 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                layer.depth -= 1
                layer.self_s += elapsed - children[0]
                if layer.depth == 0:
                    layer.total_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
        return span

    def _wrap(self, layer_name: str, cls: type, name: str,
              fn: Callable) -> Callable:
        layer = self.stats[layer_name]
        key = f"{cls.__name__}.{name}"
        counter = self.method_calls
        counter[key] = 0
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # Only app iteration() generators are wrapped (see _patch);
            # each next() the scheduler makes is one workloads span.
            def count_step(steps):
                tracer.workload_steps += 1
            step = self._spanned(layer, next, count_step)

            def generator_wrapper(*args, **kwargs):
                counter[key] += 1
                return _Steps(step, fn(*args, **kwargs))
            return functools.wraps(fn)(generator_wrapper)

        lines_of = _LINE_ENTRIES.get(key)
        if lines_of is not None:
            flush = name == "flush_pending"

            def before(*args, **kwargs):
                counter[key] += 1
                if flush:
                    tracer.flushes += 1
                if flush or layer.depth == 0:
                    tracer.machine_line_calls += 1
                    tracer.machine_lines += lines_of(*args, **kwargs)
        elif name == "__init__" and cls.__name__ in _KEPT:
            kept = self.objects[cls.__name__]

            def before(obj, *args, **kwargs):
                counter[key] += 1
                kept[id(obj)] = obj
        else:
            def before(*args, **kwargs):
                counter[key] += 1
        return functools.wraps(fn)(self._spanned(layer, fn, before))

    def _patch(self, layer_name: str, cls: type,
               names: Tuple[str, ...] = ()) -> None:
        for name, fn in _public_functions(cls):
            if names and name not in names:
                continue
            if inspect.isgeneratorfunction(fn) and layer_name != "workloads":
                continue  # lazily consumed; time goes to the consumer
            self._patched.append((cls, name, fn))
            setattr(cls, name, self._wrap(layer_name, cls, name, fn))

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        from repro.workloads.base import BenchmarkApp
        from repro.workloads.registry import benchmark_factory

        benchmark_factory("lusearch")  # loads every suite module
        try:
            for layer_name, entries in ENTRY_CLASSES.items():
                for module_name, class_names in entries:
                    module = importlib.import_module(module_name)
                    for class_name in class_names:
                        self._patch(layer_name, getattr(module, class_name))
            for app_class in _subclasses(BenchmarkApp):
                self._patch("workloads", app_class,
                            ("__init__", "setup", "iteration"))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            cls, name, fn = self._patched.pop()
            setattr(cls, name, fn)

    # -- results ----------------------------------------------------------
    def calls_of(self, *keys: str) -> int:
        """Summed call counts of the given "Class.method" keys."""
        return sum(self.method_calls.get(key, 0) for key in keys)

    def kept(self, class_name: str) -> List[object]:
        return list(self.objects[class_name].values())


class _Steps:
    """A generator's steps, each run through ``step`` (a traced span)."""

    __slots__ = ("_step", "_steps")

    def __init__(self, step: Callable, steps: Iterator) -> None:
        self._step = step
        self._steps = steps

    def __iter__(self) -> "_Steps":
        return self

    def __next__(self):
        return self._step(self._steps)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found
