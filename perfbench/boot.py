"""Process set-up shared by the benchmark and its set-up probe.

Run as a script (``python3 perfbench/boot.py ENGINE``) it performs the
set-up a fresh benchmark process pays before its first timed run and
exits; ``run.py`` times several such processes for ``setup_s``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Dict, List

#: Root of the checkout: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes (compiled kernel, compiler temps).
BUILD_DIR = ROOT / ".bench_build"

#: Variables that would silently change what is timed: engine and
#: placement overrides, the C-compiler kill switch, worker fault shims.
#: They are cleared for the benchmark and its probes.
OVERRIDE_ENV = ("REPRO_ENGINE", "REPRO_PLACEMENT", "REPRO_NO_CC",
                "REPRO_WORKER_FAULTS")


def prepare() -> List[str]:
    """Point imports at ``src/`` and keep every write in the checkout.

    Returns the override variables that were set (and are now cleared).
    Raises ``FileNotFoundError`` when the checkout has no sources.
    """
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro sources under {source}")
    cleared = [name for name in OVERRIDE_ENV
               if os.environ.pop(name, None) is not None]
    temp = BUILD_DIR / "tmp"
    temp.mkdir(parents=True, exist_ok=True)
    # The native kernel is compiled into (and loaded from) the checkout;
    # the compiler's own temporaries follow TMPDIR.
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD_DIR / "kernel-cache")
    os.environ["TMPDIR"] = str(temp)
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    return cleared


def setup(engine: str) -> Dict[str, str]:
    """Imports, engine resolution and the native-kernel load.

    Returns the provenance the benchmark records: resolved engine, its
    batch kernel, and whether the C kernel loaded (``native``) or the
    interpreted fallback is in use (``python``).
    """
    from repro.core.platform import HybridMemoryPlatform  # noqa: F401
    from repro.harness.checkpoint import result_to_dict  # noqa: F401
    from repro.machine.engine import resolve_engine
    from repro.machine.nativekernel import load_native_kernel
    from repro.serve.wire import canonical_result  # noqa: F401
    from repro.workloads.registry import benchmark_factory

    resolved = resolve_engine(engine)
    native = load_native_kernel() is not None
    benchmark_factory("lusearch")  # loads every workload suite module
    return {"engine": resolved.name, "engine_kernel": resolved.kernel_name,
            "native_kernel": "native" if native else "python"}


if __name__ == "__main__":
    prepare()
    setup(sys.argv[1])
