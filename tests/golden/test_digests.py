"""Checked-in result digests: every engine reproduces them bit for bit.

``digests.json`` maps ``benchmark/collector[/placement][/instances=N]``
to the SHA-256 of the canonical result payload —
``serve.wire.canonical_result`` over ``result_to_dict``, the same
definition of "same result" that ``repro serve`` and ``perfbench`` use.
The placement defaults to ``static`` and the instance count to 1.  Both engines, the per-line oracle and the default columnar
engine, must reproduce every digest exactly.  The keys cover a managed
run per collector family, a native-runtime run (``pr.cpp``), the
migrate placement (write listeners and page migration), and two
instances co-running on one socket's shared LLC.  A change to
any digest is a deliberate re-baseline and is recorded in CHANGES.md
with its reason.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import DEFAULT_SCALE_CONFIG, DEFAULT_SEEDS
from repro.core.platform import EmulationMode, HybridMemoryPlatform
from repro.harness.checkpoint import result_to_dict
from repro.serve.wire import canonical_result
from repro.workloads.registry import benchmark_factory

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "digests.json").read_text())


def result_digest(benchmark: str, collector: str, engine: str,
                  placement: str = "static", instances: int = 1) -> str:
    """SHA-256 of one default-seed emulation run's canonical payload."""
    factory = benchmark_factory(benchmark)
    platform = HybridMemoryPlatform(
        mode=EmulationMode.EMULATION, scale=DEFAULT_SCALE_CONFIG,
        seeds=DEFAULT_SEEDS, engine=engine, placement=placement)
    result = platform.run(
        lambda index: factory(index, dataset="default",
                              scale=DEFAULT_SCALE_CONFIG),
        collector=collector, instances=instances)
    text = json.dumps(canonical_result(result_to_dict(result)),
                      sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("engine", ["perline", "columnar"])
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_digest_matches_golden(key, engine):
    benchmark, collector, *rest = key.split("/")
    options = {"placement": "static", "instances": 1}
    for part in rest:
        if part.startswith("instances="):
            options["instances"] = int(part.split("=", 1)[1])
        else:
            options["placement"] = part
    assert result_digest(benchmark, collector, engine,
                         **options) == GOLDEN[key]
