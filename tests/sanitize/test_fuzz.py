"""Tests for the differential-oracle fuzzer."""

import pytest

from repro.config import PAGE_SIZE
from repro.sanitize.fuzz import (
    DRAM_BASE,
    PCM_BASE,
    PLANTED_BUGS,
    DifferentialFuzzer,
    TraceOp,
    diff_snapshots,
    generate_trace,
    planted_bug,
    read_trace_jsonl,
    replay,
    shrink_trace,
    write_trace_jsonl,
)


class TestTraceGeneration:
    def test_deterministic_for_a_seed(self):
        assert generate_trace(7, 300) == generate_trace(7, 300)

    def test_seeds_differ(self):
        assert generate_trace(1, 300) != generate_trace(2, 300)

    def test_requested_length(self):
        assert len(generate_trace(0, 123)) == 123

    def test_mix_covers_the_interesting_cases(self):
        trace = generate_trace(0, 2000)
        kinds = {op.kind for op in trace}
        assert kinds == {"access", "mmap", "munmap", "drain", "flush"}
        accesses = [op for op in trace if op.kind == "access"]
        # Page-straddling runs, both polarities, unaligned starts.
        assert any(op.size > PAGE_SIZE for op in accesses)
        assert any(op.is_write for op in accesses)
        assert any(not op.is_write for op in accesses)
        assert any(op.vaddr % 64 for op in accesses)
        assert any(op.thread == 2 for op in accesses)  # PCM-socket thread

    def test_trace_op_round_trips_through_dicts(self):
        op = TraceOp("access", thread=1, vaddr=0x1234, size=100,
                     is_write=True)
        assert TraceOp.from_dict(op.to_dict()) == op

    def test_trace_jsonl_round_trip(self, tmp_path):
        trace = generate_trace(3, 50)
        path = str(tmp_path / "trace.jsonl")
        assert write_trace_jsonl(path, trace) == 50
        assert read_trace_jsonl(path) == trace


class TestReplay:
    def test_engines_agree_on_a_clean_trace(self):
        trace = generate_trace(11, 600)
        columnar, violations_c = replay(trace, "columnar", check_every=64)
        oracle, violations_o = replay(trace, "oracle", check_every=64)
        assert diff_snapshots(columnar, oracle) == []
        assert violations_c == [] and violations_o == []

    def test_faulting_ops_recorded_identically(self):
        trace = [
            TraceOp("access", vaddr=DRAM_BASE, size=64, is_write=True),
            TraceOp("access", vaddr=0x900000, size=64),  # unmapped hole
            TraceOp("mmap", vaddr=DRAM_BASE, pages=1, node=0),  # overlap
            TraceOp("munmap", vaddr=0x900000, pages=1),  # not mapped
            TraceOp("access", vaddr=PCM_BASE + 1, size=200,
                    is_write=True),
        ]
        columnar, _ = replay(trace, "columnar")
        oracle, _ = replay(trace, "oracle")
        assert diff_snapshots(columnar, oracle) == []
        names = [entry[1] for entry in columnar["exceptions"]]
        assert names == ["PageFault", "MBindError", "PageFault"]

    def test_unknown_engine_rejected(self):
        from repro.sanitize.fuzz import TraceReplayer

        with pytest.raises(ValueError):
            TraceReplayer("quantum")

    def test_snapshot_covers_both_sockets_and_the_kernel(self):
        snapshot, _ = replay(generate_trace(5, 200), "columnar")
        assert {"node0.write_lines", "node1.write_lines", "llc0", "llc1",
                "qpi_crossings", "kernel"} <= set(snapshot)


class TestFuzzer:
    def test_clean_stack_fuzzes_clean(self):
        result = DifferentialFuzzer(ops=800).run_trial(0)
        assert result.ok
        assert result.divergence is None
        assert result.violations == []

    def test_multiple_trials_use_distinct_seeds(self):
        fuzzer = DifferentialFuzzer(ops=100, check_every=0)
        results = fuzzer.run(seed=40, trials=3)
        assert [r.seed for r in results] == [40, 41, 42]
        assert all(r.ok for r in results)

    def test_result_to_dict_is_json_ready(self):
        import json

        result = DifferentialFuzzer(ops=100, check_every=0).run_trial(0)
        assert json.loads(json.dumps(result.to_dict()))["ok"] is True

    def test_invalid_ops_rejected(self):
        with pytest.raises(ValueError):
            DifferentialFuzzer(ops=0)


class TestMigratePlacementFuzz:
    """The migrate policy under the differential oracle: ticks inserted
    into the trace, every engine migrating identically."""

    def test_tick_insertion_preserves_base_trace(self):
        base = generate_trace(9, 200)
        ticked = generate_trace(9, 200, tick_every=50)
        # Historical traces stay byte-identical; ticks are a post-pass.
        assert [op for op in ticked if op.kind != "tick"] == base
        assert sum(1 for op in ticked if op.kind == "tick") == 4

    def test_tick_every_zero_inserts_nothing(self):
        assert generate_trace(9, 200, tick_every=0) == generate_trace(9, 200)

    def test_engines_agree_under_migrate_with_ticks(self):
        trace = generate_trace(13, 800, tick_every=64)
        columnar, violations_c = replay(trace, "columnar", check_every=64,
                                        placement="migrate")
        oracle, violations_o = replay(trace, "oracle", check_every=64,
                                      placement="migrate")
        assert diff_snapshots(columnar, oracle) == []
        assert violations_c == [] and violations_o == []

    def test_migrate_snapshot_tracks_migration_counters(self):
        trace = generate_trace(13, 800, tick_every=64)
        snapshot, _ = replay(trace, "columnar", placement="migrate")
        assert "node0.migration_write_lines" in snapshot
        assert "node1.migration_write_lines" in snapshot
        # kernel tuple: (..., pages_migrated, migration_writes)
        pages_migrated, migration_writes = snapshot["kernel"][-2:]
        assert migration_writes == pages_migrated * (PAGE_SIZE // 64)

    def test_fuzzer_accepts_placement_and_ticks(self):
        fuzzer = DifferentialFuzzer(ops=600, check_every=64,
                                    placement="migrate", tick_every=48)
        result = fuzzer.run_trial(0)
        assert result.ok
        assert result.to_dict()["placement"] == "migrate"

    def test_fuzzer_rejects_bad_placement_and_tick(self):
        with pytest.raises(ValueError):
            DifferentialFuzzer(ops=100, placement="bogus")
        with pytest.raises(ValueError):
            DifferentialFuzzer(ops=100, tick_every=-1)


class TestPlantedBugs:
    def test_short_block_bug_is_caught_and_shrunk(self):
        with planted_bug("short-block"):
            result = DifferentialFuzzer(ops=800,
                                        check_every=0).run_trial(0)
        assert result.divergence is not None
        report = result.divergence
        # The acceptance bar: a planted counter bug must shrink to a
        # trace a human can replay by hand.
        assert len(report.shrunk) <= 25
        assert report.keys  # names the diverging counters
        # The shrunk trace must still reproduce outside the shrinker.
        with planted_bug("short-block"):
            columnar, _ = replay(report.shrunk, "columnar")
            oracle, _ = replay(report.shrunk, "oracle")
        assert diff_snapshots(columnar, oracle)

    def test_short_block_report_describes_the_trace(self):
        with planted_bug("short-block"):
            result = DifferentialFuzzer(ops=400,
                                        check_every=0).run_trial(0)
        text = result.divergence.describe()
        assert "shrunk to" in text and "access" in text

    def test_lost_writeback_is_invisible_to_the_differential(self):
        # Both engines lose the same writes, so only the sanitizer's
        # write-conservation law can see this bug.
        with planted_bug("lost-writeback"):
            result = DifferentialFuzzer(ops=400).run_trial(0)
        assert result.divergence is None
        assert result.violations
        assert {v.law for v in result.violations} == {"write_conservation"}
        assert not result.ok

    def test_bugs_uninstall_cleanly(self):
        for name in PLANTED_BUGS:
            with planted_bug(name):
                pass
        result = DifferentialFuzzer(ops=300).run_trial(0)
        assert result.ok

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError):
            with planted_bug("heisenbug"):
                pass


class TestShrinking:
    def test_shrinks_to_the_single_culprit(self):
        # Only one op (the write) flips the fail bit; shrinking must
        # isolate it regardless of the noise around it.
        trace = [TraceOp("access", vaddr=DRAM_BASE + i * 64, size=8)
                 for i in range(20)]
        trace.insert(13, TraceOp("access", vaddr=DRAM_BASE, size=8,
                                 is_write=True))

        def fails(candidate):
            return any(op.is_write for op in candidate)

        shrunk, evals = shrink_trace(trace, fails)
        assert len(shrunk) == 1
        assert shrunk[0].is_write
        assert evals > 0

    def test_respects_the_eval_budget(self):
        trace = generate_trace(0, 256)
        calls = []

        def fails(candidate):
            calls.append(len(candidate))
            return True

        shrink_trace(trace, fails, max_evals=10)
        assert len(calls) <= 10

    def test_keeps_a_multi_op_dependency_together(self):
        # Failure needs the mmap *and* the access: neither alone.
        trace = generate_trace(9, 30)
        trace += [TraceOp("mmap", vaddr=0x700000, pages=1, node=1),
                  TraceOp("access", vaddr=0x700000, size=64,
                          is_write=True)]

        def fails(candidate):
            mapped = False
            for op in candidate:
                if op.kind == "mmap" and op.vaddr == 0x700000:
                    mapped = True
                if (op.kind == "access" and op.vaddr == 0x700000
                        and mapped):
                    return True
            return False

        shrunk, _ = shrink_trace(trace, fails)
        assert len(shrunk) == 2
