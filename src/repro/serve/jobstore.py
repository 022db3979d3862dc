"""Durable job state for ``repro serve``: journal, cache, checkpoints.

Everything the service must not lose lives under one *store root*::

    <root>/jobs.jsonl        append-only job event journal
    <root>/cache/<digest>.json   content-addressed result payloads
    <root>/ckpt/<job_id>.jsonl   per-job sweep checkpoints (PR-3 format)

The journal is the recovery spine.  Every job state transition appends
one fsync'd JSONL record; on restart :meth:`JobStore.recover` folds the
records per job (later records win field-by-field) and hands the
non-terminal jobs back to the app, which re-admits them.  The actual
run *results* are never in the journal — they are either in the per-job
sweep checkpoint (resumable mid-job) or in the content-addressed cache
(job finished) — so a journal record stays small and a torn tail costs
at most one state transition, never data.

Journal records carry a monotonically increasing ``seq`` instead of a
wall-clock timestamp: the repo-wide determinism lint (D002) bans
``time.time`` everywhere, and ordering is all recovery needs.

Both JSONL files reuse the torn-tail salvage/repair machinery the sweep
checkpoint grew in this PR (:func:`repro.harness.checkpoint.salvage_jsonl`
/ :func:`repro.harness.checkpoint.repair_jsonl_tail`), so a SIGKILL
between ``write`` and ``fsync`` can never poison recovery.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.harness.checkpoint import repair_jsonl_tail, salvage_jsonl
from repro.observability.metrics import METRICS
from repro.probe import PROBES

#: Bump when the journal record layout changes incompatibly.
JOURNAL_SCHEMA = "repro.serve_journal/v1"


class JobStore:
    """Filesystem-backed job journal + result cache + checkpoint dir."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.cache_dir = os.path.join(root, "cache")
        self.ckpt_dir = os.path.join(root, "ckpt")
        for directory in (self.root, self.cache_dir, self.ckpt_dir):
            os.makedirs(directory, exist_ok=True)
        self.journal_path = os.path.join(root, "jobs.jsonl")
        #: Next journal sequence number (restored by :meth:`recover`).
        self.seq = 0

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def append_event(self, job_id: str, state: str, **fields) -> None:
        """Record one job state transition, durably.

        The write is flushed and fsync'd before returning — the same
        discipline as the sweep checkpoint — so an accepted job can
        never vanish in a crash.  A torn tail left by an earlier crash
        is truncated first so this record cannot fuse with it.
        """
        record = {"schema": JOURNAL_SCHEMA, "seq": self.seq,
                  "job": job_id, "state": state}
        record.update(fields)
        repair_jsonl_tail(self.journal_path, label="serve.journal")
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.seq += 1

    def recover(self) -> Dict[str, Dict]:
        """Fold the journal into ``{job_id: merged_record}``.

        Records merge per job in sequence order — later fields win —
        so the merged record's ``state`` is the job's last known state.
        Insertion order of the returned dict is first-appearance order,
        which is admission order (the order re-admitted jobs should
        re-queue in).  Torn tails and malformed lines are salvaged
        around exactly like sweep checkpoints.
        """
        jobs: Dict[str, Dict] = {}
        lines, _ = salvage_jsonl(self.journal_path, label="serve.journal")
        top_seq = -1
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if record.get("schema") != JOURNAL_SCHEMA:
                    continue
                job_id = record["job"]
                seq = record["seq"]
            except (ValueError, KeyError, TypeError):
                METRICS.inc("serve.journal.skipped_records")
                continue
            top_seq = max(top_seq, seq)
            jobs.setdefault(job_id, {}).update(record)
        self.seq = top_seq + 1
        return jobs

    # ------------------------------------------------------------------
    # Content-addressed result cache
    # ------------------------------------------------------------------
    def cache_path(self, digest: str) -> str:
        return os.path.join(self.cache_dir, f"{digest}.json")

    def load_result(self, digest: str) -> Optional[Dict]:
        """The memoized payload for a spec digest, or None."""
        try:
            with open(self.cache_path(digest), "r",
                      encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except ValueError:
            # A corrupt cache entry (e.g. a crash mid-store before this
            # method wrote atomically) is a miss, not an error.
            METRICS.inc("serve.cache_corrupt")
            return None

    def store_result(self, digest: str, payload: Dict) -> None:
        """Persist a payload at its content address, atomically.

        Written to a temp file then renamed so readers (and crashes)
        never observe a half-written entry.  The fault site
        ``serve.result_write`` fires before the write so chaos tests
        can prove a failed store leaves the job result recoverable
        from its checkpoint.
        """
        if PROBES.on:
            PROBES.fire("serve.result_write", digest=digest)
        path = self.cache_path(digest)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Per-job sweep checkpoints
    # ------------------------------------------------------------------
    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.ckpt_dir, f"{job_id}.jsonl")

    def discard_checkpoint(self, job_id: str) -> None:
        """Drop a finished job's checkpoint (its data now lives in the
        result cache)."""
        try:
            os.remove(self.checkpoint_path(job_id))
        except FileNotFoundError:
            pass
