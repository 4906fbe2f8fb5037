"""WAL edge cases for the journaled job store.

Mirrors the corrupt-handling philosophy of ``tests/analysis/test_index.py``
— but where the trace index may silently rebuild (it is a cache), the job
journal is the only copy of job state, so torn tails are *salvaged*,
duplicates are *idempotent*, and version skew is *refused*.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib

import pytest

from repro import storage
from repro.execution.shutdown import EXIT_FAULT_INJECTED
from repro.service.jobstore import (
    JOBSTORE_SCHEMA_VERSION,
    JOURNAL_MAGIC,
    Job,
    JobStore,
    JobStoreError,
    load_jobs,
)

SPEC = {"kind": "ensemble", "protocol": "voter", "n": 30, "replicas": 4,
        "max_rounds": 100, "seed": 1}


def make_store(root, **kwargs) -> JobStore:
    return JobStore(root / "svc", **kwargs)


class TestBasics:
    def test_submit_assigns_sequential_ids(self, tmp_path):
        store = make_store(tmp_path)
        first = store.submit(SPEC)
        second = store.submit(SPEC)
        assert (first.id, second.id) == ("J000001", "J000002")
        assert first.state == "queued"
        assert store.counts()["queued"] == 2

    def test_transition_updates_state_and_fields(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(SPEC)
        updated = store.transition(job.id, "running", attempt=1, worker_pid=42)
        assert updated.state == "running"
        assert updated.attempt == 1
        assert updated.worker_pid == 42

    def test_illegal_transition_raises_on_the_live_path(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(SPEC)
        store.transition(job.id, "cancelled")
        with pytest.raises(JobStoreError, match="illegal transition"):
            store.transition(job.id, "running")

    def test_unknown_job_and_field_are_refused(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(JobStoreError, match="unknown job"):
            store.transition("J999999", "running")
        job = store.submit(SPEC)
        with pytest.raises(JobStoreError, match="unknown job fields"):
            store.transition(job.id, "running", nonsense=1)

    def test_active_self_loop_updates_fields(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(SPEC)
        store.transition(job.id, "running", attempt=1)
        updated = store.transition(job.id, "running", worker_pid=77)
        assert updated.state == "running"
        assert updated.worker_pid == 77

    def test_job_roundtrips_through_dict(self):
        job = Job(id="J000001", spec=SPEC, state="failed", exit_code=5,
                  exit_name="EXIT_INTERRUPTED", backoff_s=0.25)
        clone = Job.from_dict(job.to_dict())
        assert clone == job
        assert Job.from_dict({**job.to_dict(), "future_field": 1}) == job


class TestReplay:
    def test_reopen_replays_the_journal(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(SPEC)
        store.transition(job.id, "running", attempt=1)
        store.transition(job.id, "done", result={"ok": True})
        store.close()

        reopened = make_store(tmp_path)
        replayed = reopened.get(job.id)
        assert replayed.state == "done"
        assert replayed.result == {"ok": True}
        assert reopened.salvaged_bytes == 0

    def test_torn_final_record_is_salvaged_and_truncated(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(SPEC)
        store.transition(job.id, "running", attempt=1)
        store.close()
        journal = store.journal_path
        intact = journal.stat().st_size
        frame = storage.frame(JOURNAL_MAGIC, b'{"schema": 1, "seq": 3}')
        with open(journal, "ab") as handle:
            handle.write(frame[: len(frame) // 2])

        reopened = make_store(tmp_path)
        assert reopened.salvaged_bytes == len(frame) // 2
        assert reopened.get(job.id).state == "running"
        assert journal.stat().st_size == intact  # torn tail truncated away
        # The journal accepts appends again after the salvage.
        reopened.transition(job.id, "done")
        reopened.close()
        assert make_store(tmp_path).get(job.id).state == "done"

    def test_duplicate_transition_replay_is_idempotent(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(SPEC)
        store.transition(job.id, "running", attempt=1)
        store.close()
        journal = store.journal_path
        data = journal.read_bytes()
        # Duplicate the entire journal: every record replays twice.
        journal.write_bytes(data + data)

        reopened = make_store(tmp_path)
        assert reopened.get(job.id).state == "running"
        assert reopened.get(job.id).attempt == 1
        assert len(reopened.jobs()) == 1
        assert reopened.replay_skipped >= 2
        # The watermark still advances past the duplicates.
        reopened.transition(job.id, "done")
        reopened.close()
        assert make_store(tmp_path).get(job.id).state == "done"

    def test_garbage_mid_file_ends_the_walk_keeping_the_prefix(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(SPEC)
        store.close()
        with open(store.journal_path, "ab") as handle:
            handle.write(b"\x00garbage-that-is-not-a-frame\xff" * 4)

        reopened = make_store(tmp_path)
        assert reopened.get(job.id).state == "queued"
        assert reopened.salvaged_bytes > 0

    def test_damage_before_valid_records_is_refused_not_truncated(self, tmp_path):
        store = make_store(tmp_path)
        first = store.submit(SPEC)
        second = store.submit(SPEC)
        store.transition(first.id, "running", attempt=1)
        store.transition(second.id, "cancelled")
        store.close()
        journal = store.journal_path
        intact = journal.read_bytes()
        frames = storage.FrameScan(intact, JOURNAL_MAGIC)
        starts = [frames.end for _ in frames]  # each record's offset
        for record in (0, 1):
            data = bytearray(intact)
            data[starts[record] + 20] ^= 1  # one bit inside the record body
            journal.write_bytes(bytes(data))
            with pytest.raises(
                JobStoreError, match=f"damaged at byte {starts[record]},"
            ):
                JobStore(store.root)
            assert journal.read_bytes() == bytes(data)  # left untouched
            # The read-only view still serves the valid prefix.
            view = load_jobs(store.root)
            assert [j.id for j in view.jobs()] == [first.id, second.id][:record]

    def test_corrupted_crc_ends_the_walk(self, tmp_path):
        store = make_store(tmp_path)
        store.submit(SPEC)
        second = store.submit(SPEC)
        store.close()
        data = bytearray(store.journal_path.read_bytes())
        data[-6] ^= 0xFF  # flip a bit inside the final record's CRC/length
        store.journal_path.write_bytes(bytes(data))

        reopened = make_store(tmp_path)
        assert len(reopened.jobs()) == 1  # second submit salvaged away
        assert second.id not in {j.id for j in reopened.jobs()}


class TestSnapshotCompaction:
    def test_snapshot_plus_journal_replay_equivalence(self, tmp_path):
        plain = JobStore(tmp_path / "plain")
        compacted = JobStore(tmp_path / "compacted")
        for store in (plain, compacted):
            job = store.submit(SPEC, at=1.0)
            store.transition(job.id, "running", attempt=1, at=2.0)
        compacted.compact()
        for store in (plain, compacted):
            job2 = store.submit({**SPEC, "seed": 2}, at=3.0)
            store.transition(job2.id, "cancelled", at=4.0)
            store.close()

        a = JobStore(tmp_path / "plain", readonly=True)
        b = JobStore(tmp_path / "compacted", readonly=True)
        assert [j.to_dict() for j in a.jobs()] == [j.to_dict() for j in b.jobs()]
        assert a.seq == b.seq
        assert b.snapshot_path.exists() and not a.snapshot_path.exists()

    def test_compaction_resets_the_journal(self, tmp_path):
        store = make_store(tmp_path)
        for _ in range(5):
            store.submit(SPEC)
        before = store.journal_path.stat().st_size
        store.compact()
        assert store.journal_path.stat().st_size == 0
        assert before > 0
        # Post-compaction appends land in the fresh journal and replay.
        job = store.submit(SPEC)
        store.close()
        assert make_store(tmp_path).get(job.id).state == "queued"

    def test_auto_compaction_by_journal_size(self, tmp_path):
        store = JobStore(tmp_path / "svc", compact_bytes=512)
        for _ in range(20):
            store.submit(SPEC)
        assert store.snapshot_path.exists()
        assert store.journal_path.stat().st_size < 512
        assert len(make_store(tmp_path).jobs()) == 20

    def test_stale_journal_records_skipped_after_snapshot(self, tmp_path):
        """The mid-compact crash shape: snapshot new, journal old."""
        store = make_store(tmp_path)
        job = store.submit(SPEC)
        store.transition(job.id, "running", attempt=1)
        journal_before = store.journal_path.read_bytes()
        store.compact()
        # Simulate dying between snapshot publish and journal reset by
        # restoring the pre-compaction journal next to the new snapshot.
        store.close()
        store.journal_path.write_bytes(journal_before)

        reopened = make_store(tmp_path)
        assert len(reopened.jobs()) == 1
        assert reopened.get(job.id).state == "running"
        assert reopened.replay_skipped == len(list(
            storage.FrameScan(journal_before, JOURNAL_MAGIC)
        ))


class TestVersionSkewAndCorruption:
    def test_version_skew_journal_refuses_with_clear_error(self, tmp_path):
        root = tmp_path / "svc"
        root.mkdir()
        record = {"schema": JOBSTORE_SCHEMA_VERSION + 1, "seq": 1,
                  "job": "J000001", "to": "queued", "at": 0.0, "fields": {}}
        (root / "jobs.journal").write_bytes(
            storage.frame(JOURNAL_MAGIC, json.dumps(record).encode())
        )
        with pytest.raises(JobStoreError, match="schema v2 is not supported"):
            JobStore(root)

    def test_version_skew_snapshot_refuses(self, tmp_path):
        root = tmp_path / "svc"
        root.mkdir()
        (root / "jobs.snapshot.json").write_text(json.dumps(
            {"schema": JOBSTORE_SCHEMA_VERSION + 1, "seq": 0, "jobs": {}}
        ))
        with pytest.raises(JobStoreError, match="not supported"):
            JobStore(root)

    def test_corrupt_snapshot_refuses(self, tmp_path):
        root = tmp_path / "svc"
        root.mkdir()
        (root / "jobs.snapshot.json").write_text("{never finished")
        with pytest.raises(JobStoreError, match="corrupt"):
            JobStore(root)

    def test_foreign_file_as_journal_refuses(self, tmp_path):
        root = tmp_path / "svc"
        root.mkdir()
        (root / "jobs.journal").write_bytes(b"PK\x03\x04 definitely a zip")
        with pytest.raises(JobStoreError, match="bad magic"):
            JobStore(root)


class TestReadonlyView:
    def test_load_jobs_does_not_truncate_torn_tails(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(SPEC)
        store.close()
        with open(store.journal_path, "ab") as handle:
            handle.write(b"torn!")
        size_before = store.journal_path.stat().st_size

        view = load_jobs(store.root)
        assert view.get(job.id).state == "queued"
        assert view.salvaged_bytes == 5
        assert store.journal_path.stat().st_size == size_before

    def test_load_jobs_refuses_mutation(self, tmp_path):
        store = make_store(tmp_path)
        store.submit(SPEC)
        store.close()
        view = load_jobs(store.root)
        with pytest.raises(JobStoreError, match="read-only"):
            view.submit(SPEC)


class TestMidCommitCrashpoint:
    def test_fault_tears_the_commit_and_restart_salvages(self, tmp_path):
        """REPRO_FAULT=jobstore:mid_commit:2 dies mid-append of commit 2."""
        root = tmp_path / "svc"
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        script = (
            "import sys; sys.path.insert(0, %r)\n"
            "from repro.service.jobstore import JobStore\n"
            "store = JobStore(%r)\n"
            "store.submit({'kind': 'ensemble', 'seed': 1})\n"
            "store.submit({'kind': 'ensemble', 'seed': 2})\n"
            "raise SystemExit('unreachable: fault must have tripped')\n"
        ) % (src, str(root))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "REPRO_FAULT": "jobstore:mid_commit:2"},
            capture_output=True, text=True,
        )
        assert completed.returncode == EXIT_FAULT_INJECTED, completed.stderr

        reopened = JobStore(root)
        assert reopened.salvaged_bytes > 0  # half a frame was on disk
        jobs = reopened.jobs()
        assert [j.id for j in jobs] == ["J000001"]  # commit 1 survived
        # The store keeps working: the salvaged id space is reusable.
        second = reopened.submit({"kind": "ensemble", "seed": 2})
        assert second.id == "J000002"
