"""Journaled job store: crash-safe state for the simulation service.

Every job-state change is committed to an append-only write-ahead journal
*before* the in-memory view changes, so the store's durable state is always
at least as advanced as anything the service has acknowledged.  Restarting
after a crash — mid-append, mid-compaction, ``kill -9`` — replays the
journal back to exactly the acknowledged state:

- **Framing** is the :mod:`repro.storage` frame with magic ``RJNL``, one
  JSON record per frame.  A torn final record (crash mid-``write``) fails
  its length or CRC check; the next read-write open truncates that torn
  *tail* (no complete frame follows the break, so nothing acknowledged).
  Damage followed by valid records is refused with :class:`JobStoreError`
  and the file left untouched: cutting it would drop acknowledged jobs.
- **Commits** are atomic at the record level: the frame is written in one
  ``write`` call, flushed, and ``fsync``'d before the transition is
  applied in memory or acknowledged to a client.
- **Replay is idempotent**: every record carries a monotonic ``seq``;
  records at or below the last applied sequence are skipped, so duplicated
  records (a crash between append and acknowledge, then a retried append)
  cannot double-apply.  Records that are illegal against the replayed
  state (e.g. a stale transition for a job that already reached a terminal
  state) are skipped and counted rather than trusted — on replay the
  journal is evidence, not authority.
- **Compaction** folds the journal into an atomically-published snapshot
  (``jobs.snapshot.json``, tmp + fsync + rename) and then resets the
  journal the same way.  A crash between the two leaves a snapshot *and* a
  journal whose records are all ``seq <=`` the snapshot's — replay skips
  them, so recovery is correct from either side of the window.
- **Version skew is refused**, not guessed at: a journal record or
  snapshot written by a newer schema raises :class:`JobStoreError` with
  instructions instead of silently dropping state.  (Contrast with the
  trace index, which may rebuild because it is a pure cache — the journal
  is the *only* copy of job state.)

Deterministic crashpoints (``REPRO_FAULT``, :mod:`repro.execution.faults`)
cover the two interesting windows: ``jobstore:mid_commit`` tears a journal
append in half, ``jobstore:mid_compact`` dies between snapshot publish and
journal reset.  ``scripts/service_smoke.py`` drives both end to end.

Job lifecycle (full state machine in docs/SERVICE.md)::

    queued ──> running ──> done | failed | cancelled
      │  ^        │
      │  └────────┤  (requeue: worker died / heartbeat stale)
      └─> degraded ┘  (re-dispatch after >= 1 failure)

``degraded`` is "running, but not on the first attempt" — the service
analogue of the supervisor's degraded-mode statistics: visible at a
glance, never silently folded into ``running``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import storage
from repro.execution import faults

__all__ = [
    "JOBSTORE_SCHEMA_VERSION",
    "JOURNAL_MAGIC",
    "JOB_STATES",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "LEGAL_TRANSITIONS",
    "JobStoreError",
    "Job",
    "JobStore",
    "load_jobs",
]

JOBSTORE_SCHEMA_VERSION = 1
JOURNAL_MAGIC = b"RJNL"
JOURNAL_NAME = "jobs.journal"
SNAPSHOT_NAME = "jobs.snapshot.json"

#: Journal size that triggers an automatic compaction on the next commit.
DEFAULT_COMPACT_BYTES = 256 * 1024

JOB_STATES = ("queued", "running", "degraded", "done", "failed", "cancelled")
ACTIVE_STATES = frozenset({"running", "degraded"})
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Legal state transitions.  ``queued -> degraded`` is the re-dispatch of a
#: previously failed attempt; ``running|degraded -> queued`` is a requeue
#: after a worker death or stale heartbeat.  The active-state self-loops
#: are *field-update* records (the dispatcher journals the worker pid the
#: instant it knows it).  Terminal states are absorbing.
LEGAL_TRANSITIONS: Dict[str, frozenset] = {
    "queued": frozenset({"running", "degraded", "cancelled"}),
    "running": frozenset(
        {"queued", "running", "degraded", "done", "failed", "cancelled"}
    ),
    "degraded": frozenset({"queued", "degraded", "done", "failed", "cancelled"}),
    "done": frozenset(),
    "failed": frozenset(),
    "cancelled": frozenset(),
}

#: Job fields a transition record may update (beyond ``state``).
_MUTABLE_FIELDS = frozenset({
    "attempt", "retries", "max_retries", "not_before", "backoff_s",
    "worker_pid", "error", "exit_code", "exit_name", "result",
})


class JobStoreError(RuntimeError):
    """Raised for corrupt-beyond-salvage or version-skewed store files."""


# ---------------------------------------------------------------------------
# Job model


@dataclass
class Job:
    """One submitted job and everything the service knows about it.

    Attributes:
        id: store-assigned identifier (``J000001``, ...), unique per root.
        spec: the validated submission payload (kind, protocol, sizes,
            seed — see :func:`repro.service.worker.validate_spec`).
        state: one of :data:`JOB_STATES`.
        created_at / updated_at: wall-clock (``time.time``) bounds.
        attempt: 1-based count of dispatches so far (0 = never dispatched).
        retries: failed attempts so far; compared against ``max_retries``.
        max_retries: failure budget before the job lands in ``failed``.
        not_before: earliest wall-clock time the next dispatch may happen
            (set by the seeded-backoff requeue path).
        backoff_s: the exact delay the last requeue computed — journaled so
            retry schedules are auditable and testable after the fact.
        worker_pid: pid of the worker process while active, else ``None``.
        error: human-readable failure description (terminal failures and
            intermediate requeues both record one).
        exit_code / exit_name: the ``execution.shutdown.EXIT_CODES``
            taxonomy entry for the final failure (the job error contract).
        result: worker-produced result payload once ``done``.
    """

    id: str
    spec: Dict[str, Any]
    state: str = "queued"
    created_at: float = 0.0
    updated_at: float = 0.0
    attempt: int = 0
    retries: int = 0
    max_retries: int = 2
    not_before: float = 0.0
    backoff_s: Optional[float] = None
    worker_pid: Optional[int] = None
    error: Optional[str] = None
    exit_code: Optional[int] = None
    exit_name: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "spec": dict(self.spec),
            "state": self.state,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "attempt": self.attempt,
            "retries": self.retries,
            "max_retries": self.max_retries,
            "not_before": self.not_before,
            "backoff_s": self.backoff_s,
            "worker_pid": self.worker_pid,
            "error": self.error,
            "exit_code": self.exit_code,
            "exit_name": self.exit_name,
            "result": self.result,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Job":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in payload.items() if k in known})


# ---------------------------------------------------------------------------
# The store


class JobStore:
    """Durable job state backed by the WAL + snapshot pair under ``root``.

    Thread-safe: every public method takes the internal lock, so the HTTP
    handler threads and the dispatch loop can share one instance.  All
    mutations are journaled before they are applied; see the module
    docstring for the crash-consistency argument.

    Opening a root salvages a torn journal tail (truncating the file to
    the longest valid prefix, recorded in :attr:`salvaged_bytes`) and
    counts replay anomalies in :attr:`replay_skipped` — duplicated or
    stale records that idempotent replay ignored.
    """

    def __init__(
        self,
        root,
        *,
        compact_bytes: int = DEFAULT_COMPACT_BYTES,
        readonly: bool = False,
    ) -> None:
        self.root = Path(root)
        self.compact_bytes = int(compact_bytes)
        self.readonly = bool(readonly)
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._seq = 0
        self._next_job = 1
        self._journal: Optional[storage.Stream] = None
        self.salvaged_bytes = 0
        self.replay_skipped = 0
        if not self.readonly:
            self.root.mkdir(parents=True, exist_ok=True)
        self._load_snapshot()
        self._replay_journal()
        if not self.readonly:
            self._journal = self._open_journal()

    # -- paths ------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.root / JOURNAL_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.root / SNAPSHOT_NAME

    def job_dir(self, job_id: str) -> Path:
        """Scratch directory for one job's checkpoint/heartbeat/trace."""
        return self.root / job_id

    # -- recovery ---------------------------------------------------------

    def _load_snapshot(self) -> None:
        try:
            raw = self.snapshot_path.read_text()
        except FileNotFoundError:
            return
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise JobStoreError(
                f"job snapshot {self.snapshot_path} is corrupt ({exc}); "
                f"refusing to guess — move it aside to rebuild from the "
                f"journal alone"
            ) from exc
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema != JOBSTORE_SCHEMA_VERSION:
            raise JobStoreError(
                f"job snapshot schema v{schema!r} is not supported by this "
                f"build (expected v{JOBSTORE_SCHEMA_VERSION}); refusing to "
                f"replay — upgrade repro, or move the snapshot aside"
            )
        self._seq = int(payload.get("seq", 0))
        self._next_job = int(payload.get("next_job", 1))
        for job_id, doc in payload.get("jobs", {}).items():
            self._jobs[job_id] = Job.from_dict(doc)

    def _replay_journal(self) -> None:
        """Replay the longest valid prefix; cut a torn tail, refuse other damage."""
        try:
            data = self.journal_path.read_bytes()
        except FileNotFoundError:
            return
        head = data[:len(JOURNAL_MAGIC)]
        if not JOURNAL_MAGIC.startswith(head):
            raise JobStoreError(
                f"not a job journal: bad magic {head!r} at offset 0 "
                f"(expected {JOURNAL_MAGIC!r})"
            )
        frames = storage.FrameScan(data, JOURNAL_MAGIC)
        for body in frames:
            try:
                record = json.loads(body.decode("utf-8"))
            except ValueError:
                break
            if not isinstance(record, dict):
                break
            schema = record.get("schema")
            if schema != JOBSTORE_SCHEMA_VERSION:
                raise JobStoreError(
                    f"job journal record schema v{schema!r} is not supported "
                    f"by this build (expected v{JOBSTORE_SCHEMA_VERSION}); "
                    f"refusing to replay — upgrade repro, or move the journal "
                    f"aside to start fresh"
                )
            self._apply(record, strict=False)
        self.salvaged_bytes = len(data) - frames.end
        if self.readonly or not self.salvaged_bytes:
            return
        later = frames.next_frame()
        if later is not None:
            raise JobStoreError(
                f"job journal {self.journal_path} is damaged at byte "
                f"{frames.end}, but a valid record follows at byte {later}; "
                f"refusing to truncate acknowledged jobs — repair or move "
                f"the journal aside (load_jobs reads the valid prefix)"
            )
        # No complete record follows the break, so none of the torn bytes
        # was acknowledged; the next append starts on a record boundary.
        storage.truncate(self.journal_path, frames.end)

    # -- record application ----------------------------------------------

    def _apply(self, record: Dict[str, Any], *, strict: bool) -> Optional[Job]:
        seq = int(record.get("seq", 0))
        if seq <= self._seq and not strict:
            # Idempotent replay: at-or-below the applied watermark means the
            # record (or its effect, via the snapshot) is already in.
            self.replay_skipped += 1
            return None
        job_id = record.get("job")
        to = record.get("to")
        at = float(record.get("at", 0.0))
        fields = record.get("fields") or {}
        job = self._jobs.get(job_id)
        if job is None:
            if to == "queued" and "spec" in fields:
                job = Job(
                    id=job_id,
                    spec=fields["spec"],
                    state="queued",
                    created_at=at,
                    updated_at=at,
                    max_retries=int(fields.get("max_retries", 2)),
                )
                self._jobs[job_id] = job
                self._seq = max(self._seq, seq)
                self._bump_next_job(job_id)
                return job
            if strict:
                raise JobStoreError(f"unknown job {job_id!r}")
            self.replay_skipped += 1
            self._seq = max(self._seq, seq)
            return None
        if to == "queued" and "spec" in fields:
            # Duplicate submit for an existing id: replay-only, skip.
            if strict:
                raise JobStoreError(f"job {job_id!r} already exists")
            self.replay_skipped += 1
            self._seq = max(self._seq, seq)
            return job
        if to not in LEGAL_TRANSITIONS.get(job.state, frozenset()):
            if strict:
                raise JobStoreError(
                    f"illegal transition {job.state!r} -> {to!r} for job "
                    f"{job_id!r}"
                )
            self.replay_skipped += 1
            self._seq = max(self._seq, seq)
            return job
        job.state = to
        job.updated_at = at
        for key, value in fields.items():
            if key in _MUTABLE_FIELDS:
                setattr(job, key, value)
        self._seq = max(self._seq, seq)
        return job

    def _bump_next_job(self, job_id: str) -> None:
        if job_id.startswith("J"):
            try:
                self._next_job = max(self._next_job, int(job_id[1:]) + 1)
            except ValueError:
                pass

    # -- the committed write path ----------------------------------------

    def _open_journal(self) -> storage.Stream:
        # The jobstore:mid_commit crashpoint tears an append in half;
        # restart must salvage the torn tail and keep every earlier commit.
        return storage.Stream(
            self.journal_path, "jobstore:mid_commit", staged=False
        )

    def _append(self, record: Dict[str, Any]) -> None:
        if self.readonly or self._journal is None:
            raise JobStoreError("job store opened read-only")
        body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        self._journal.write(storage.frame(JOURNAL_MAGIC, body))
        self._journal.sync()

    def _commit(self, job_id: str, to: str, at: float, fields: Dict[str, Any]) -> Job:
        record = {
            "schema": JOBSTORE_SCHEMA_VERSION,
            "seq": self._seq + 1,
            "job": job_id,
            "to": to,
            "at": at,
            "fields": fields,
        }
        self._append(record)
        job = self._apply(record, strict=True)
        assert job is not None
        self._maybe_compact()
        return job

    # -- public mutations -------------------------------------------------

    def submit(
        self,
        spec: Dict[str, Any],
        *,
        max_retries: int = 2,
        at: Optional[float] = None,
    ) -> Job:
        """Durably enqueue a new job; returns it once the WAL holds it."""
        with self._lock:
            job_id = f"J{self._next_job:06d}"
            self._next_job += 1
            return self._commit(
                job_id,
                "queued",
                time.time() if at is None else at,
                {"spec": spec, "max_retries": int(max_retries)},
            )

    def transition(
        self, job_id: str, to: str, *, at: Optional[float] = None, **fields: Any
    ) -> Job:
        """Durably move ``job_id`` to state ``to``, updating ``fields``.

        Raises :class:`JobStoreError` if the job is unknown or the
        transition is illegal — the live path is strict; only crash
        *replay* is forgiving.
        """
        with self._lock:
            if job_id not in self._jobs:
                raise JobStoreError(f"unknown job {job_id!r}")
            unknown = set(fields) - _MUTABLE_FIELDS
            if unknown:
                raise JobStoreError(f"unknown job fields {sorted(unknown)!r}")
            return self._commit(
                job_id, to, time.time() if at is None else at, fields
            )

    # -- queries ----------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise JobStoreError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        """All jobs, oldest submission first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.id)

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (every state present, zeros included)."""
        out = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
        return out

    @property
    def seq(self) -> int:
        return self._seq

    # -- compaction -------------------------------------------------------

    def _maybe_compact(self) -> None:
        if self._journal is None:
            return
        try:
            size = self.journal_path.stat().st_size
        except OSError:
            return
        if size >= self.compact_bytes:
            self.compact()

    def compact(self) -> None:
        """Fold the journal into a fresh snapshot and reset the journal.

        Both publishes are atomic (tmp + fsync + rename); the
        ``jobstore:mid_compact`` crashpoint sits in the window between
        them, where the snapshot already covers every journal record —
        replay after a crash there skips the stale records by sequence
        number, so no state is lost or duplicated.
        """
        with self._lock:
            if self.readonly or self._journal is None:
                raise JobStoreError("job store opened read-only")
            snapshot = {
                "schema": JOBSTORE_SCHEMA_VERSION,
                "seq": self._seq,
                "next_job": self._next_job,
                "jobs": {job_id: job.to_dict() for job_id, job in self._jobs.items()},
            }
            text = json.dumps(snapshot, sort_keys=True)
            storage.publish(self.snapshot_path, text.encode())
            faults.crashpoint("jobstore:mid_compact")
            self._journal.close()
            storage.publish(self.journal_path)
            self._journal = self._open_journal()

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_jobs(root) -> JobStore:
    """Read-only view of a service root (no salvage truncation, no appends).

    This is what ``repro watch`` and other observers use: it replays the
    snapshot + journal entirely in memory, tolerating a torn tail, and
    never mutates the files it reads.
    """
    return JobStore(root, readonly=True)
