"""Atomic heartbeat files: a crash-safe, externally readable progress surface.

A *heartbeat* is a small JSON document a running process rewrites
periodically — last round, replicas done, rounds/sec, attempt count, and a
:mod:`~repro.telemetry.resources` sample — published with the repo's
standard write-tmp-fsync-rename discipline so readers never see a torn
file from a well-behaved writer.  Heartbeats live next to the run's
checkpoints (``<base>.heartbeat.json``; per-shard workers write
``<base>.shard<k>.heartbeat.json``) and are the *only* thing ``repro
watch`` and the ``/metrics`` endpoint need: no IPC with the run, so both
keep working on a dead run as a post-mortem view.

Readers are salvage-tolerant by construction: :func:`read_heartbeat`
returns ``None`` for a missing, truncated, or otherwise unparsable file
instead of raising, because a heartbeat is a *hint*, never a source of
truth — the checkpoint is.  The ``heartbeat:mid_write`` crashpoint
(:mod:`repro.execution.faults`) deliberately publishes a half-written
payload and dies, so the fault-smoke protocol can prove that tolerance
instead of asserting it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, List, Mapping, Optional, Tuple, Union

from repro import storage
from repro.execution import faults
from repro.telemetry.recorder import Recorder, RunProvenance
from repro.telemetry.resources import sample_resources

__all__ = [
    "HEARTBEAT_SCHEMA_VERSION",
    "HEARTBEAT_SUFFIX",
    "Heartbeat",
    "HeartbeatRecorder",
    "discover_heartbeats",
    "heartbeat_path",
    "read_heartbeat",
    "write_heartbeat",
]

HEARTBEAT_SCHEMA_VERSION = 1

HEARTBEAT_SUFFIX = ".heartbeat.json"
"""Filename suffix shared by every heartbeat, so discovery is one glob."""


@dataclass
class Heartbeat:
    """One process's most recent progress report (the heartbeat file schema).

    Attributes:
        role: ``"run"`` (serial runner), ``"shard"`` (pool worker), or
            ``"supervisor"`` (the parent supervision loop).
        status: ``"running"``, ``"done"``, ``"failed"`` (quarantined), or
            ``"interrupted"`` (graceful shutdown).
        pid: writer's process id.
        updated_at: Unix wall-clock time of the last write; staleness
            relative to now is how watchers tell *stuck* from *slow*.
        round: last completed round (the runner's ``t``).
        max_rounds: round budget, when known (ETA denominator).
        replicas / replicas_done: assigned vs converged-or-censored chains.
        rounds_per_second: writer-measured throughput since its start.
        shard: shard index (``role="shard"`` only).
        shards: total shard count (``role="supervisor"`` only).
        attempt: 1-based attempt number of this shard execution.
        retries / timeouts / failed_shards: supervision counters
            (``role="supervisor"`` only).
        rss_bytes / peak_rss_bytes / cpu_s: the writer's
            :class:`~repro.telemetry.resources.ResourceSample`.
        schema: heartbeat schema version (:data:`HEARTBEAT_SCHEMA_VERSION`).
    """

    role: str
    status: str = "running"
    pid: int = 0
    updated_at: float = 0.0
    round: int = 0
    max_rounds: Optional[int] = None
    replicas: Optional[int] = None
    replicas_done: Optional[int] = None
    rounds_per_second: Optional[float] = None
    shard: Optional[int] = None
    shards: Optional[int] = None
    attempt: Optional[int] = None
    retries: int = 0
    timeouts: int = 0
    failed_shards: int = 0
    rss_bytes: Optional[int] = None
    peak_rss_bytes: Optional[int] = None
    cpu_s: Optional[float] = None
    schema: int = HEARTBEAT_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "Heartbeat":
        """Rebuild a heartbeat, ignoring unknown keys (schema tolerance)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in document.items() if k in known})

    def age_s(self, now: Optional[float] = None) -> float:
        """Seconds since the last write (against ``now`` or the wall clock)."""
        return max(0.0, (time.time() if now is None else now) - self.updated_at)

    @property
    def terminal(self) -> bool:
        """True once the writer reported it will not write again."""
        return self.status in ("done", "failed", "interrupted")


def heartbeat_path(base: Union[str, Path]) -> Path:
    """The heartbeat file belonging to a checkpoint/run base path."""
    base = Path(base)
    return base.with_name(base.name + HEARTBEAT_SUFFIX)


def write_heartbeat(path: Union[str, Path], heartbeat: Heartbeat) -> Path:
    """Atomically publish ``heartbeat`` at ``path`` (tmp + fsync + rename).

    Carries the ``heartbeat:mid_write`` crashpoint: when armed, half the
    serialized payload is published *through the rename* and the process
    dies — the one way a reader can ever meet a torn heartbeat, kept
    deliberately reachable so salvage tolerance stays proven.
    """
    payload = json.dumps(heartbeat.to_dict(), sort_keys=True) + "\n"
    torn = faults.should_trip("heartbeat:mid_write")
    if torn:
        payload = payload[: len(payload) // 2]
    path = storage.publish(path, payload.encode())
    if torn:
        faults.trip("heartbeat:mid_write")
    return path


def read_heartbeat(path: Union[str, Path]) -> Optional[Heartbeat]:
    """Read one heartbeat; ``None`` when missing, torn, or unparsable.

    Never raises on bad content: a heartbeat is advisory, and the reader
    may race a crash (or the ``heartbeat:mid_write`` fault) that left half
    a document behind.
    """
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict) or "role" not in document:
        return None
    try:
        return Heartbeat.from_dict(document)
    except TypeError:
        return None


def discover_heartbeats(
    path: Union[str, Path],
) -> List[Tuple[Path, Optional[Heartbeat]]]:
    """Every heartbeat file belonging to ``path``, parsed salvage-tolerantly.

    ``path`` may be a directory (all heartbeats inside it) or a run/
    checkpoint base path (``<base>*.heartbeat.json`` next to it, which
    collects the run's own heartbeat plus every ``.shard<k>`` one).
    Entries are ``(file, heartbeat-or-None)`` sorted by filename; ``None``
    marks a torn file, which watchers render instead of hiding.
    """
    path = Path(path)
    if path.is_dir():
        candidates = sorted(path.glob(f"*{HEARTBEAT_SUFFIX}"))
    else:
        candidates = sorted(path.parent.glob(f"{path.name}*{HEARTBEAT_SUFFIX}"))
    return [(candidate, read_heartbeat(candidate)) for candidate in candidates]


class HeartbeatRecorder(Recorder):
    """A :class:`~repro.telemetry.recorder.Recorder` that writes heartbeats.

    Composes with any other recorder via
    :func:`~repro.telemetry.recorder.compose_recorders`; it harvests the
    budget and replica count from the run's provenance, tracks progress
    through ``round_recorded`` (the ``active`` extra turns into
    ``replicas_done``), and rewrites the heartbeat file at most once per
    ``interval_s`` of wall clock (``0.0`` = every round, used by the
    fault-smoke harness for deterministic crashpoint visit counts).
    """

    enabled = True

    def __init__(
        self,
        path: Union[str, Path],
        *,
        role: str = "run",
        shard: Optional[int] = None,
        attempt: Optional[int] = None,
        interval_s: float = 1.0,
        _clock=time.monotonic,
    ) -> None:
        self.path = Path(path)
        self.interval_s = float(interval_s)
        self.writes = 0
        self._clock = _clock
        self._started_at: Optional[float] = None
        self._last_write: Optional[float] = None
        self._rounds_seen = 0
        self._beat = Heartbeat(
            role=role, shard=shard, attempt=attempt, pid=os.getpid()
        )

    # -- Recorder hooks --------------------------------------------------

    def run_started(self, provenance: RunProvenance) -> None:
        params = provenance.params if provenance is not None else {}
        beat = self._beat
        beat.status = "running"
        budget = params.get("max_rounds")
        beat.max_rounds = int(budget) if budget is not None else None
        replicas = params.get("replicas")
        beat.replicas = int(replicas) if replicas is not None else None
        if beat.replicas is not None:
            beat.replicas_done = 0
        self._started_at = self._clock()
        self._flush()

    def round_recorded(self, t, count, extra=None) -> None:
        beat = self._beat
        beat.round = int(t)
        self._rounds_seen += 1
        if extra:
            active = extra.get("active")
            if active is not None and beat.replicas is not None:
                beat.replicas_done = max(0, beat.replicas - int(active))
        now = self._clock()
        if self._last_write is None or now - self._last_write >= self.interval_s:
            self._flush()

    def run_finished(self, summary) -> None:
        beat = self._beat
        beat.status = "done"
        if summary:
            converged = summary.get("converged")
            if beat.replicas is not None and converged is not None:
                beat.replicas_done = int(converged) + int(
                    summary.get("censored") or 0
                )
            final_round = summary.get("final_round")
            if final_round:
                beat.round = max(beat.round, int(final_round))
        self._flush()

    # -- plumbing --------------------------------------------------------

    def _flush(self) -> None:
        beat = self._beat
        beat.updated_at = time.time()
        sample = sample_resources()
        beat.rss_bytes = sample.rss_bytes
        beat.peak_rss_bytes = sample.peak_rss_bytes
        beat.cpu_s = sample.cpu_s
        now = self._clock()
        if self._started_at is not None and now > self._started_at:
            beat.rounds_per_second = self._rounds_seen / (now - self._started_at)
        write_heartbeat(self.path, beat)
        self.writes += 1
        self._last_write = now
