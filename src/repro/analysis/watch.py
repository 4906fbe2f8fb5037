"""`repro watch`: a live terminal dashboard over heartbeat + trace files.

The watcher is a pure *reader*: it tails the atomic heartbeat files a run
(serial or supervised) publishes next to its checkpoints, plus the last
round record of any traces (JSONL or columnar) beside them, and renders
per-shard
progress bars, throughput, ETA, attempt counts, memory, and quarantine
state.  No IPC with the run means the same command is a post-mortem
viewer: pointed at a dead run's directory it renders the final (or torn)
heartbeats exactly as the crash left them — "is it stuck or just slow?"
answered from the filesystem alone.

Staleness is the liveness signal: a non-terminal heartbeat older than
``stale_after`` seconds is flagged ``stale?``, because a healthy writer
rewrites its file at least once per interval.  Torn heartbeats (the
``heartbeat:mid_write`` fault, or a crash mid-rename on a non-atomic
filesystem) render as ``UNREADABLE`` rather than being hidden.

Pointed at a *service* root (a directory holding ``jobs.journal`` /
``jobs.snapshot.json``, see docs/SERVICE.md) the watcher switches to the
job view: one line per job with its journaled state, attempt/retry
counts, and the per-job heartbeat — an active job whose heartbeat is
stale (or missing) is flagged ``ORPHANED?``, exactly the condition the
service's own restart recovery acts on.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro import storage
from repro.telemetry.heartbeat import (
    HEARTBEAT_SUFFIX,
    Heartbeat,
    discover_heartbeats,
)
from repro.telemetry.jsonl import detect_trace_format

__all__ = [
    "discover_traces",
    "is_service_root",
    "render_frame",
    "render_service_frame",
    "tail_trace_round",
    "watch",
]

_BAR_WIDTH = 20
_TAIL_BYTES = 65536


def _format_bytes(count: Optional[int]) -> str:
    if count is None:
        return "-"
    value = float(count)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024 or unit == "TB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}TB"  # pragma: no cover - loop always returns


def _format_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _bar(fraction: Optional[float]) -> str:
    if fraction is None:
        return "[" + "?" * _BAR_WIDTH + "]"
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * _BAR_WIDTH))
    return "[" + "#" * filled + "-" * (_BAR_WIDTH - filled) + "]"


def _progress_fraction(beat: Heartbeat) -> Optional[float]:
    """Replica completion when known, else round progress, else unknown."""
    if beat.replicas and beat.replicas_done is not None:
        return beat.replicas_done / beat.replicas
    if beat.max_rounds:
        return beat.round / beat.max_rounds
    return None


def _eta_s(beat: Heartbeat) -> Optional[float]:
    if beat.terminal or not beat.max_rounds or not beat.rounds_per_second:
        return None
    remaining = max(0, beat.max_rounds - beat.round)
    return remaining / beat.rounds_per_second


def _writer_label(path: Path, beat: Optional[Heartbeat]) -> str:
    if beat is None:
        return path.name[: -len(HEARTBEAT_SUFFIX)] or path.name
    if beat.role == "shard" and beat.shard is not None:
        return f"shard {beat.shard}"
    return beat.role


def _beat_line(
    path: Path, beat: Optional[Heartbeat], now: float, stale_after: float
) -> str:
    label = _writer_label(path, beat)
    if beat is None:
        return f"{label:<12} UNREADABLE (torn heartbeat?)"
    parts = [f"{label:<12}"]
    if beat.status == "failed":
        parts.append("QUARANTINED")
    else:
        parts.append(_bar(_progress_fraction(beat)))
    if beat.replicas is not None:
        done = beat.replicas_done if beat.replicas_done is not None else "?"
        parts.append(f"{done}/{beat.replicas} replicas")
    if beat.max_rounds:
        parts.append(f"round {beat.round}/{beat.max_rounds}")
    elif beat.round:
        parts.append(f"round {beat.round}")
    if beat.rounds_per_second:
        parts.append(f"{beat.rounds_per_second:.0f} r/s")
    eta = _eta_s(beat)
    if eta is not None:
        parts.append(f"eta {_format_duration(eta)}")
    if beat.attempt is not None and beat.attempt > 1:
        parts.append(f"attempt {beat.attempt}")
    if beat.rss_bytes is not None:
        parts.append(f"rss {_format_bytes(beat.rss_bytes)}")
    if beat.terminal:
        parts.append(beat.status if beat.status != "failed" else "")
    else:
        age = beat.age_s(now)
        parts.append(f"age {_format_duration(age)}")
        if age > stale_after:
            parts.append("stale?")
    return "  ".join(part for part in parts if part)


def _supervisor_line(beat: Heartbeat) -> str:
    parts = [f"{'supervisor':<12}", beat.status]
    if beat.replicas is not None:
        done = beat.replicas_done if beat.replicas_done is not None else "?"
        parts.append(f"{done}/{beat.replicas} replicas")
    if beat.shards is not None:
        parts.append(f"shards {beat.shards}")
    parts.append(f"retries {beat.retries}")
    parts.append(f"timeouts {beat.timeouts}")
    parts.append(f"quarantined {beat.failed_shards}")
    if beat.peak_rss_bytes is not None:
        parts.append(f"peak rss {_format_bytes(beat.peak_rss_bytes)}")
    if beat.cpu_s is not None:
        parts.append(f"cpu {_format_duration(beat.cpu_s)}")
    return "  ".join(parts)


def discover_traces(path: Union[str, Path]) -> List[Path]:
    """Trace files (JSONL or columnar) for a run base or directory (sorted).

    Matches ``*.jsonl*`` and ``*.ctrace*`` so shard-suffixed fragments
    (``ensemble.jsonl.shard0``) show up alongside merged traces; in-flight
    ``.tmp`` staging files are excluded.
    """
    path = Path(path)
    if path.is_dir():
        candidates = [
            *path.glob("*.jsonl*"),
            *path.glob("*.ctrace*"),
        ]
    else:
        candidates = [
            *path.parent.glob(f"{path.name}*.jsonl*"),
            *path.parent.glob(f"{path.name}*.ctrace*"),
        ]
    return sorted(
        candidate
        for candidate in candidates
        if not candidate.name.endswith(storage.STAGING_SUFFIX)
    )


def tail_trace_round(path: Union[str, Path]) -> Optional[dict]:
    """The last ``round`` record of a trace, reading only the tail.

    A trace still being written has no file at ``path`` yet, only its
    staging file ``<path>.tmp``, which is read instead.  The format is
    sniffed from the leading bytes.  JSONL traces seek to the final
    :data:`_TAIL_BYTES` and parse backwards; columnar traces step back
    over whole chunks from the end and decode only the last round-bearing
    one (:func:`~repro.telemetry.columnar.columnar_tail_round`).  Both
    cost about the same at any file size.  ``None`` when no complete
    round record exists (empty or torn file too).
    """
    path = Path(path)
    if not path.exists():
        path = storage.staging_path(path)
    try:
        if detect_trace_format(path) == "columnar":
            from repro.telemetry.columnar import columnar_tail_round

            return columnar_tail_round(path)
        with path.open("rb") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            handle.seek(max(0, size - _TAIL_BYTES))
            tail = handle.read().decode("utf-8", errors="replace")
    except OSError:
        return None
    for line in reversed(tail.splitlines()):
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("kind") == "round":
            return record
    return None


def render_frame(
    entries: List[Tuple[Path, Optional[Heartbeat]]],
    *,
    traces: List[Path] = (),
    now: Optional[float] = None,
    stale_after: float = 5.0,
) -> str:
    """Render one dashboard frame (plain text, one writer per line)."""
    now = time.time() if now is None else now
    supervisors = [b for _, b in entries if b is not None and b.role == "supervisor"]
    lines: List[str] = []
    for beat in supervisors:
        lines.append(_supervisor_line(beat))
    for path, beat in entries:
        if beat is not None and beat.role == "supervisor":
            continue
        lines.append(_beat_line(path, beat, now, stale_after))
    for trace in traces:
        record = tail_trace_round(trace)
        if record is not None:
            lines.append(
                f"{'trace':<12} {trace.name}: last round t={record.get('t')} "
                f"count={record.get('count')}"
            )
    return "\n".join(lines)


def is_service_root(path: Union[str, Path]) -> bool:
    """True when ``path`` is a service directory (holds the job journal)."""
    path = Path(path)
    return path.is_dir() and (
        (path / "jobs.journal").exists() or (path / "jobs.snapshot.json").exists()
    )


def _job_line(job, beat, now: float, stale_after: float) -> str:
    parts = [f"{job.id:<12}", f"{job.state:<9}"]
    active = job.state in ("running", "degraded")
    if beat is not None and not job.terminal:
        parts.append(_bar(_progress_fraction(beat)))
        if beat.replicas is not None:
            done = beat.replicas_done if beat.replicas_done is not None else "?"
            parts.append(f"{done}/{beat.replicas} replicas")
        if beat.max_rounds:
            parts.append(f"round {beat.round}/{beat.max_rounds}")
    if job.attempt > 1 or job.retries:
        parts.append(f"attempt {job.attempt}")
    if job.retries:
        parts.append(f"retries {job.retries}/{job.max_retries}")
    if job.state == "failed" and job.exit_name:
        parts.append(job.exit_name)
    if active:
        if beat is None:
            parts.append("no heartbeat  ORPHANED?")
        else:
            age = beat.age_s(now)
            parts.append(f"age {_format_duration(age)}")
            if age > stale_after:
                parts.append("ORPHANED?")
    if job.error and job.state in ("failed", "queued"):
        parts.append(f"({job.error})")
    return "  ".join(part for part in parts if part)


def render_service_frame(
    root: Union[str, Path],
    *,
    now: Optional[float] = None,
    stale_after: float = 5.0,
) -> str:
    """Render one frame of the service job view (one line per job).

    Job states come from replaying the journal read-only (torn tails
    tolerated, never truncated); liveness of active jobs comes from their
    heartbeat files, so a ``running`` job whose worker died renders as
    ``ORPHANED?`` even though the journal still says it runs.
    """
    from repro.service.jobstore import load_jobs
    from repro.telemetry.heartbeat import heartbeat_path, read_heartbeat

    now = time.time() if now is None else now
    root = Path(root)
    store = load_jobs(root)
    counts = store.counts()
    summary = "  ".join(
        f"{state} {counts[state]}" for state in counts if counts[state]
    ) or "no jobs"
    lines = [f"{'service':<12} {summary}  (journal seq {store.seq})"]
    for job in store.jobs():
        beat = read_heartbeat(heartbeat_path(root / job.id / "job"))
        lines.append(_job_line(job, beat, now, stale_after))
    return "\n".join(lines)


def _all_jobs_terminal(root: Union[str, Path]) -> bool:
    from repro.service.jobstore import TERMINAL_STATES, load_jobs

    counts = load_jobs(root).counts()
    total = sum(counts.values())
    done = sum(counts[state] for state in TERMINAL_STATES)
    return total > 0 and done == total


def _all_terminal(entries: List[Tuple[Path, Optional[Heartbeat]]]) -> bool:
    beats = [beat for _, beat in entries if beat is not None]
    return bool(beats) and all(beat.terminal for beat in beats)


def watch(
    path: Union[str, Path],
    *,
    interval: float = 1.0,
    once: bool = False,
    stale_after: float = 5.0,
    stream=None,
) -> int:
    """Tail the heartbeats (and traces) under ``path`` until they finish.

    ``path`` is a run/checkpoint base, a directory, or a *service root*
    (then the job view renders instead — see :func:`render_service_frame`).
    Redraws every ``interval`` seconds (ANSI clear on a TTY, plain frames
    otherwise); exits 0 once every readable heartbeat is terminal / every
    job is in a terminal state (or immediately with ``once=True``), and 1
    when no heartbeat files exist at all.
    """
    stream = sys.stdout if stream is None else stream
    clear = "\x1b[2J\x1b[H" if getattr(stream, "isatty", lambda: False)() else ""
    if is_service_root(path):
        while True:
            frame = render_service_frame(path, stale_after=stale_after)
            print(f"{clear}{frame}", file=stream, flush=True)
            if once or _all_jobs_terminal(path):
                return 0
            time.sleep(interval)
            if not clear:
                print("", file=stream)
    while True:
        entries = discover_heartbeats(path)
        if not entries:
            print(f"repro watch: no heartbeat files under {path}", file=stream)
            return 1
        frame = render_frame(
            entries, traces=discover_traces(path), stale_after=stale_after
        )
        print(f"{clear}{frame}", file=stream, flush=True)
        if once:
            return 0
        if _all_terminal(entries):
            return 0
        time.sleep(interval)
        if not clear:
            print("", file=stream)
