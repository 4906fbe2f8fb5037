"""Persistent index over a trace directory: summarize once, query many.

``repro report`` used to re-parse every trace file on every invocation —
at millions of replica-rounds the text parse *is* the query cost.  This
module maintains ``TRACE_INDEX.json`` next to the traces: one entry per
trace file carrying its identity (size + mtime), format, schema version,
run signature, record counts, round range, and the full cached
:class:`~repro.analysis.report.TraceSummary`.  A refresh re-summarizes
only files whose identity changed (new, rewritten, or touched) and drops
entries whose files vanished, so a repeated report query is a single JSON
read — zero trace re-parsing — and a cold query over columnar traces
decodes memory-mapped column chunks instead of text.

The index is a pure cache: deleting it is always safe (the next refresh
rebuilds it), and every consumer falls back to direct summarization when
the directory is not writable.  ``repro trace index`` exposes refresh and
rebuild from the CLI.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import storage
__all__ = [
    "INDEX_FILENAME",
    "INDEX_SCHEMA_VERSION",
    "TRACE_GLOBS",
    "index_path",
    "load_trace_index",
    "refresh_trace_index",
    "summaries_from_index",
    "write_trace_index",
]

INDEX_FILENAME = "TRACE_INDEX.json"
"""Name of the index file, stored inside the trace directory it describes."""

INDEX_SCHEMA_VERSION = 1

TRACE_GLOBS = ("*.jsonl", "*.ctrace")
"""Directory patterns that count as top-level trace files.

Deliberately excludes shard fragments (``*.jsonl.shard0``) and in-flight
``*.tmp`` staging files — the same population :func:`repro.analysis.
report.summarize_trace_dir` sees.
"""


def index_path(directory: Union[str, Path]) -> Path:
    """Where the index for ``directory`` lives."""
    return Path(directory) / INDEX_FILENAME


def _file_identity(path: Path) -> Tuple[int, int]:
    stat = path.stat()
    return int(stat.st_size), int(stat.st_mtime_ns)


def _trace_files(directory: Path) -> List[Path]:
    files = [
        path
        for pattern in TRACE_GLOBS
        for path in directory.glob(pattern)
        if not path.name.endswith(storage.STAGING_SUFFIX)
    ]
    return sorted(files, key=lambda path: path.name)


def load_trace_index(directory: Union[str, Path]) -> Dict[str, Any]:
    """Read a directory's index; an empty shell when absent or unusable.

    A corrupt or version-skewed index is treated as missing rather than
    fatal — it is a cache, and the refresh path rebuilds it.
    """
    path = index_path(directory)
    try:
        snapshot = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {"schema": INDEX_SCHEMA_VERSION, "entries": {}}
    if (
        snapshot.get("schema") != INDEX_SCHEMA_VERSION
        or not isinstance(snapshot.get("entries"), dict)
    ):
        return {"schema": INDEX_SCHEMA_VERSION, "entries": {}}
    return snapshot


def write_trace_index(directory: Union[str, Path], index: Dict[str, Any]) -> Path:
    """Atomically publish an index document (tmp + fsync + rename)."""
    text = json.dumps(index, sort_keys=True, indent=1) + "\n"
    return storage.publish(index_path(directory), text.encode())


def _entry_for(path: Path, identity: Tuple[int, int]) -> Dict[str, Any]:
    """Summarize one trace file into its index entry (the only slow step)."""
    from repro.analysis.report import summarize_trace
    from repro.telemetry.jsonl import detect_trace_format
    from repro.telemetry.recorder import TRACE_SCHEMA_VERSION

    summary = summarize_trace(path)
    tail = _round_range(path)
    return {
        "size": identity[0],
        "mtime_ns": identity[1],
        "format": detect_trace_format(path),
        "schema": TRACE_SCHEMA_VERSION,
        "signature": {
            "runner": summary.runner,
            "protocol": summary.protocol,
            "fingerprint": summary.fingerprint,
        },
        "counts": {
            "rounds": summary.rounds,
            "spans": sum(entry["calls"] for entry in summary.spans.values()),
        },
        "round_range": tail,
        "summary": asdict(summary),
    }


def _round_range(path: Path) -> Optional[List[int]]:
    """First/last round ``t`` of a trace, via the cheap tail reader."""
    from repro.analysis.watch import tail_trace_round

    last = tail_trace_round(path)
    if last is None or not isinstance(last.get("t"), int):
        return None
    # The first round's t is almost always the record-interval; reading it
    # would mean a head parse per refresh, so the range is [0, last] unless
    # a caller needs better — the summary's `rounds` count disambiguates.
    return [0, int(last["t"])]


def refresh_trace_index(
    directory: Union[str, Path],
    rebuild: bool = False,
    write: bool = True,
) -> Dict[str, Any]:
    """Bring a directory's index in sync with its trace files.

    Entries whose ``(size, mtime_ns)`` identity is unchanged are reused
    verbatim (their cached summaries are *not* recomputed); changed or new
    files are re-summarized; entries for deleted files are dropped.
    ``rebuild=True`` ignores the existing index entirely.  The refreshed
    document is written back atomically unless ``write=False`` or the
    directory refuses the write (read-only results mirror, e.g.) — the
    refreshed index is returned either way, so callers can always answer
    from it.

    Raises ``ValueError`` naming the offending file when a trace fails
    validation, exactly like :func:`~repro.analysis.report.
    summarize_trace_dir` — a corrupt artifact must fail loudly, not
    silently vanish from analytics.
    """
    directory = Path(directory)
    previous = {} if rebuild else load_trace_index(directory).get("entries", {})
    entries: Dict[str, Any] = {}
    refreshed = 0
    for path in _trace_files(directory):
        identity = _file_identity(path)
        cached = previous.get(path.name)
        if (
            cached is not None
            and (cached.get("size"), cached.get("mtime_ns")) == identity
        ):
            entries[path.name] = cached
            continue
        try:
            entries[path.name] = _entry_for(path, identity)
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from error
        refreshed += 1
    index = {
        "schema": INDEX_SCHEMA_VERSION,
        "directory": str(directory),
        "entries": entries,
        "refreshed": refreshed,
    }
    if write:
        try:
            write_trace_index(directory, index)
        except OSError:
            pass  # read-only directory: serve the in-memory index
    return index


def summaries_from_index(
    directory: Union[str, Path], index: Dict[str, Any]
) -> List["TraceSummary"]:
    """Materialize the cached :class:`TraceSummary` objects, sorted by file.

    The ``path`` field is re-anchored to ``directory`` so a results tree
    that moved (CI artifact download, e.g.) still reports correct paths.
    """
    from repro.analysis.report import TraceSummary

    directory = Path(directory)
    summaries = []
    for name in sorted(index.get("entries", {})):
        payload = dict(index["entries"][name].get("summary", {}))
        payload["path"] = str(directory / name)
        payload["spans"] = payload.get("spans") or {}
        summaries.append(TraceSummary(**payload))
    return summaries
