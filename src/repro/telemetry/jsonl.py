"""Streaming JSON-lines traces: write, read back, and validate.

A trace is one ``run_start`` record, zero or more ``round`` and ``span``
records, and one ``run_end`` record, one JSON object per line.  The exact
field-by-field schema is documented in ``docs/OBSERVABILITY.md``;
:func:`validate_trace` is that document's executable counterpart and is
what ``make trace-smoke`` runs.

Durability: path-targeted traces are streamed to ``<path>.tmp`` — one
unbuffered binary write per record, so every completed record reaches the
OS as it happens — and renamed over ``path`` on
:meth:`JsonlTraceWriter.close` (after a flush + fsync), so a trace
observed at its target path is never half-written; a hard kill leaves the
written prefix in the ``.tmp`` file instead.  ``read_trace``/
``validate_trace`` accept ``salvage=True`` to recover the valid prefix of
such a truncated trace; strict rejection stays the default.  See
docs/OBSERVABILITY.md, "Durability & fault model".

Both functions sniff the on-disk format: pointed at a columnar container
(:mod:`repro.telemetry.columnar`, magic ``RCOL``) they delegate to its
reader and validate the decoded records against the *same* schema, so
every trace consumer works on either format transparently.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any, Dict, IO, List, Mapping, Optional, Union

from repro import storage
from repro.telemetry.recorder import Recorder, RunProvenance, TRACE_SCHEMA_VERSION
from repro.telemetry.spans import SpanRecord

__all__ = [
    "COLUMNAR_MAGIC",
    "JsonlTraceWriter",
    "read_trace",
    "trace_counts",
    "trace_to_series",
    "validate_records",
    "validate_trace",
]

PathOrFile = Union[str, Path, IO[str]]

COLUMNAR_MAGIC = b"RCOL"
"""First bytes of a columnar trace container (see :mod:`.columnar`).

Defined here — not in :mod:`repro.telemetry.columnar` — so the JSONL
reader can sniff the format without importing the columnar machinery
until a columnar file is actually met.
"""

# json.dumps(..., sort_keys=True) constructs a fresh JSONEncoder on every
# call; binding one encoder once removes that per-record cost.  Same
# defaults as json.dumps, so the emitted bytes are unchanged.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


class TraceWriterBase(Recorder):
    """Recorder that turns run events into schema-v1 trace records.

    Subclasses implement the storage: :meth:`_write` receives each
    finished record dict in stream order (:class:`JsonlTraceWriter` dumps
    it as a JSON line, :class:`~repro.telemetry.columnar.
    ColumnarTraceWriter` batches rounds into binary column chunks).  The
    record-*building* logic lives here, once, so both sinks emit
    value-identical records and a trace converted between formats is
    lossless by construction.
    """

    def __init__(self, include_timings: bool = True) -> None:
        self.include_timings = include_timings
        self.records_written = 0
        self._previous_count: Optional[float] = None
        self._started_at: Optional[float] = None
        self._last_seen_at: Optional[float] = None
        self._rounds = 0

    # ------------------------------------------------------------------
    # Recorder hooks
    # ------------------------------------------------------------------

    def run_started(self, provenance: RunProvenance) -> None:
        record: Dict[str, Any] = {
            "kind": "run_start",
            "schema": TRACE_SCHEMA_VERSION,
        }
        record.update(provenance.to_dict())
        # Resumed runs anchor the first drift on the restored count, not x0,
        # so a resumed trace's round records match the uninterrupted run's.
        anchor = provenance.params.get("resumed_count")
        if anchor is None:
            anchor = provenance.params.get("x0")
        self._previous_count = float(anchor) if anchor is not None else None
        self._started_at = self._last_seen_at = time.perf_counter()
        self._write(record)

    def round_recorded(
        self, t: int, count: float, extra: Optional[Mapping[str, Any]] = None
    ) -> None:
        record: Dict[str, Any] = {"kind": "round", "t": int(t), "count": _number(count)}
        if self._previous_count is not None:
            record["drift"] = _number(float(count) - self._previous_count)
        self._previous_count = float(count)
        if self.include_timings:
            now = time.perf_counter()
            if self._last_seen_at is not None:
                record["wall_s"] = now - self._last_seen_at
            self._last_seen_at = now
        if extra:
            record.update({key: _number(value) for key, value in extra.items()})
        self._rounds += 1
        self._write(record)

    def span_recorded(self, span: SpanRecord) -> None:
        record: Dict[str, Any] = {
            "kind": "span",
            "name": span.name,
            "path": span.path,
            "depth": span.depth,
            "counters": {key: _number(value) for key, value in span.counters.items()},
        }
        if self.include_timings:
            record["wall_s"] = span.wall_s
        self._write(record)

    def run_finished(self, summary: Mapping[str, Any]) -> None:
        record: Dict[str, Any] = {"kind": "run_end"}
        record.update({key: _number(value) for key, value in summary.items()})
        record["rounds_recorded"] = self._rounds
        if self.include_timings and self._started_at is not None:
            wall = time.perf_counter() - self._started_at
            record["wall_clock_s"] = wall
            record["rounds_per_second"] = self._rounds / wall if wall > 0 else 0.0
        self._write(record)

    # ------------------------------------------------------------------
    # Storage interface
    # ------------------------------------------------------------------

    def _write(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def flush(self) -> None:  # pragma: no cover - trivially overridden
        pass

    def close(self) -> None:  # pragma: no cover - trivially overridden
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JsonlTraceWriter(TraceWriterBase):
    """Stream a run as JSON-lines records to a path or an open text file.

    One ``round`` record is written per observed round as a single
    unbuffered binary write, so every completed record reaches the OS as
    it happens and a process that dies mid-run leaves a salvageable prefix
    (see ``salvage=True`` on :func:`read_trace`/:func:`validate_trace`).
    A path target is written as ``<path>.tmp`` (a staged
    :class:`repro.storage.Stream`) and atomically renamed into place on
    :meth:`close`, so the trace at the target path is never observably
    half-written.  Use as a context manager, or call :meth:`close`
    explicitly; the file is opened lazily on the first record.

    Args:
        target: output path or an already-open text file (not closed by us,
            written in place and only flushed: its durability is yours).
        include_timings: when ``False``, omit the wall-clock fields
            (``wall_s``, ``wall_clock_s``, ``rounds_per_second``) so that
            traces of seed-identical runs are byte-identical — the mode the
            determinism tests use.
    """

    def __init__(self, target: PathOrFile, include_timings: bool = True) -> None:
        super().__init__(include_timings)
        self._stream: Optional[storage.Stream] = None
        self._file: Optional[IO[str]] = None
        if isinstance(target, (str, Path)):
            # Unbuffered raw binary: each record is one write(2) straight to
            # the OS, so a killed process leaves a salvageable prefix — the
            # line-buffered TextIOWrapper gave the same guarantee but paid a
            # per-write newline scan and encoder pass on top.
            self._stream = storage.Stream(
                target, "trace:mid_write", "trace:after_write"
            )
        else:
            self._file = target

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Flush, and fsync a path target's ``.tmp`` file.

        :class:`~repro.execution.ShutdownGuard` calls this (via
        ``register``) before a graceful exit so an interrupted trace is
        durable on disk, not sitting in user-space buffers.
        """
        if self._stream is not None:
            self._stream.sync()
        else:
            self._file.flush()

    def close(self) -> None:
        """Flush, fsync, close, and publish the trace at its target path.

        For path targets, the tmp file is atomically renamed over the
        target only here — a completed trace is never observably
        half-written, and a hard kill leaves ``<path>.tmp`` for salvage.
        """
        if self._stream is not None:
            self._stream.close()
        else:
            self._file.flush()

    def _write(self, record: Dict[str, Any]) -> None:
        line = _ENCODE(record) + "\n"
        if self._stream is not None:
            self._stream.write(line.encode("utf-8"))
        else:
            self._file.write(line)
        self.records_written += 1


def _number(value):
    """Coerce numpy scalars to plain Python so json keeps the trace portable."""
    if hasattr(value, "item"):
        return value.item()
    return value


def _is_columnar(path: PathOrFile) -> bool:
    """True when ``path`` names an on-disk columnar container (by magic)."""
    if not isinstance(path, (str, Path)):
        return False
    try:
        return storage.has_magic(path, COLUMNAR_MAGIC)
    except OSError:
        return False


def read_trace(path: PathOrFile, salvage: bool = False) -> List[Dict[str, Any]]:
    """Parse a trace back into a list of record dicts (in file order).

    The format is sniffed: JSONL text is parsed line by line, a columnar
    container (magic ``RCOL``) is decoded chunk by chunk — the returned
    records are value-identical either way.  With ``salvage=True``, an
    undecodable line (or torn/corrupt chunk — the final write of a killed
    process, typically) ends the parse: the valid prefix is returned
    instead of raising.  Everything *after* the first bad line is dropped
    too — a trace is an ordered stream, and records beyond a corruption
    point have lost their provenance.
    """
    if _is_columnar(path):
        from repro.telemetry.columnar import read_columnar_trace

        return read_columnar_trace(path, salvage=salvage)
    text = Path(path).read_text() if isinstance(path, (str, Path)) else path.read()
    records = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if salvage:
                break
            raise ValueError(f"trace line {line_number} is not valid JSON: {error}")
    return records


def trace_counts(records: List[Dict[str, Any]]):
    """The count trajectory of a trace: ``x0`` (from ``run_start``) then rounds."""
    import numpy as np

    counts = []
    for record in records:
        if record.get("kind") == "run_start":
            x0 = record.get("params", {}).get("x0")
            if x0 is not None:
                counts.append(x0)
        elif record.get("kind") == "round":
            counts.append(record["count"])
    return np.asarray(counts)


def trace_to_series(path: PathOrFile, name: Optional[str] = None):
    """Read a trace back as an :class:`repro.analysis.series.Series`.

    The worked example of docs/OBSERVABILITY.md: the x-axis is the round
    index (0 = the initial configuration) and the y-axis the count, ready
    for :func:`repro.analysis.series.ascii_plot` or CSV export.
    """
    import numpy as np

    from repro.analysis.series import Series

    records = read_trace(path)
    if not records:
        raise ValueError("trace is empty: no records to turn into a series")
    counts = trace_counts(records).astype(float)
    if counts.size == 0:
        raise ValueError(
            "trace holds no counts (no round records and no x0 in run_start)"
        )
    if not np.all(np.isfinite(counts)):
        raise ValueError("trace counts contain non-finite values")
    if name is None:
        start = next((r for r in records if r.get("kind") == "run_start"), {})
        protocol = start.get("protocol", {}).get("name", "trace")
        name = f"count ({protocol})"
    return Series(name, np.arange(len(counts), dtype=float), counts)


_REQUIRED_START_KEYS = ("schema", "runner", "protocol", "params", "rng")


def validate_trace(path: PathOrFile, salvage: bool = False) -> List[Dict[str, Any]]:
    """Validate a trace against the documented schema; return its records.

    Works on both sinks — the format is sniffed exactly as in
    :func:`read_trace`, and the decoded records face the same
    :func:`validate_records` checks: the first record is a ``run_start``
    with the supported schema version and all provenance sections; every
    ``round`` record has an integer ``t`` (non-decreasing) and a finite
    numeric ``count``; ``span`` records carry a name/path and finite
    timings; there is exactly one ``run_end``, all rounds precede it, and
    only spans (the ones enclosing the whole run) may trail it.  Raises
    ``ValueError`` on the first violation.  This is the check behind
    ``make trace-smoke``.

    With ``salvage=True`` — the recovery mode for traces truncated by a
    crash, OOM kill, or fault injection — the *valid prefix* is returned
    instead: parsing and validation stop at the first bad line, torn
    chunk, or invalid record, and a missing ``run_end`` is tolerated.  The
    ``run_start`` header must still be fully valid (a trace without its
    provenance has lost the run it describes, so there is nothing worth
    salvaging), and a ``run_end`` whose ``rounds_recorded`` claim
    contradicts the salvaged rounds is dropped along with everything after
    it.
    """
    records = read_trace(path, salvage=salvage)
    return validate_records(records, salvage=salvage)


def validate_records(
    records: List[Dict[str, Any]], salvage: bool = False
) -> List[Dict[str, Any]]:
    """The record-level schema checks behind :func:`validate_trace`.

    Shared by both trace formats (the JSONL reader and the columnar
    decoder both produce plain record dicts) and by the converters, which
    validate before writing so an invalid trace can never silently change
    format.  Semantics are exactly those documented on
    :func:`validate_trace`; ``salvage=True`` returns the valid prefix
    instead of raising on the first bad record.
    """
    if not records:
        raise ValueError("trace is empty" + (": nothing to salvage" if salvage else ""))
    start = records[0]
    if start.get("kind") != "run_start":
        raise ValueError(f"first record must be run_start, got {start.get('kind')!r}")
    if start.get("schema") != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema {start.get('schema')!r} "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )
    for key in _REQUIRED_START_KEYS:
        if key not in start:
            raise ValueError(f"run_start record is missing {key!r}")
    for key in ("bit_generator", "state_hash"):
        if key not in start["rng"]:
            raise ValueError(f"run_start rng provenance is missing {key!r}")
    for key in ("name", "ell", "fingerprint"):
        if key not in start["protocol"]:
            raise ValueError(f"run_start protocol provenance is missing {key!r}")
    valid = [start]
    end = None
    previous_t = None
    round_records = 0
    for index, record in enumerate(records[1:], start=2):
        try:
            kind = record.get("kind")
            if kind == "run_end":
                if end is not None:
                    raise ValueError(f"record {index} is a second run_end")
                end = record
            elif kind == "span":
                _validate_span_record(record, index)
            elif kind == "round":
                if end is not None:
                    raise ValueError(
                        f"round record {index} appears after run_end "
                        "(truncated or spliced trace?)"
                    )
                t = record.get("t")
                if not isinstance(t, int):
                    raise ValueError(f"round record {index} has non-integer t: {t!r}")
                if previous_t is not None and t < previous_t:
                    raise ValueError(
                        f"round record {index} goes back in time: "
                        f"t={t} after t={previous_t}"
                    )
                previous_t = t
                count = record.get("count")
                if not isinstance(count, (int, float)) or not math.isfinite(count):
                    raise ValueError(
                        f"round record {index} has non-finite count: {count!r}"
                    )
                drift = record.get("drift")
                if drift is not None and (
                    not isinstance(drift, (int, float)) or not math.isfinite(drift)
                ):
                    raise ValueError(
                        f"round record {index} has non-finite drift: {drift!r}"
                    )
                round_records += 1
            else:
                raise ValueError(
                    f"record {index} has unknown kind {kind!r} "
                    "(expected round, span, or run_end)"
                )
        except ValueError:
            if salvage:
                return valid
            raise
        valid.append(record)
    if end is None:
        if salvage:
            return valid
        raise ValueError(
            f"last record must be run_end, got {records[-1].get('kind')!r} "
            "(truncated trace?)"
        )
    if end.get("rounds_recorded") != round_records:
        if salvage:
            return valid[: valid.index(end)]
        raise ValueError(
            f"run_end claims {end.get('rounds_recorded')} rounds but the trace "
            f"holds {round_records}"
        )
    return records


def _validate_span_record(record: Dict[str, Any], index: int) -> None:
    for key in ("name", "path"):
        if not isinstance(record.get(key), str) or not record.get(key):
            raise ValueError(f"span record {index} has invalid {key}: {record.get(key)!r}")
    wall = record.get("wall_s")
    if wall is not None and (
        not isinstance(wall, (int, float)) or not math.isfinite(wall)
    ):
        raise ValueError(f"span record {index} has non-finite wall_s: {wall!r}")
    counters = record.get("counters", {})
    if not isinstance(counters, dict):
        raise ValueError(f"span record {index} counters must be an object")
    for key, value in counters.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(
                f"span record {index} counter {key!r} is non-finite: {value!r}"
            )
