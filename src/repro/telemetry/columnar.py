"""The trace sink and its columnar container: chunked column batches.

:class:`ColumnarTraceWriter` is the one code path that streams a trace.
It builds schema-v1 records from the :class:`~repro.telemetry.recorder.
Recorder` hooks and stores them in a chunked binary container:
``round`` records are buffered and written as typed numpy column batches
(one ``int64``/``float64`` buffer per field), while the rare structural
records (``run_start``, ``span``, ``run_end``) are embedded as compact
JSON payloads in their stream position.  Readers decode back to the
*exact* record dicts, so a JSONL trace is the same records, one
``json.dumps(record, sort_keys=True)`` line each: the sink publishes that
at close when JSONL is asked for, the converters go either way
losslessly, and every consumer of :func:`~repro.telemetry.jsonl.
read_trace` / :func:`~repro.telemetry.jsonl.validate_trace` reads either
format (both sniff the ``RCOL`` magic and delegate here).

Container layout — a flat sequence of chunks, each one
:mod:`repro.storage` frame with magic ``RCOL`` whose body is::

    body := meta_len:u32 | meta(JSON) | payload

``meta_len`` is little-endian.  ``meta`` describes the payload: either a
``{"kind": "json", "count": N}`` chunk whose payload is ``N`` JSON lines,
or a ``{"kind": "rounds", "rows": N, "columns": [...]}`` chunk whose
payload is the concatenated presence masks and column buffers.
Integer-valued fields keep their JSON int-ness through an ``int64``
column (or an int-mask on promoted float columns), so
``jsonl → columnar → jsonl`` reproduces the original bytes.

Durability, one rule for every format: the writer streams the container
to ``<path>.tmp`` (one write per chunk), honours the ``trace:mid_write``
crashpoint by tearing a chunk mid-write, and renames into place on close
after an fsync; torn or corrupt tails are recoverable with
``salvage=True``.  Up to ``chunk_rounds`` rounds live in memory between
chunk writes, so a hard kill can lose that buffered tail;
``flush()`` (called by :class:`~repro.execution.ShutdownGuard` on
graceful exits) drains it, so a graceful stop loses nothing.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro import storage
from repro.telemetry.jsonl import (
    COLUMNAR_MAGIC,
    read_trace,
    validate_records,
)
from repro.telemetry.recorder import Recorder, RunProvenance, TRACE_SCHEMA_VERSION
from repro.telemetry.spans import SpanRecord

__all__ = [
    "COLUMNAR_FORMAT_VERSION",
    "COLUMNAR_SUFFIX",
    "DEFAULT_CHUNK_ROUNDS",
    "TRACE_FORMATS",
    "ColumnarTraceData",
    "ColumnarTraceWriter",
    "columnar_tail_round",
    "columnar_to_jsonl",
    "jsonl_to_columnar",
    "load_columnar_data",
    "open_trace_writer",
    "read_columnar_trace",
    "write_trace_records",
]

COLUMNAR_FORMAT_VERSION = 1
"""Container version stamped into every chunk's meta block."""

COLUMNAR_SUFFIX = ".ctrace"
"""Conventional file suffix for columnar traces (discovery globs use it)."""

DEFAULT_CHUNK_ROUNDS = 4096
"""Round records buffered per column chunk (the durability granularity)."""

TRACE_FORMATS = ("jsonl", "columnar")
"""Recognised ``--trace-format`` values, in default-first order."""

_U32 = struct.Struct("<I")
# json.dumps(..., sort_keys=True) constructs a fresh JSONEncoder on every
# call; binding one encoder once removes that per-record cost.  Same
# defaults as json.dumps, so the emitted bytes are unchanged.
_ENCODE = json.JSONEncoder(sort_keys=True).encode
_META_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# The float64 span inside which every integer is exactly representable —
# int-valued entries of a promoted float column beyond it would corrupt
# on round-trip, so such columns fall back to JSON encoding.
_EXACT_INT = 2 ** 53
_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1


# ----------------------------------------------------------------------
# Chunk encoding
# ----------------------------------------------------------------------


def _frame(meta: Dict[str, Any], payload: bytes) -> bytes:
    meta_bytes = _META_ENCODE(meta).encode("utf-8")
    body = _U32.pack(len(meta_bytes)) + meta_bytes + payload
    return storage.frame(COLUMNAR_MAGIC, body)


def _jsonl_bytes(records: List[Dict[str, Any]]) -> bytes:
    """``records`` as JSON lines: the bytes of a JSONL trace."""
    return "".join(_ENCODE(record) + "\n" for record in records).encode("utf-8")


def _encode_json_chunk(records: List[Dict[str, Any]]) -> bytes:
    meta = {"v": COLUMNAR_FORMAT_VERSION, "kind": "json", "count": len(records)}
    return _frame(meta, _jsonl_bytes(records))


_MISSING = object()


def _column_parts(key: str, values: List[Any]):
    """Encode one round-record field as (column-meta, payload bytes...)."""
    present = [value is not _MISSING for value in values]
    mask = None if all(present) else np.asarray(present, dtype=np.uint8)
    given = [value for value in values if value is not _MISSING]
    # bool is an int subclass; it must not be flattened into a number column.
    all_int = all(type(value) is int for value in given)
    numeric = all(type(value) in (int, float) for value in given)
    if all_int and all(_I64_MIN <= value <= _I64_MAX for value in given):
        data = np.asarray(
            [0 if value is _MISSING else value for value in values], dtype="<i8"
        )
        code, imask = "i8", None
    elif numeric and all(
        type(value) is float or abs(value) <= _EXACT_INT for value in given
    ):
        data = np.asarray(
            [0.0 if value is _MISSING else float(value) for value in values],
            dtype="<f8",
        )
        code = "f8"
        ints = [value is not _MISSING and type(value) is int for value in values]
        imask = np.asarray(ints, dtype=np.uint8) if any(ints) else None
    else:
        # Non-numeric, bool, or float64-inexact values: keep them as JSON.
        text = json.dumps(
            [None if value is _MISSING else value for value in values]
        )
        data = text.encode("utf-8")
        code, imask = "j", None
    data_bytes = data if isinstance(data, bytes) else data.tobytes()
    entry = {
        "k": key,
        "c": code,
        "m": int(mask is not None),
        "im": int(imask is not None),
        "n": len(data_bytes),
    }
    parts = []
    if mask is not None:
        parts.append(mask.tobytes())
    if imask is not None:
        parts.append(imask.tobytes())
    parts.append(data_bytes)
    return entry, parts


def _encode_rounds_chunk(records: List[Dict[str, Any]]) -> bytes:
    rows = len(records)
    keys = sorted({key for record in records for key in record if key != "kind"})
    columns = []
    parts: List[bytes] = []
    for key in keys:
        values = [record.get(key, _MISSING) for record in records]
        entry, column_parts = _column_parts(key, values)
        columns.append(entry)
        parts.extend(column_parts)
    meta = {
        "v": COLUMNAR_FORMAT_VERSION,
        "kind": "rounds",
        "rows": rows,
        "columns": columns,
    }
    return _frame(meta, b"".join(parts))


# ----------------------------------------------------------------------
# Chunk decoding
# ----------------------------------------------------------------------


def _iter_chunks(
    path: Union[str, Path], salvage: bool
) -> Iterator[Tuple[Dict[str, Any], bytes]]:
    """Yield ``(meta, payload)`` per chunk of the trace at ``path``, in order.

    The file is memory-mapped for the walk, and the pages behind it are
    released as it goes (each body is a copy), so resident memory stays
    near one chunk however long the trace.  A torn or corrupt frame, or
    a chunk whose meta block does not decode, ends the walk in salvage
    mode and raises ``ValueError`` naming its byte offset otherwise —
    mirroring the JSONL reader's torn-line semantics at chunk granularity.
    """
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size == 0:
            return
        data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    release = getattr(mmap, "MADV_DONTNEED", None)
    with data:
        frames = storage.FrameScan(data, COLUMNAR_MAGIC)
        problem = None
        released = 0
        for body in frames:
            try:
                meta, payload = _split_chunk(body)
            except ValueError as error:
                problem = str(error)
                break
            yield meta, payload
            consumed = frames.end - frames.end % mmap.PAGESIZE
            if release is not None and consumed > released:
                data.madvise(release, released, consumed - released)
                released = consumed
        problem = problem or frames.error
    if problem is not None and not salvage:
        raise ValueError(f"columnar trace chunk at byte {frames.end}: {problem}")


def _split_chunk(body: bytes) -> Tuple[Dict[str, Any], bytes]:
    """A chunk body's ``(meta, payload)``; ``ValueError`` on a bad meta block."""
    if len(body) < _U32.size:
        raise ValueError("chunk body too short for its meta block")
    (meta_len,) = _U32.unpack_from(body)
    if _U32.size + meta_len > len(body):
        raise ValueError("meta block overruns the chunk body")
    try:
        meta = json.loads(body[_U32.size:_U32.size + meta_len])
    except ValueError:
        raise ValueError("meta block is not valid JSON") from None
    if meta.get("v") != COLUMNAR_FORMAT_VERSION:
        raise ValueError(
            f"unsupported container version {meta.get('v')!r} "
            f"(expected {COLUMNAR_FORMAT_VERSION})"
        )
    return meta, body[_U32.size + meta_len:]


def _decode_round_columns(
    meta: Dict[str, Any], payload: bytes
) -> Tuple[int, Dict[str, Tuple[Any, Optional[np.ndarray]]]]:
    """Decode a rounds chunk to ``{key: (values, present_mask)}``.

    ``values`` is an ``int64``/``float64`` array for numeric columns (the
    zero-copy path the analytics fast path consumes) or a plain list for
    JSON-coded columns; ``present_mask`` is a bool array, or ``None`` when
    every row carries the field.  Promoted-int entries are *not* folded
    back here — :func:`_decode_rounds_chunk` applies the int-mask when
    materialising records.
    """
    rows = int(meta.get("rows", 0))
    columns: Dict[str, Tuple[Any, Optional[np.ndarray]]] = {}
    offset = 0
    for entry in meta.get("columns", []):
        mask = imask = None
        if entry.get("m"):
            mask = np.frombuffer(payload, dtype=np.uint8, count=rows, offset=offset)
            mask = mask.astype(bool)
            offset += rows
        if entry.get("im"):
            imask = np.frombuffer(payload, dtype=np.uint8, count=rows, offset=offset)
            imask = imask.astype(bool)
            offset += rows
        nbytes = int(entry["n"])
        code = entry["c"]
        if code == "i8":
            values: Any = np.frombuffer(payload, dtype="<i8", count=rows, offset=offset)
        elif code == "f8":
            values = np.frombuffer(payload, dtype="<f8", count=rows, offset=offset)
        elif code == "j":
            values = json.loads(payload[offset:offset + nbytes])
            if len(values) != rows:
                raise ValueError(
                    f"JSON column {entry.get('k')!r} holds {len(values)} rows, "
                    f"chunk declares {rows}"
                )
        else:
            raise ValueError(f"unknown column code {code!r}")
        offset += nbytes
        columns[entry["k"]] = (values, mask)
        if imask is not None:
            # Int-mask rides alongside under a reserved key (field names in
            # records never contain NUL), consumed when materialising dicts.
            columns[entry["k"] + "\x00imask"] = (imask, None)
    return rows, columns


def _decode_rounds_chunk(meta: Dict[str, Any], payload: bytes) -> List[Dict[str, Any]]:
    rows, columns = _decode_round_columns(meta, payload)
    records: List[Dict[str, Any]] = [{"kind": "round"} for _ in range(rows)]
    for key, (values, mask) in columns.items():
        if key.endswith("\x00imask"):
            continue
        imask_entry = columns.get(key + "\x00imask")
        imask = imask_entry[0] if imask_entry is not None else None
        if isinstance(values, np.ndarray):
            if values.dtype.kind == "i":
                pylist: List[Any] = [int(v) for v in values]
            else:
                pylist = [float(v) for v in values]
                if imask is not None:
                    pylist = [
                        int(v) if is_int else v
                        for v, is_int in zip(pylist, imask)
                    ]
        else:
            pylist = values
        if mask is None:
            for record, value in zip(records, pylist):
                record[key] = value
        else:
            for record, value, present in zip(records, pylist, mask):
                if present:
                    record[key] = value
    return records


def _decode_json_chunk(meta: Dict[str, Any], payload: bytes) -> List[Dict[str, Any]]:
    records = []
    for line in payload.decode("utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    if len(records) != meta.get("count", len(records)):
        raise ValueError(
            f"JSON chunk holds {len(records)} records, "
            f"meta declares {meta.get('count')}"
        )
    return records


def _decode_chunk(meta: Dict[str, Any], payload: bytes) -> List[Dict[str, Any]]:
    """A chunk's records, in stream order; ``ValueError`` on an unknown kind."""
    if meta.get("kind") == "rounds":
        return _decode_rounds_chunk(meta, payload)
    if meta.get("kind") == "json":
        return _decode_json_chunk(meta, payload)
    raise ValueError(f"unknown chunk kind {meta.get('kind')!r}")


def read_columnar_trace(
    path: Union[str, Path], salvage: bool = False
) -> List[Dict[str, Any]]:
    """Decode a columnar container back to its record dicts, in order.

    The inverse of :class:`ColumnarTraceWriter`: the returned records are
    value-identical to the records the sink was given.  With
    ``salvage=True`` a torn or corrupt chunk ends the decode and the
    preceding records are returned; strictly, it raises ``ValueError``
    naming the offending byte offset.
    """
    records: List[Dict[str, Any]] = []
    for meta, payload in _iter_chunks(path, salvage):
        if salvage and meta.get("kind") not in ("rounds", "json"):
            break
        records.extend(_decode_chunk(meta, payload))
    return records


# ----------------------------------------------------------------------
# The sink
# ----------------------------------------------------------------------


def _number(value):
    """Coerce numpy scalars to plain Python so json keeps the trace portable."""
    if hasattr(value, "item"):
        return value.item()
    return value


class ColumnarTraceWriter(Recorder):
    """The trace sink: stream a run as columnar chunks, publish it at close.

    Turns the Recorder hooks into schema-v1 records.  ``round`` records
    are buffered and written as one typed column chunk per
    ``chunk_rounds`` records, so the hot path pays a dict append instead
    of a JSON encode + ``write(2)``.  Structural records (``run_start``,
    ``span``, ``run_end``) flush the pending rounds first and are
    embedded as JSON chunks, preserving stream order.

    The chunks stream to ``<path>.tmp``, opened at the first write, one
    ``write(2)`` per chunk.  :meth:`flush` drains the round buffer and
    fsyncs (wired to :class:`~repro.execution.ShutdownGuard`);
    :meth:`close` drains, fsyncs and renames the container to ``path``.
    With ``trace_format="jsonl"`` it then re-encodes that container one
    chunk at a time into JSON lines, staged at ``<path>.tmp`` and renamed
    over ``path``: at every instant ``path`` is absent, a complete
    columnar trace, or the complete JSONL trace, and every reader sniffs
    the format.  :meth:`close` does not validate: a run that raised still
    publishes the records it made, without a ``run_end``.  A writer that
    never received a record publishes nothing.  The ``trace:mid_write``
    crashpoint tears a chunk mid-write for the salvage tests.

    Args:
        target: output path (``str`` or ``Path``).
        include_timings: when ``False``, omit the wall-clock fields
            (``wall_s``, ``wall_clock_s``, ``rounds_per_second``) so that
            traces of seed-identical runs are byte-identical — the mode
            the determinism tests use.
        chunk_rounds: round records buffered per column chunk — the most
            a hard kill loses; larger values amortise better.
        trace_format: what :meth:`close` publishes, ``"columnar"`` (the
            container itself) or ``"jsonl"``.
    """

    def __init__(
        self,
        target: Union[str, Path],
        include_timings: bool = True,
        chunk_rounds: int = DEFAULT_CHUNK_ROUNDS,
        trace_format: str = "columnar",
    ) -> None:
        if not isinstance(target, (str, Path)):
            raise TypeError(
                "ColumnarTraceWriter needs a filesystem path "
                "(the container is binary; open file objects are not supported)"
            )
        if chunk_rounds < 1:
            raise ValueError(f"chunk_rounds must be >= 1, got {chunk_rounds}")
        if trace_format not in TRACE_FORMATS:
            raise ValueError(
                f"unknown trace format {trace_format!r} "
                f"(expected one of {TRACE_FORMATS})"
            )
        self.include_timings = include_timings
        self.chunk_rounds = chunk_rounds
        self.trace_format = trace_format
        self.records_written = 0
        self._path = Path(target)
        self._stream = storage.Stream(
            self._path, "trace:mid_write", "trace:after_write"
        )
        self._pending: List[Dict[str, Any]] = []
        self._closed = False
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
        self._write_structural(record)

    def round_recorded(
        self, t: int, count: float, extra: Optional[Mapping[str, Any]] = None
    ) -> None:
        if self._closed:
            raise ValueError("trace writer already closed")
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
        self.records_written += 1
        self._pending.append(record)
        if len(self._pending) >= self.chunk_rounds:
            self._drain_rounds()

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
        self._write_structural(record)

    def run_finished(self, summary: Mapping[str, Any]) -> None:
        record: Dict[str, Any] = {"kind": "run_end"}
        record.update({key: _number(value) for key, value in summary.items()})
        record["rounds_recorded"] = self._rounds
        if self.include_timings and self._started_at is not None:
            wall = time.perf_counter() - self._started_at
            record["wall_clock_s"] = wall
            record["rounds_per_second"] = self._rounds / wall if wall > 0 else 0.0
        self._write_structural(record)

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------

    def _write_structural(self, record: Dict[str, Any]) -> None:
        if self._closed:
            raise ValueError("trace writer already closed")
        self._drain_rounds()
        self._stream.write(_encode_json_chunk([record]))
        self.records_written += 1

    def _drain_rounds(self) -> None:
        if self._pending:
            pending, self._pending = self._pending, []
            self._stream.write(_encode_rounds_chunk(pending))

    def flush(self) -> None:
        """Drain buffered rounds into a chunk, then fsync the staging file.

        :class:`~repro.execution.ShutdownGuard` calls this before a
        graceful exit, so an interrupted trace loses nothing; only a hard
        kill can drop the (at most ``chunk_rounds``-record) buffer.
        """
        self._drain_rounds()
        self._stream.sync()

    def close(self) -> None:
        """Drain, fsync and publish the trace at its path, in its format."""
        if self._closed:
            return
        self._drain_rounds()
        self._closed = True
        self._stream.close()
        if self.trace_format == "jsonl" and self.records_written:
            jsonl = storage.Stream(self._path)
            for meta, payload in _iter_chunks(self._path, salvage=False):
                jsonl.write(_jsonl_bytes(_decode_chunk(meta, payload)))
            jsonl.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_trace_writer(
    target: Union[str, Path],
    trace_format: str = "jsonl",
    include_timings: bool = True,
    **kwargs: Any,
) -> ColumnarTraceWriter:
    """Build the trace sink for ``--trace-format``: JSONL or columnar.

    The single construction point the CLI, the worker pool and smoke
    scripts share, so a format name is interpreted identically
    everywhere.  Both formats stream through :class:`ColumnarTraceWriter`;
    the name picks what its :meth:`~ColumnarTraceWriter.close` publishes.
    Extra keyword arguments (e.g. ``chunk_rounds=``) are forwarded.
    """
    return ColumnarTraceWriter(
        target, include_timings=include_timings, trace_format=trace_format,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Whole-trace writes and converters
# ----------------------------------------------------------------------


def write_trace_records(
    target: Union[str, Path],
    records: List[Dict[str, Any]],
    trace_format: str = "jsonl",
    chunk_rounds: int = DEFAULT_CHUNK_ROUNDS,
) -> None:
    """Write an in-memory record stream as a complete trace file, atomically.

    Consecutive runs of ``round`` records become column chunks (columnar)
    or JSON lines (jsonl), published with :func:`repro.storage.publish` —
    the write discipline the supervisor's merged-trace publisher and the
    converters share.
    """
    if trace_format == "jsonl":
        frames = [_jsonl_bytes(records)]
    elif trace_format == "columnar":
        frames = []
        run: List[Dict[str, Any]] = []
        for record in records:
            if record.get("kind") == "round":
                run.append(record)
                if len(run) >= chunk_rounds:
                    frames.append(_encode_rounds_chunk(run))
                    run = []
            else:
                if run:
                    frames.append(_encode_rounds_chunk(run))
                    run = []
                frames.append(_encode_json_chunk([record]))
        if run:
            frames.append(_encode_rounds_chunk(run))
    else:
        raise ValueError(
            f"unknown trace format {trace_format!r} (expected one of {TRACE_FORMATS})"
        )
    storage.publish(target, *frames)


def jsonl_to_columnar(
    source: Union[str, Path],
    target: Union[str, Path],
    salvage: bool = False,
    chunk_rounds: int = DEFAULT_CHUNK_ROUNDS,
) -> int:
    """Convert a JSONL trace to the columnar container; return record count.

    Validation runs first (so an invalid trace cannot silently change
    format); with ``salvage=True`` the recovered prefix is converted
    instead.  Round-tripping back through :func:`columnar_to_jsonl`
    reproduces the original file byte for byte.
    """
    records = validate_records(read_trace(source, salvage=salvage), salvage=salvage)
    write_trace_records(target, records, "columnar", chunk_rounds=chunk_rounds)
    return len(records)


def columnar_to_jsonl(
    source: Union[str, Path],
    target: Union[str, Path],
    salvage: bool = False,
) -> int:
    """Convert a columnar container to JSONL; return the record count.

    The emitted lines are exactly ``json.dumps(record, sort_keys=True)``
    — the bytes a JSONL request publishes — so conversion is an identity
    on record values in both directions.
    """
    records = validate_records(
        read_columnar_trace(source, salvage=salvage), salvage=salvage
    )
    write_trace_records(target, records, "jsonl")
    return len(records)


# ----------------------------------------------------------------------
# Zero-reparse access paths
# ----------------------------------------------------------------------


def columnar_tail_round(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The last ``round`` record of a columnar trace, decoding one chunk.

    Steps back from the end of the file over whole frames
    (``reversed`` :class:`repro.storage.FrameScan`, which CRC-checks each)
    to the last chunk holding round records, and decodes only that chunk.
    The cost is that of the chunks after it, not of the file: about 2 ms
    at 0.9, 9.2 and 91.7 MiB of 4096-round chunks on a 2-vCPU Xeon host.
    When the last frame is torn — a live writer's ``.tmp`` caught
    mid-write — it walks forward from the start instead (linear in the
    file size) and returns the last *complete* round.  ``None`` when no
    complete round record exists.
    """
    try:
        with open(path, "rb") as handle:
            if os.fstat(handle.fileno()).st_size == 0:
                return None
            data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        with data:
            scan = storage.FrameScan(data, COLUMNAR_MAGIC)
            for body in reversed(scan):
                rounds = _round_records(body)
                if rounds:
                    return rounds[-1]
            if scan.end == 0:  # every chunk checked out: no round at all
                return None
            last = None
            for body in scan:  # the last frame is torn: walk forward instead
                try:
                    meta, _ = _split_chunk(body)
                    if meta.get("kind") == "rounds" and meta.get("rows") or (
                        _round_records(body)
                    ):
                        last = body
                except ValueError:
                    break
            return None if last is None else _round_records(last)[-1]
    except (OSError, ValueError):
        return None


def _round_records(body: bytes) -> List[Dict[str, Any]]:
    """The ``round`` records of one chunk body."""
    meta, payload = _split_chunk(body)
    return [r for r in _decode_chunk(meta, payload) if r.get("kind") == "round"]


@dataclass(frozen=True)
class ColumnarTraceData:
    """A validated columnar trace, exposed as columns instead of dicts.

    What the analytics fast path (``repro report`` over a trace
    directory) consumes: the structural records as dicts, and the round
    records as numpy columns straight out of the memory-mapped chunks —
    no per-record dict was ever materialised.

    Attributes:
        start: the ``run_start`` record.
        end: the ``run_end`` record (validated present).
        spans: ``span`` records, in stream order.
        rounds: number of round records.
        columns: field name → float64/int64 array over *all* round
            records (missing entries hold fill values — consult
            ``masks``); JSON-coded fields are plain lists.
        masks: field name → bool presence array, for fields that were
            missing somewhere.
    """

    start: Dict[str, Any]
    end: Dict[str, Any]
    spans: List[Dict[str, Any]] = field(default_factory=list)
    rounds: int = 0
    columns: Dict[str, Any] = field(default_factory=dict)
    masks: Dict[str, np.ndarray] = field(default_factory=dict)

    def column(self, key: str) -> Optional[np.ndarray]:
        """A field's values over the rounds where it is present (numeric only)."""
        values = self.columns.get(key)
        if values is None or not isinstance(values, np.ndarray):
            return None
        mask = self.masks.get(key)
        return values if mask is None else values[mask]


def load_columnar_data(path: Union[str, Path]) -> ColumnarTraceData:
    """Decode + validate a columnar trace without materialising round dicts.

    Runs the same schema checks as :func:`~repro.telemetry.jsonl.
    validate_trace` — header provenance, round ``t`` integer and
    non-decreasing, finite counts and drifts, span shape, single trailing
    ``run_end`` with a truthful ``rounds_recorded`` — but vectorised over
    the column buffers, which is what makes ``repro report`` on a
    million-record directory answer in milliseconds instead of re-parsing
    text.  Raises ``ValueError`` on the first violation, like the strict
    validator.
    """
    from repro.telemetry.jsonl import _validate_span_record

    start: Optional[Dict[str, Any]] = None
    end: Optional[Dict[str, Any]] = None
    spans: List[Dict[str, Any]] = []
    per_chunk: List[Tuple[int, Dict[str, Tuple[Any, Optional[np.ndarray]]]]] = []
    rounds = 0
    previous_t: Optional[int] = None
    index = 0  # running record index, for validator-compatible messages
    for meta, payload in _iter_chunks(path, salvage=False):
        if meta.get("kind") == "json":
            for record in _decode_json_chunk(meta, payload):
                index += 1
                kind = record.get("kind")
                if index == 1:
                    if kind != "run_start":
                        raise ValueError(
                            f"first record must be run_start, got {kind!r}"
                        )
                    validate_records([record], salvage=True)
                    start = record
                elif kind == "run_end":
                    if end is not None:
                        raise ValueError(f"record {index} is a second run_end")
                    end = record
                elif kind == "span":
                    _validate_span_record(record, index)
                    spans.append(record)
                elif kind == "round":
                    # Converted traces may carry rounds in JSON chunks;
                    # route them through the shared scalar checks.
                    raise ValueError(
                        f"round record {index} outside a rounds chunk"
                    )
                else:
                    raise ValueError(
                        f"record {index} has unknown kind {kind!r} "
                        "(expected round, span, or run_end)"
                    )
        elif meta.get("kind") == "rounds":
            if start is None:
                raise ValueError("first record must be run_start, got 'round'")
            if end is not None:
                raise ValueError(
                    f"round record {index + 1} appears after run_end "
                    "(truncated or spliced trace?)"
                )
            rows, columns = _decode_round_columns(meta, payload)
            index += rows
            previous_t = _validate_round_columns(
                rows, columns, previous_t, first_index=index - rows + 1
            )
            rounds += rows
            per_chunk.append((rows, columns))
        else:
            raise ValueError(f"unknown chunk kind {meta.get('kind')!r}")
    if start is None:
        raise ValueError("trace is empty")
    if end is None:
        raise ValueError("last record must be run_end (truncated trace?)")
    if end.get("rounds_recorded") != rounds:
        raise ValueError(
            f"run_end claims {end.get('rounds_recorded')} rounds but the "
            f"trace holds {rounds}"
        )
    columns, masks = _concatenate_columns(per_chunk, rounds)
    return ColumnarTraceData(
        start=start, end=end, spans=spans, rounds=rounds,
        columns=columns, masks=masks,
    )


def _validate_round_columns(
    rows: int,
    columns: Dict[str, Tuple[Any, Optional[np.ndarray]]],
    previous_t: Optional[int],
    first_index: int,
) -> Optional[int]:
    """Vectorised round-record checks for one chunk; returns the last t."""
    entry = columns.get("t")
    if entry is None:
        raise ValueError(f"round record {first_index} has non-integer t: None")
    t_values, t_mask = entry
    if (
        not isinstance(t_values, np.ndarray)
        or t_values.dtype.kind != "i"
        or t_mask is not None
    ):
        raise ValueError(
            f"round record {first_index} has non-integer t (column-coded "
            f"{type(t_values).__name__})"
        )
    if rows:
        diffs = np.diff(t_values)
        if np.any(diffs < 0):
            row = int(np.flatnonzero(diffs < 0)[0]) + 1
            raise ValueError(
                f"round record {first_index + row} goes back in time: "
                f"t={int(t_values[row])} after t={int(t_values[row - 1])}"
            )
        if previous_t is not None and int(t_values[0]) < previous_t:
            raise ValueError(
                f"round record {first_index} goes back in time: "
                f"t={int(t_values[0])} after t={previous_t}"
            )
    entry = columns.get("count")
    if entry is None:
        raise ValueError(f"round record {first_index} has non-finite count: None")
    counts, count_mask = entry
    if not isinstance(counts, np.ndarray) or count_mask is not None:
        raise ValueError(
            f"round record {first_index} has non-finite or missing count"
        )
    finite = np.isfinite(counts)
    if not np.all(finite):
        row = int(np.flatnonzero(~finite)[0])
        raise ValueError(
            f"round record {first_index + row} has non-finite count: "
            f"{float(counts[row])!r}"
        )
    drift_entry = columns.get("drift")
    if drift_entry is not None:
        drifts, drift_mask = drift_entry
        if not isinstance(drifts, np.ndarray):
            raise ValueError(
                f"round record {first_index} has non-numeric drift"
            )
        checked = drifts if drift_mask is None else drifts[drift_mask]
        if not np.all(np.isfinite(checked)):
            raise ValueError(
                f"round record {first_index} chunk has non-finite drift"
            )
    return int(t_values[-1]) if rows else previous_t


def _concatenate_columns(
    per_chunk: List[Tuple[int, Dict[str, Tuple[Any, Optional[np.ndarray]]]]],
    total_rows: int,
):
    """Stitch per-chunk columns into whole-trace arrays + presence masks."""
    keys = sorted(
        {
            key
            for _, columns in per_chunk
            for key in columns
            if "\x00" not in key and key != "__imask__"
        }
    )
    out_columns: Dict[str, Any] = {}
    out_masks: Dict[str, np.ndarray] = {}
    for key in keys:
        numeric = all(
            isinstance(columns[key][0], np.ndarray)
            for _, columns in per_chunk
            if key in columns
        )
        everywhere = all(key in columns for _, columns in per_chunk)
        any_mask = any(
            columns[key][1] is not None
            for _, columns in per_chunk
            if key in columns
        )
        if numeric:
            dtypes = {
                columns[key][0].dtype.kind
                for _, columns in per_chunk
                if key in columns
            }
            dtype = np.int64 if dtypes == {"i"} else np.float64
            values = np.empty(total_rows, dtype=dtype)
            mask = (
                np.zeros(total_rows, dtype=bool)
                if (any_mask or not everywhere)
                else None
            )
            cursor = 0
            for rows, columns in per_chunk:
                block = slice(cursor, cursor + rows)
                if key in columns:
                    chunk_values, chunk_mask = columns[key]
                    values[block] = chunk_values
                    if mask is not None:
                        mask[block] = True if chunk_mask is None else chunk_mask
                else:
                    values[block] = 0
                cursor += rows
        else:
            values = []
            mask_list: List[bool] = []
            for rows, columns in per_chunk:
                if key in columns:
                    chunk_values, chunk_mask = columns[key]
                    chunk_list = (
                        list(chunk_values)
                        if not isinstance(chunk_values, np.ndarray)
                        else chunk_values.tolist()
                    )
                    values.extend(chunk_list)
                    mask_list.extend(
                        [True] * rows if chunk_mask is None else list(chunk_mask)
                    )
                else:
                    values.extend([None] * rows)
                    mask_list.extend([False] * rows)
            mask = (
                None
                if all(mask_list)
                else np.asarray(mask_list, dtype=bool)
            )
        out_columns[key] = values
        if mask is not None:
            out_masks[key] = mask
    return out_columns, out_masks
