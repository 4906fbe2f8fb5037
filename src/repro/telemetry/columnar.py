"""Columnar binary traces: chunked column batches with JSONL-equal records.

The JSONL sink (:mod:`repro.telemetry.jsonl`) pays a text encode and a
``write(2)`` per round — measured at double-digit percent overhead on the
hot path — and every analytics query re-parses the text.  This module
stores the same schema-v1 record stream in a chunked binary container
instead: ``round`` records are buffered and written as typed numpy column
batches (one ``int64``/``float64`` buffer per field), while the rare
structural records (``run_start``, ``span``, ``run_end``) are embedded as
compact JSON payloads in their stream position.  Readers decode back to
the *exact* record dicts the JSONL sink would have produced, so
conversion between the formats is lossless in both directions and every
consumer of :func:`~repro.telemetry.jsonl.read_trace` /
:func:`~repro.telemetry.jsonl.validate_trace` works on either format
unchanged (both sniff the ``RCOL`` magic and delegate here).

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

Durability matches the JSONL sink contract, at chunk granularity: the
writer streams to ``<path>.tmp`` (one write per chunk), renames into
place on close after flush + fsync, honours the ``trace:mid_write``
crashpoint by tearing a chunk mid-write, and torn or corrupt tails are
recoverable with ``salvage=True``.  The trade-off is buffering: up to
``chunk_rounds`` rounds live in memory between chunk writes, so a hard
kill can lose the buffered tail — ``flush()`` (called by
:class:`~repro.execution.ShutdownGuard` on graceful exits) drains it.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro import storage
from repro.telemetry.jsonl import (
    COLUMNAR_MAGIC,
    JsonlTraceWriter,
    TraceWriterBase,
    read_trace,
    validate_records,
)

__all__ = [
    "COLUMNAR_FORMAT_VERSION",
    "COLUMNAR_SUFFIX",
    "DEFAULT_CHUNK_ROUNDS",
    "TRACE_FORMATS",
    "ColumnarTraceData",
    "ColumnarTraceWriter",
    "columnar_tail_round",
    "columnar_to_jsonl",
    "detect_trace_format",
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
# json.dumps with a fresh encoder per call is the cost the JSONL satellite
# fix removed; bind one encoder here too.
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


def _encode_json_chunk(records: List[Dict[str, Any]]) -> bytes:
    payload = "".join(_ENCODE(record) + "\n" for record in records).encode("utf-8")
    meta = {"v": COLUMNAR_FORMAT_VERSION, "kind": "json", "count": len(records)}
    return _frame(meta, payload)


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

    The file is memory-mapped for the walk.  A torn or corrupt frame, or
    a chunk whose meta block does not decode, ends the walk in salvage
    mode and raises ``ValueError`` naming its byte offset otherwise —
    mirroring the JSONL reader's torn-line semantics at chunk granularity.
    """
    with open(path, "rb") as handle:
        if os.fstat(handle.fileno()).st_size == 0:
            return
        data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    with data:
        frames = storage.FrameScan(data, COLUMNAR_MAGIC)
        problem = None
        for body in frames:
            try:
                meta, payload = _split_chunk(body)
            except ValueError as error:
                problem = str(error)
                break
            yield meta, payload
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


def read_columnar_trace(
    path: Union[str, Path], salvage: bool = False
) -> List[Dict[str, Any]]:
    """Decode a columnar container back to its record dicts, in order.

    The inverse of :class:`ColumnarTraceWriter`: the returned records are
    value-identical to what the JSONL sink would have written for the same
    run.  With ``salvage=True`` a torn or corrupt chunk ends the decode
    and the preceding records are returned; strictly, it raises
    ``ValueError`` naming the offending byte offset.
    """
    records: List[Dict[str, Any]] = []
    for meta, payload in _iter_chunks(path, salvage):
        if meta.get("kind") == "rounds":
            records.extend(_decode_rounds_chunk(meta, payload))
        elif meta.get("kind") == "json":
            records.extend(_decode_json_chunk(meta, payload))
        else:
            if salvage:
                break
            raise ValueError(f"unknown chunk kind {meta.get('kind')!r}")
    return records


# ----------------------------------------------------------------------
# The sink
# ----------------------------------------------------------------------


class ColumnarTraceWriter(TraceWriterBase):
    """Stream a run into the chunked columnar container.

    Drop-in alternative to :class:`~repro.telemetry.jsonl.
    JsonlTraceWriter` (same Recorder hooks, same record contents — both
    build records through :class:`~repro.telemetry.jsonl.
    TraceWriterBase`): ``round`` records are buffered and flushed as one
    typed column chunk per ``chunk_rounds`` records, so the hot path pays
    a dict append instead of a JSON encode + ``write(2)``.  Structural
    records (``run_start``, ``span``, ``run_end``) flush the pending
    rounds first and are embedded as JSON chunks, preserving stream
    order.

    Durability contract (docs/OBSERVABILITY.md, "Trace formats"): lazy
    ``<path>.tmp`` open, one write per chunk, ``flush()`` drains the
    round buffer and fsyncs (wired to :class:`~repro.execution.
    ShutdownGuard`), :meth:`close` renames into place, and the
    ``trace:mid_write`` crashpoint tears a chunk mid-write for the salvage
    tests.  Only path targets are supported — the container is binary.

    Args:
        target: output path (``str`` or ``Path``).
        include_timings: as on the JSONL sink — ``False`` omits wall-clock
            fields so seed-identical runs produce byte-identical files.
        chunk_rounds: round records buffered per column chunk; smaller
            values tighten durability, larger ones amortise better.
    """

    def __init__(
        self,
        target: Union[str, Path],
        include_timings: bool = True,
        chunk_rounds: int = DEFAULT_CHUNK_ROUNDS,
    ) -> None:
        if not isinstance(target, (str, Path)):
            raise TypeError(
                "ColumnarTraceWriter needs a filesystem path "
                "(the container is binary; open file objects are not supported)"
            )
        if chunk_rounds < 1:
            raise ValueError(f"chunk_rounds must be >= 1, got {chunk_rounds}")
        super().__init__(include_timings)
        self.chunk_rounds = chunk_rounds
        self._path = Path(target)
        # One write(2) per chunk, so every completed chunk reaches the OS
        # as it is written (same salvage story as the JSONL sink, at chunk
        # granularity).
        self._stream = storage.Stream(
            self._path, "trace:mid_write", "trace:after_write"
        )
        self._pending: List[Dict[str, Any]] = []
        self._closed = False

    def _write(self, record: Dict[str, Any]) -> None:
        if self._closed:
            raise ValueError("trace writer already closed")
        if record.get("kind") == "round":
            self._pending.append(record)
            self.records_written += 1
            if len(self._pending) >= self.chunk_rounds:
                self._drain_rounds()
        else:
            self._drain_rounds()
            self._stream.write(_encode_json_chunk([record]))
            self.records_written += 1

    def _drain_rounds(self) -> None:
        if self._pending:
            pending, self._pending = self._pending, []
            self._stream.write(_encode_rounds_chunk(pending))

    def flush(self) -> None:
        """Drain buffered rounds into a chunk, then flush + fsync.

        Wired to :class:`~repro.execution.ShutdownGuard` exactly like the
        JSONL sink's flush, so a graceful interrupt loses nothing; only a
        hard kill can drop the (at most ``chunk_rounds``-record) buffer.
        """
        self._drain_rounds()
        self._stream.sync()

    def close(self) -> None:
        """Drain, fsync, close, and atomically publish at the target path."""
        if self._closed:
            return
        self._drain_rounds()
        self._closed = True
        self._stream.close()


def open_trace_writer(
    target: Union[str, Path],
    trace_format: str = "jsonl",
    include_timings: bool = True,
    **kwargs: Any,
) -> TraceWriterBase:
    """Build the trace sink for ``--trace-format``: JSONL or columnar.

    The single construction point the CLI, supervisor shards, and smoke
    scripts share, so a format name is interpreted identically everywhere.
    Extra keyword arguments are forwarded to the sink (e.g.
    ``chunk_rounds=`` for the columnar writer).
    """
    if trace_format == "jsonl":
        return JsonlTraceWriter(target, include_timings=include_timings, **kwargs)
    if trace_format == "columnar":
        return ColumnarTraceWriter(target, include_timings=include_timings, **kwargs)
    raise ValueError(
        f"unknown trace format {trace_format!r} (expected one of {TRACE_FORMATS})"
    )


def detect_trace_format(path: Union[str, Path]) -> str:
    """``"columnar"`` when ``path`` starts with the container magic, else ``"jsonl"``."""
    try:
        columnar = storage.has_magic(path, COLUMNAR_MAGIC)
    except OSError as error:
        raise ValueError(f"cannot sniff trace format of {path}: {error}") from error
    return "columnar" if columnar else "jsonl"


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
        payload = "".join(_ENCODE(record) + "\n" for record in records).encode("utf-8")
        frames = [payload]
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
    — the JSONL sink's own bytes — so conversion is an identity on record
    values in both directions.
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

    Walks every chunk forward from offset 0, reading and CRC-checking
    each (:class:`repro.storage.FrameScan`), to find the final chunk
    holding round records, then decodes just that chunk.  The cost is
    linear in the file size: about 6 / 14 / 100 ms at 1 / 10 / 96 MB of
    4096-round chunks on a 2-vCPU Xeon host.  Torn tails — the live
    ``.tmp`` of a running writer — simply end the walk, so tailing a file
    mid-write returns the last *complete* round.  ``None`` when no
    complete round record exists.
    """
    last: Optional[Tuple[Dict[str, Any], bytes]] = None
    try:
        for meta, payload in _iter_chunks(path, salvage=True):
            if meta.get("kind") == "rounds" and meta.get("rows"):
                last = (meta, payload)
            elif meta.get("kind") == "json":
                try:
                    records = _decode_json_chunk(meta, payload)
                except ValueError:
                    continue
                if any(r.get("kind") == "round" for r in records):
                    last = (meta, payload)
        if last is None:
            return None
        meta, payload = last
        if meta.get("kind") == "rounds":
            records = _decode_rounds_chunk(meta, payload)
        else:
            records = _decode_json_chunk(meta, payload)
        rounds = [r for r in records if r.get("kind") == "round"]
        return rounds[-1] if rounds else None
    except (OSError, ValueError):
        return None


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
