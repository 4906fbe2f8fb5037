"""Trace records read back and validated, in either on-disk format.

A trace is one ``run_start`` record, zero or more ``round`` and ``span``
records, and one ``run_end`` record.  The exact field-by-field schema is
documented in ``docs/OBSERVABILITY.md``; :func:`validate_trace` is that
document's executable counterpart and is what ``make trace-smoke`` runs.

On disk a trace is JSON lines (one object per line) or the columnar
container (:mod:`repro.telemetry.columnar`, magic ``RCOL``).  One sink,
:class:`~repro.telemetry.columnar.ColumnarTraceWriter`, writes both: it
streams the container to ``<path>.tmp`` and publishes the requested
format at close.  :func:`detect_trace_format` tells the two apart by the
leading bytes, and :func:`read_trace` / :func:`validate_trace` sniff with
it, so every consumer reads a JSONL trace, a columnar trace and a killed
run's staging file alike.  ``salvage=True`` recovers the valid prefix of
a truncated trace (a torn line or a torn chunk); strict rejection stays
the default.  See docs/OBSERVABILITY.md, "Durability & fault model".
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Union

from repro.telemetry.recorder import TRACE_SCHEMA_VERSION

__all__ = [
    "COLUMNAR_MAGIC",
    "detect_trace_format",
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


def detect_trace_format(path: Union[str, Path]) -> str:
    """``"columnar"`` when ``path`` starts with the container magic, else ``"jsonl"``.

    The one format sniff every trace reader uses; ``OSError`` when the
    file cannot be read.
    """
    with open(path, "rb") as handle:
        columnar = handle.read(len(COLUMNAR_MAGIC)) == COLUMNAR_MAGIC
    return "columnar" if columnar else "jsonl"


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
    if isinstance(path, (str, Path)) and detect_trace_format(path) == "columnar":
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

    Works on both formats — the format is sniffed exactly as in
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
