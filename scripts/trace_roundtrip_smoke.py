"""Smoke-test trace format conversion (the `make trace-roundtrip` target).

Runs a tiny traced simulation published as JSONL, converts the trace
jsonl -> columnar -> jsonl (:func:`repro.telemetry.jsonl_to_columnar` /
:func:`repro.telemetry.columnar_to_jsonl`), and asserts the round trip is
**byte-identical** to the original file — the losslessness contract in
docs/OBSERVABILITY.md ("Trace formats").  It also proves the two formats
agree at the source: the same simulation published as columnar must
decode to exactly the records the JSONL request published (timings off,
so the comparison is deterministic).

Exits non-zero on any mismatch.

Usage:  python scripts/trace_roundtrip_smoke.py [scratch_dir]
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import Configuration, make_rng, simulate, voter
from repro.telemetry import (
    columnar_to_jsonl,
    jsonl_to_columnar,
    open_trace_writer,
    read_trace,
    validate_trace,
)


def _run_traced(path: pathlib.Path, trace_format: str) -> None:
    config = Configuration(n=64, z=1, x0=1)
    # timings off: seed-identical runs must produce value-identical records,
    # or the sink comparison below would be flaky by construction.
    with open_trace_writer(path, trace_format, include_timings=False) as writer:
        simulate(
            voter(1), config, max_rounds=50_000, rng=make_rng(0),
            record=True, recorder=writer,
        )


def main(scratch: str | None = None) -> int:
    if scratch is None:
        scratch = tempfile.mkdtemp(prefix="trace-roundtrip-")
    scratch_dir = pathlib.Path(scratch)
    scratch_dir.mkdir(parents=True, exist_ok=True)
    original = scratch_dir / "smoke.jsonl"
    container = scratch_dir / "smoke.ctrace"
    recovered = scratch_dir / "recovered.jsonl"

    _run_traced(original, "jsonl")
    records = validate_trace(original)

    problems = []

    # 1. jsonl -> columnar -> jsonl must reproduce the original bytes.
    forward = jsonl_to_columnar(original, container)
    backward = columnar_to_jsonl(container, recovered)
    if forward != len(records) or backward != len(records):
        problems.append(
            f"record counts drifted through conversion: "
            f"{len(records)} -> {forward} -> {backward}"
        )
    original_bytes = original.read_bytes()
    recovered_bytes = recovered.read_bytes()
    if original_bytes != recovered_bytes:
        problems.append(
            "round-tripped JSONL is not byte-identical to the original "
            f"({len(original_bytes)} vs {len(recovered_bytes)} bytes)"
        )

    # 2. The columnar container must validate in its own right.
    validate_trace(container)

    # 3. Publishing the same run as columnar must produce exactly the
    #    records the JSONL request published.
    direct = scratch_dir / "direct.ctrace"
    _run_traced(direct, "columnar")
    direct_records = read_trace(direct)
    if direct_records != records:
        for got, want in zip(direct_records, records):
            if got != want:
                problems.append(
                    "columnar trace diverged from the JSONL trace:\n"
                    f"  columnar: {json.dumps(got, sort_keys=True)}\n"
                    f"  jsonl:    {json.dumps(want, sort_keys=True)}"
                )
                break
        else:
            problems.append(
                "columnar trace record count diverged from the JSONL trace: "
                f"{len(direct_records)} vs {len(records)}"
            )

    if problems:
        for problem in problems:
            print(f"trace-roundtrip FAILED: {problem}", file=sys.stderr)
        return 1
    print(
        f"trace-roundtrip ok: {len(records)} records byte-identical through "
        f"jsonl -> columnar -> jsonl, direct columnar trace agrees "
        f"({container.stat().st_size} vs {original.stat().st_size} bytes on disk)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
