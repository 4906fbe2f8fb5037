"""Smoke-test the telemetry pipeline end to end (the `make trace-smoke` target).

Runs a tiny traced simulation, validates the emitted JSONL against the
documented schema (docs/OBSERVABILITY.md) via
:func:`repro.telemetry.validate_trace`, and cross-checks the trace against
the runner's own :class:`RunResult`.  Exits non-zero on any mismatch.

Usage:  python scripts/trace_smoke.py [output.jsonl]
"""

from __future__ import annotations

import pathlib
import sys
import tempfile

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import (
    Configuration, make_rng, open_trace_writer, simulate, validate_trace, voter,
)
from repro.telemetry import trace_counts


def main(path: str | None = None) -> int:
    if path is None:
        path = str(pathlib.Path(tempfile.mkdtemp(prefix="trace-smoke-")) / "smoke.jsonl")
    config = Configuration(n=64, z=1, x0=1)
    with open_trace_writer(path, "jsonl") as writer:
        result = simulate(
            voter(1), config, max_rounds=50_000, rng=make_rng(0),
            record=True, recorder=writer,
        )
    records = validate_trace(path)
    end = records[-1]
    problems = []
    if end.get("converged") != result.converged:
        problems.append(f"run_end converged={end.get('converged')} != {result.converged}")
    if end.get("rounds") != result.rounds:
        problems.append(f"run_end rounds={end.get('rounds')} != {result.rounds}")
    counts = trace_counts(records)
    if result.trajectory is None or counts.tolist() != result.trajectory.tolist():
        problems.append("trace counts do not reproduce the in-memory trajectory")
    if problems:
        for problem in problems:
            print(f"trace-smoke FAILED: {problem}", file=sys.stderr)
        return 1
    print(
        f"trace-smoke ok: {len(records)} records at {path} "
        f"(converged={result.converged} in {result.rounds} rounds)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
