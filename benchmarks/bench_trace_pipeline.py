"""E13d — trace pipeline: sink hot-path overhead and report-query latency.

The columnar trace container exists for two measurable reasons, and this
module measures exactly those:

* **Write side** — per-record cost of the one trace sink, driven
  directly (no simulation in the way), close included: both formats
  buffer rounds and pay an amortised numpy column encode per chunk, and a
  JSONL request then re-encodes the published container as JSON lines,
  one chunk at a time.  The assertion is the columnar container's reason
  to exist: its per-record cost strictly below a JSONL request's.
* **Read side** — ``repro report`` query latency over a trace directory
  (full sizing: 10^6 round records across 8 files).  Four strategies are
  timed on identical record streams: JSONL re-parse (the pre-columnar
  status quo), columnar cold decode (memory-mapped column chunks), index
  build (first ``TRACE_INDEX.json`` refresh), and index warm hit (the
  repeated-query case).  The headline assertion is the acceptance bar:
  columnar cold decode at least 5x faster than the JSONL re-parse.

The ledger record ``BENCH_E13d_trace_pipeline.json`` archives the query
phase's wall clock (what the regression gate watches) plus every
per-strategy timing and the sink overhead ratios as ``extra`` fields.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from _harness import emit, note_field, note_rounds, pick, run_once
from repro.analysis.index import refresh_trace_index
from repro.analysis.report import summarize_trace_dir
from repro.analysis.series import Table
from repro.dynamics.rng import make_rng
from repro.protocols import minority
from repro.telemetry import open_trace_writer, run_provenance, write_trace_records
from repro.telemetry.recorder import TRACE_SCHEMA_VERSION

PROTOCOL = minority(3)
N_AGENTS = 4096


def _provenance(seed: int):
    return run_provenance(
        "simulate", PROTOCOL, make_rng(seed),
        n=N_AGENTS, z=1, x0=N_AGENTS // 3, seed=seed,
    )


def _synthetic_records(seed: int, rounds: int):
    """A valid ``simulate``-shaped record stream: clipped random-walk counts.

    Drift fields are included so the report layer exercises its Prop-5
    comparison (the expensive part of a summary) on both read paths.
    """
    rng = make_rng(seed)
    steps = rng.integers(-3, 4, size=rounds)
    counts = np.clip(
        np.cumsum(steps) + N_AGENTS // 3, 1, N_AGENTS - 1
    ).astype(float)
    drifts = np.diff(np.concatenate(([float(N_AGENTS // 3)], counts)))
    counts_list, drifts_list = counts.tolist(), drifts.tolist()
    start = {"kind": "run_start", "schema": TRACE_SCHEMA_VERSION}
    start.update(_provenance(seed).to_dict())
    records = [start]
    records.extend(
        {
            "kind": "round",
            "t": t + 1,
            "count": counts_list[t],
            "drift": drifts_list[t],
        }
        for t in range(rounds)
    )
    records.append(
        {
            "kind": "run_end",
            "converged": False,
            "rounds": rounds,
            "final_round": rounds,
            "rounds_recorded": rounds,
        }
    )
    return records


def _drive_sink(writer, rounds: int) -> float:
    """Wall clock of streaming ``rounds`` round records through a sink."""
    start = time.perf_counter()
    writer.run_started(_provenance(0))
    count = float(N_AGENTS // 3)
    for t in range(1, rounds + 1):
        writer.round_recorded(t, count, {"drift": 0.5})
    writer.run_finished({"converged": False, "rounds": rounds})
    writer.close()
    return time.perf_counter() - start


def test_trace_pipeline(benchmark):
    """E13d — trace sink cost per format + zero-reparse report queries."""
    sink_rounds = pick(200_000, 20_000)
    files = 8
    rounds_per_file = pick(125_000, 6_000)  # full: 10^6 records total
    total_rounds = files * rounds_per_file

    with tempfile.TemporaryDirectory(prefix="repro_e13d_") as scratch:
        scratch = Path(scratch)

        # -- write side: per-record sink cost, identical record streams --
        jsonl_write_s = _drive_sink(
            open_trace_writer(scratch / "sink.jsonl", "jsonl", include_timings=False),
            sink_rounds,
        )
        columnar_write_s = _drive_sink(
            open_trace_writer(
                scratch / "sink.ctrace", "columnar", include_timings=False
            ),
            sink_rounds,
        )
        jsonl_us = 1e6 * jsonl_write_s / sink_rounds
        columnar_us = 1e6 * columnar_write_s / sink_rounds
        jsonl_bytes = (scratch / "sink.jsonl").stat().st_size
        columnar_bytes = (scratch / "sink.ctrace").stat().st_size

        # -- read side: one record population, two containers --
        jsonl_dir = scratch / "jsonl"
        columnar_dir = scratch / "columnar"
        jsonl_dir.mkdir()
        columnar_dir.mkdir()
        for k in range(files):
            records = _synthetic_records(seed=100 + k, rounds=rounds_per_file)
            write_trace_records(jsonl_dir / f"run{k}.jsonl", records, "jsonl")
            write_trace_records(
                columnar_dir / f"run{k}.ctrace", records, "columnar"
            )

        def query_phase():
            timings = {}
            start = time.perf_counter()
            jsonl_summaries = summarize_trace_dir(jsonl_dir)
            timings["jsonl_reparse_s"] = time.perf_counter() - start
            start = time.perf_counter()
            columnar_summaries = summarize_trace_dir(columnar_dir)
            timings["columnar_cold_s"] = time.perf_counter() - start
            start = time.perf_counter()
            refresh_trace_index(columnar_dir)
            timings["index_build_s"] = time.perf_counter() - start
            start = time.perf_counter()
            indexed_summaries = summarize_trace_dir(
                columnar_dir, use_index=True
            )
            timings["index_warm_s"] = time.perf_counter() - start
            return timings, jsonl_summaries, columnar_summaries, indexed_summaries

        timings, jsonl_summaries, columnar_summaries, indexed_summaries = (
            run_once(benchmark, query_phase, experiment="E13d_trace_pipeline")
        )

    speedup_cold = timings["jsonl_reparse_s"] / timings["columnar_cold_s"]
    speedup_warm = timings["jsonl_reparse_s"] / timings["index_warm_s"]
    note_rounds(total_rounds)
    note_field("sink_rounds", sink_rounds)
    note_field("jsonl_write_us_per_record", round(jsonl_us, 3))
    note_field("columnar_write_us_per_record", round(columnar_us, 3))
    note_field("sink_overhead_ratio", round(jsonl_us / columnar_us, 2))
    note_field("jsonl_trace_bytes", jsonl_bytes)
    note_field("columnar_trace_bytes", columnar_bytes)
    note_field("query_records", total_rounds)
    note_field("jsonl_reparse_s", round(timings["jsonl_reparse_s"], 4))
    note_field("columnar_cold_s", round(timings["columnar_cold_s"], 4))
    note_field("index_build_s", round(timings["index_build_s"], 4))
    note_field("index_warm_s", round(timings["index_warm_s"], 4))
    note_field("report_speedup_cold", round(speedup_cold, 2))
    note_field("report_speedup_warm", round(speedup_warm, 2))

    sink_table = Table(
        f"trace sink hot path ({sink_rounds} rounds, timings off)",
        ["sink", "wall s", "us/record", "bytes"],
    )
    sink_table.add_row("jsonl", round(jsonl_write_s, 4), round(jsonl_us, 3), jsonl_bytes)
    sink_table.add_row(
        "columnar", round(columnar_write_s, 4), round(columnar_us, 3), columnar_bytes
    )
    query_table = Table(
        f"report query over {files} traces x {rounds_per_file} rounds "
        f"({total_rounds} records)",
        ["strategy", "wall s", "speedup vs jsonl"],
    )
    query_table.add_row("jsonl re-parse", round(timings["jsonl_reparse_s"], 4), 1.0)
    query_table.add_row(
        "columnar cold", round(timings["columnar_cold_s"], 4), round(speedup_cold, 1)
    )
    query_table.add_row(
        "index build", round(timings["index_build_s"], 4),
        round(timings["jsonl_reparse_s"] / timings["index_build_s"], 1),
    )
    query_table.add_row(
        "index warm", round(timings["index_warm_s"], 4), round(speedup_warm, 1)
    )
    emit("E13d_trace_pipeline", sink_table, query_table)

    # Correctness rail: every strategy reads the same analytics.  Paths
    # differ across directories; everything else must match exactly.
    def strip(summaries):
        return [
            (s.rounds, s.fingerprint, round(s.mean_realized_drift, 12),
             round(s.drift_gap, 12))
            for s in summaries
        ]

    assert strip(jsonl_summaries) == strip(columnar_summaries)
    assert strip(columnar_summaries) == strip(indexed_summaries)
    # The acceptance bars (ISSUE 8): columnar strictly cheaper on the hot
    # path, and report queries at least 5x faster than the JSONL re-parse.
    assert columnar_us < jsonl_us
    assert speedup_cold >= 5.0
