"""Tests for the columnar trace container (sink, salvage, converters)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dynamics.config import Configuration, wrong_consensus_configuration
from repro.dynamics.rng import make_rng
from repro.dynamics.run import simulate
from repro.protocols import voter
from repro.telemetry import (
    ColumnarTraceWriter,
    columnar_tail_round,
    columnar_to_jsonl,
    detect_trace_format,
    jsonl_to_columnar,
    load_columnar_data,
    open_trace_writer,
    read_columnar_trace,
    read_trace,
    run_provenance,
    validate_trace,
    write_trace_records,
)
from repro.telemetry.columnar import TRACE_FORMATS
from repro.telemetry.jsonl import COLUMNAR_MAGIC


def _provenance():
    return run_provenance("simulate", voter(1), make_rng(0), n=20, z=1, x0=5)


def _traced_run(path, trace_format, seed=3, chunk_rounds=None, n=80):
    """Run a small simulation through the chosen sink; return the result."""
    kwargs = {} if chunk_rounds is None else {"chunk_rounds": chunk_rounds}
    config = wrong_consensus_configuration(n, z=1)
    with open_trace_writer(
        path, trace_format, include_timings=False, **kwargs
    ) as writer:
        return simulate(voter(1), config, 50_000, make_rng(seed), recorder=writer)


class TestColumnarSink:
    def test_records_match_jsonl_sink_exactly(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        ctrace = tmp_path / "run.ctrace"
        _traced_run(jsonl, "jsonl")
        _traced_run(ctrace, "columnar")
        assert read_trace(ctrace) == read_trace(jsonl)

    def test_tmp_until_close_then_atomic_rename(self, tmp_path):
        path = tmp_path / "run.ctrace"
        writer = ColumnarTraceWriter(path, include_timings=False)
        config = Configuration(n=64, z=1, x0=1)
        simulate(voter(1), config, 50_000, make_rng(0), recorder=writer)
        assert not path.exists()
        assert path.with_name("run.ctrace.tmp").exists()
        writer.close()
        assert path.exists()
        assert not path.with_name("run.ctrace.tmp").exists()

    def test_chunking_is_invisible_to_readers(self, tmp_path):
        one = tmp_path / "one.ctrace"
        many = tmp_path / "many.ctrace"
        _traced_run(one, "columnar", chunk_rounds=1)
        _traced_run(many, "columnar", chunk_rounds=4096)
        assert read_trace(one) == read_trace(many)
        assert one.stat().st_size > many.stat().st_size  # framing overhead

    def test_validates_like_jsonl(self, tmp_path):
        path = tmp_path / "run.ctrace"
        _traced_run(path, "columnar")
        records = validate_trace(path)
        assert records[0]["kind"] == "run_start"
        assert records[-1]["kind"] == "run_end"

    def test_rejects_file_objects(self):
        import io

        with pytest.raises(TypeError, match="path"):
            ColumnarTraceWriter(io.BytesIO())  # type: ignore[arg-type]

    def test_rejects_bad_chunk_rounds(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_rounds"):
            ColumnarTraceWriter(tmp_path / "x.ctrace", chunk_rounds=0)

    def test_write_after_close_raises(self, tmp_path):
        writer = ColumnarTraceWriter(tmp_path / "x.ctrace")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.round_recorded(1, 10)

    def test_open_trace_writer_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            open_trace_writer(tmp_path / "x", "parquet")
        assert TRACE_FORMATS == ("jsonl", "columnar")


class TestJsonlRequest:
    """A JSONL request streams the container and publishes lines at close."""

    def test_streams_chunks_then_publishes_json_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        staging = tmp_path / "run.jsonl.tmp"
        writer = open_trace_writer(
            path, "jsonl", include_timings=False, chunk_rounds=8
        )
        simulate(voter(1), wrong_consensus_configuration(80, z=1), 50_000,
                 make_rng(3), recorder=writer)
        assert not path.exists()
        assert detect_trace_format(staging) == "columnar"
        records = read_trace(staging)
        writer.close()
        assert not staging.exists()
        assert detect_trace_format(path) == "jsonl"
        expected = tmp_path / "expected.jsonl"
        write_trace_records(expected, records, "jsonl")
        assert path.read_bytes() == expected.read_bytes()

    def test_flush_drains_the_round_buffer(self, tmp_path):
        writer = open_trace_writer(tmp_path / "run.jsonl", "jsonl")
        writer.run_started(_provenance())
        writer.round_recorded(1, 10)
        writer.flush()
        staged = read_trace(tmp_path / "run.jsonl.tmp")
        assert [r["kind"] for r in staged] == ["run_start", "round"]
        writer.close()

    def test_close_after_a_failed_run_still_publishes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with open_trace_writer(path, "jsonl") as writer:
                writer.run_started(_provenance())
                writer.round_recorded(1, 10)
                raise RuntimeError("boom")
        assert [r["kind"] for r in read_trace(path)] == ["run_start", "round"]
        with pytest.raises(ValueError, match="run_end"):
            validate_trace(path)

    @pytest.mark.parametrize("trace_format", TRACE_FORMATS)
    def test_no_record_publishes_nothing(self, tmp_path, trace_format):
        open_trace_writer(tmp_path / "run", trace_format).close()
        assert list(tmp_path.iterdir()) == []


class TestSalvage:
    def test_torn_tail_salvages_to_prefix(self, tmp_path):
        path = tmp_path / "run.ctrace"
        _traced_run(path, "columnar", chunk_rounds=8)
        complete = read_trace(path)
        blob = path.read_bytes()
        torn = tmp_path / "torn.ctrace"
        torn.write_bytes(blob[: len(blob) - len(blob) // 3])
        with pytest.raises(ValueError, match="torn"):
            read_columnar_trace(torn)
        salvaged = read_trace(torn, salvage=True)
        assert 0 < len(salvaged) < len(complete)
        assert salvaged == complete[: len(salvaged)]

    def test_corrupt_chunk_detected_by_crc(self, tmp_path):
        path = tmp_path / "run.ctrace"
        _traced_run(path, "columnar", chunk_rounds=8)
        blob = bytearray(path.read_bytes())
        # Flip a payload byte mid-file, past the first chunk's framing.
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.ctrace"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="byte"):
            read_columnar_trace(bad)
        salvaged = read_trace(bad, salvage=True)
        assert salvaged == read_trace(path)[: len(salvaged)]

    def test_empty_file_is_empty_not_an_error(self, tmp_path):
        empty = tmp_path / "empty.ctrace"
        empty.write_bytes(b"")
        assert read_columnar_trace(empty) == []


class TestConverters:
    def test_jsonl_columnar_jsonl_is_byte_identical(self, tmp_path):
        original = tmp_path / "run.jsonl"
        _traced_run(original, "jsonl")
        container = tmp_path / "run.ctrace"
        recovered = tmp_path / "back.jsonl"
        count = jsonl_to_columnar(original, container)
        assert columnar_to_jsonl(container, recovered) == count
        assert recovered.read_bytes() == original.read_bytes()

    def test_detect_trace_format(self, tmp_path):
        jsonl = tmp_path / "a.jsonl"
        ctrace = tmp_path / "a.ctrace"
        _traced_run(jsonl, "jsonl")
        jsonl_to_columnar(jsonl, ctrace)
        assert detect_trace_format(jsonl) == "jsonl"
        assert detect_trace_format(ctrace) == "columnar"
        assert ctrace.read_bytes().startswith(COLUMNAR_MAGIC)

    def test_convert_refuses_invalid_source(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "round", "t": 1, "count": 3}\n')
        with pytest.raises(ValueError):
            jsonl_to_columnar(bad, tmp_path / "bad.ctrace")

    def test_mixed_value_types_survive_round_trip(self, tmp_path):
        # int-ness, floats, bools, strings, missing fields: every column
        # encoding path in one stream.
        records = [
            {"kind": "run_start", "schema": 1, "runner": "simulate",
             "params": {}, "protocol": {"name": "t", "ell": 1,
             "g0": [0.0, 1.0], "g1": None, "fingerprint": "x" * 16},
             "rng": {"bit_generator": "PCG64", "state_hash": "0" * 16},
             "repro_version": "0"},
            {"kind": "round", "t": 1, "count": 10, "drift": -0.5},
            {"kind": "round", "t": 2, "count": 9.5, "active": 3},
            {"kind": "round", "t": 3, "count": 9, "note": "spike",
             "flag": True},
            {"kind": "round", "t": 4, "count": 2 ** 60},
            {"kind": "run_end", "converged": False, "rounds": 4,
             "final_round": 4, "rounds_recorded": 4},
        ]
        target = tmp_path / "mixed.ctrace"
        write_trace_records(target, records, "columnar", chunk_rounds=2)
        decoded = read_columnar_trace(target)
        assert decoded == records
        # Value *and* type identity — 9 must come back int, 9.5 float.
        assert [json.dumps(r, sort_keys=True) for r in decoded] == [
            json.dumps(r, sort_keys=True) for r in records
        ]


class TestColumnarTail:
    def test_tail_without_full_decode(self, tmp_path):
        path = tmp_path / "run.ctrace"
        result = _traced_run(path, "columnar", chunk_rounds=16)
        tail = columnar_tail_round(path)
        assert tail is not None and tail["t"] == result.rounds

    def test_tail_of_torn_tmp_returns_last_complete_round(self, tmp_path):
        path = tmp_path / "run.ctrace"
        _traced_run(path, "columnar", chunk_rounds=8)
        blob = path.read_bytes()
        torn = tmp_path / "live.ctrace.tmp"
        torn.write_bytes(blob[: len(blob) - 7])
        tail = columnar_tail_round(torn)
        salvaged_rounds = [
            r for r in read_trace(torn, salvage=True) if r["kind"] == "round"
        ]
        assert tail == salvaged_rounds[-1]

    def test_tail_missing_or_empty_is_none(self, tmp_path):
        assert columnar_tail_round(tmp_path / "absent.ctrace") is None
        empty = tmp_path / "empty.ctrace"
        empty.write_bytes(b"")
        assert columnar_tail_round(empty) is None


class TestLoadColumnarData:
    def test_columns_match_record_fields(self, tmp_path):
        path = tmp_path / "run.ctrace"
        _traced_run(path, "columnar", chunk_rounds=16)
        data = load_columnar_data(path)
        records = read_columnar_trace(path)
        rounds = [r for r in records if r["kind"] == "round"]
        assert data.rounds == len(rounds)
        assert data.start == records[0]
        assert data.end == records[-1]
        counts = data.column("count")
        assert counts is not None
        np.testing.assert_array_equal(counts, [r["count"] for r in rounds])

    def test_partial_fields_are_mask_filtered(self, tmp_path):
        records = [
            {"kind": "run_start", "schema": 1, "runner": "simulate",
             "params": {}, "protocol": {"name": "t", "ell": 1,
             "g0": [0.0, 1.0], "g1": None, "fingerprint": "x" * 16},
             "rng": {"bit_generator": "PCG64", "state_hash": "0" * 16},
             "repro_version": "0"},
            {"kind": "round", "t": 1, "count": 10},
            {"kind": "round", "t": 2, "count": 9, "drift": -1.0},
            {"kind": "run_end", "converged": False, "rounds": 2,
             "final_round": 2, "rounds_recorded": 2},
        ]
        target = tmp_path / "partial.ctrace"
        write_trace_records(target, records, "columnar")
        data = load_columnar_data(target)
        drift = data.column("drift")
        assert drift is not None
        np.testing.assert_array_equal(drift, [-1.0])
        assert data.column("nope") is None

    def test_invalid_trace_raises_like_strict_validator(self, tmp_path):
        records = [
            {"kind": "round", "t": 1, "count": 3},
        ]
        target = tmp_path / "headless.ctrace"
        write_trace_records(target, records, "columnar")
        with pytest.raises(ValueError, match="run_start"):
            load_columnar_data(target)

    def test_jsonl_writer_still_unaffected(self, tmp_path):
        # Guard the sniffing seam: a JSONL trace through the same helpers.
        path = tmp_path / "run.jsonl"
        _traced_run(path, "jsonl")
        assert detect_trace_format(path) == "jsonl"
        with pytest.raises(ValueError):
            load_columnar_data(path)
