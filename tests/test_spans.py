"""Tests for the span timer API (repro.telemetry.spans)."""

from __future__ import annotations

import json

import pytest

from repro.dynamics.config import wrong_consensus_configuration
from repro.dynamics.rng import make_rng
from repro.dynamics.run import simulate, simulate_ensemble
from repro.protocols import voter
from repro.telemetry import (
    NULL_RECORDER,
    NULL_SPAN,
    MetricsRecorder,
    Recorder,
    SpanRecord,
    TeeRecorder,
    current_span,
    open_trace_writer,
    span,
)


class TestSpanBasics:
    def test_disabled_recorder_gets_null_span(self):
        assert span(NULL_RECORDER, "anything") is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as s:
            s.incr("steps")
            s.incr("steps", 5)
        # no state to assert — the contract is simply "never raises"

    def test_records_name_path_and_wall_clock(self):
        recorder = MetricsRecorder()
        with span(recorder, "outer"):
            pass
        spans = recorder.metrics().spans
        assert list(spans) == ["outer"]
        agg = spans["outer"]
        assert agg.calls == 1
        assert agg.wall_s >= 0.0

    def test_nested_spans_build_slash_paths(self):
        recorder = MetricsRecorder()
        with span(recorder, "outer"):
            with span(recorder, "inner"):
                pass
            with span(recorder, "inner"):
                pass
        spans = recorder.metrics().spans
        assert set(spans) == {"outer", "outer/inner"}
        assert spans["outer/inner"].calls == 2
        assert spans["outer"].calls == 1

    def test_counters_aggregate_across_calls(self):
        recorder = MetricsRecorder()
        for _ in range(3):
            with span(recorder, "work") as s:
                s.incr("items", 2)
        agg = recorder.metrics().spans["work"]
        assert agg.calls == 3
        assert agg.counters["items"] == 6

    def test_exception_still_closes_span(self):
        recorder = MetricsRecorder()
        with pytest.raises(RuntimeError):
            with span(recorder, "doomed"):
                raise RuntimeError("boom")
        assert recorder.metrics().spans["doomed"].calls == 1
        # the stack is clean: a new span is top-level again
        with span(recorder, "after"):
            pass
        assert "after" in recorder.metrics().spans

    def test_current_span_returns_innermost_open_span(self):
        recorder = MetricsRecorder()
        assert current_span(recorder) is NULL_SPAN
        with span(recorder, "outer"):
            with span(recorder, "inner"):
                current_span(recorder).incr("hits")
        assert recorder.metrics().spans["outer/inner"].counters["hits"] == 1

    def test_current_span_on_disabled_recorder(self):
        assert current_span(NULL_RECORDER) is NULL_SPAN

    def test_tee_forwards_span_records(self, tmp_path):
        from repro.dynamics.rng import make_rng
        from repro.telemetry.recorder import run_provenance

        metrics = MetricsRecorder()
        path = tmp_path / "t.jsonl"
        writer = open_trace_writer(path, "jsonl")
        tee = TeeRecorder([metrics, writer])
        tee.run_started(run_provenance("x", voter(1), make_rng(0)))
        with span(tee, "stage"):
            pass
        tee.run_finished({})
        writer.close()
        assert "stage" in metrics.metrics().spans
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert "span" in kinds

    def test_base_recorder_hook_is_a_noop(self):
        rec = Recorder()
        rec.enabled = True
        rec.span_recorded(
            SpanRecord(name="x", path="x", depth=0, wall_s=0.0, counters={})
        )


class TestWiredSpans:
    def test_simulate_emits_simulate_span_with_rounds(self):
        recorder = MetricsRecorder()
        config = wrong_consensus_configuration(64, z=1)
        result = simulate(voter(1), config, 50_000, make_rng(0), recorder=recorder)
        spans = recorder.metrics().spans
        assert spans["simulate"].counters["rounds"] == result.rounds
        assert spans["simulate"].counters["steps"] == result.rounds
        assert spans["simulate"].wall_s <= recorder.metrics().wall_clock_s

    def test_simulate_span_steps_cover_every_way_a_run_ends(self, tmp_path):
        from repro.dynamics.config import Configuration
        from repro.execution import Checkpointer, GracefulExit

        class StopAtPoll:
            signum = 15

            def __init__(self, polls):
                self.remaining = polls

            @property
            def requested(self):
                self.remaining -= 1
                return self.remaining <= 0

            def flush_registered(self):
                pass

        def simulate_span(config, checkpoint=None):
            recorder = MetricsRecorder()
            try:
                simulate(voter(1), config, 50_000, make_rng(0),
                         recorder=recorder, checkpoint=checkpoint)
            except GracefulExit:
                pass
            return recorder.metrics().spans["simulate"].counters

        # Already at the target: no step, so no "steps" key at all.
        assert simulate_span(Configuration(n=64, z=1, x0=64)) == {"rounds": 0}
        config = wrong_consensus_configuration(64, z=1)
        path = tmp_path / "run.ckpt"
        # Stopped after round 40: the steps taken, and no "rounds".
        interrupted = simulate_span(
            config, Checkpointer(path, every=1000, guard=StopAtPoll(40))
        )
        assert interrupted == {"steps": 40}
        resumed = simulate_span(config, Checkpointer.resume(path, every=1000))
        assert list(resumed) == ["steps", "rounds"]
        assert resumed["steps"] == resumed["rounds"] - 40

    def test_ensemble_span_counts_batch_steps(self):
        recorder = MetricsRecorder()
        config = wrong_consensus_configuration(64, z=1)
        simulate_ensemble(
            voter(1), config, 10_000, make_rng(1), replicas=4, recorder=recorder
        )
        spans = recorder.metrics().spans
        assert "ensemble" in spans
        batch = spans["ensemble"].counters["batch_steps"]
        replica = spans["ensemble"].counters["replica_steps"]
        # converged replicas drop out of the batch, so the average batch
        # width lies between 1 and the full replica count
        assert batch <= replica <= 4 * batch

    def test_span_records_in_trace_are_schema_valid(self, tmp_path):
        from repro.telemetry import validate_trace

        path = tmp_path / "run.jsonl"
        writer = open_trace_writer(path, "jsonl")
        config = wrong_consensus_configuration(64, z=1)
        simulate(voter(1), config, 50_000, make_rng(0), recorder=writer)
        writer.close()
        records = validate_trace(path)
        span_records = [r for r in records if r.get("kind") == "span"]
        assert any(r["path"] == "simulate" for r in span_records)
        assert all(r["wall_s"] >= 0.0 for r in span_records)

    def test_disabled_recorder_leaves_no_span_state(self):
        config = wrong_consensus_configuration(64, z=1)
        simulate(voter(1), config, 50_000, make_rng(0), recorder=NULL_RECORDER)
        assert not hasattr(NULL_RECORDER, "_span_stack") or not getattr(
            NULL_RECORDER, "_span_stack"
        )
