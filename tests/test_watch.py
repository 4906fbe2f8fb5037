"""Tests for the `repro watch` dashboard (pure reader over heartbeats)."""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.analysis.watch import (
    discover_traces,
    render_frame,
    tail_trace_round,
    watch,
)
from repro.telemetry.heartbeat import (
    HEARTBEAT_SUFFIX,
    Heartbeat,
    heartbeat_path,
    write_heartbeat,
)

NOW = 1700000000.0


def shard_beat(shard: int, **overrides) -> Heartbeat:
    fields = dict(
        role="shard", status="running", pid=100 + shard, updated_at=NOW,
        round=120, max_rounds=1000, replicas=2, replicas_done=1,
        rounds_per_second=40.0, shard=shard, attempt=1, rss_bytes=50 << 20,
    )
    fields.update(overrides)
    return Heartbeat(**fields)


class TestRenderFrame:
    def test_supervisor_first_then_shards(self):
        entries = [
            (Path("b.shard0.heartbeat.json"), shard_beat(0)),
            (
                Path("b.heartbeat.json"),
                Heartbeat(
                    role="supervisor", status="running", updated_at=NOW,
                    replicas=4, replicas_done=1, shards=2, retries=1,
                    timeouts=0, failed_shards=0,
                ),
            ),
        ]
        frame = render_frame(entries, now=NOW)
        lines = frame.splitlines()
        assert lines[0].startswith("supervisor")
        assert "retries 1" in lines[0]
        assert lines[1].startswith("shard 0")
        assert "1/2 replicas" in lines[1]
        assert "round 120/1000" in lines[1]
        assert "40 r/s" in lines[1]
        assert "eta" in lines[1]

    def test_torn_heartbeat_rendered_not_hidden(self):
        frame = render_frame([(Path("b.shard1.heartbeat.json"), None)], now=NOW)
        assert "UNREADABLE" in frame
        assert "b.shard1" in frame

    def test_quarantined_shard_flagged(self):
        frame = render_frame(
            [(Path("x"), shard_beat(1, status="failed", attempt=3))], now=NOW
        )
        assert "QUARANTINED" in frame
        assert "attempt 3" in frame

    def test_stale_heartbeat_flagged(self):
        fresh = render_frame(
            [(Path("x"), shard_beat(0, updated_at=NOW - 1))],
            now=NOW, stale_after=5.0,
        )
        stale = render_frame(
            [(Path("x"), shard_beat(0, updated_at=NOW - 60))],
            now=NOW, stale_after=5.0,
        )
        assert "stale?" not in fresh
        assert "stale?" in stale

    def test_terminal_beat_shows_status_not_age(self):
        frame = render_frame(
            [(Path("x"), shard_beat(0, status="done"))], now=NOW
        )
        assert "done" in frame
        assert "age" not in frame and "stale?" not in frame

    def test_trace_footer(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        trace.write_text(
            json.dumps({"kind": "round", "t": 7, "count": 93}) + "\n"
        )
        frame = render_frame([(Path("x"), shard_beat(0))], traces=[trace], now=NOW)
        assert "last round t=7 count=93" in frame


class TestTraceTailing:
    def test_last_round_record_wins(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        with trace.open("w") as handle:
            handle.write(json.dumps({"kind": "run_start"}) + "\n")
            for t in range(1, 50):
                handle.write(
                    json.dumps({"kind": "round", "t": t, "count": 100 - t}) + "\n"
                )
            handle.write(json.dumps({"kind": "run_end"}) + "\n")
        record = tail_trace_round(trace)
        assert record["t"] == 49

    def test_torn_tail_skipped(self, tmp_path):
        trace = tmp_path / "run.jsonl.tmp"
        trace.write_text(
            json.dumps({"kind": "round", "t": 3, "count": 5}) + "\n"
            + '{"kind": "round", "t": 4, "cou'  # torn mid-line
        )
        assert tail_trace_round(trace)["t"] == 3

    def test_missing_or_roundless_file(self, tmp_path):
        assert tail_trace_round(tmp_path / "absent.jsonl") is None
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert tail_trace_round(empty) is None
        # An empty columnar file is equally roundless, not an error.
        empty_columnar = tmp_path / "empty.ctrace"
        empty_columnar.write_bytes(b"")
        assert tail_trace_round(empty_columnar) is None

    def test_trace_ending_in_span_record(self, tmp_path):
        # The tail reader must skip past trailing non-round records in
        # both containers and still surface the last round.
        span = {
            "kind": "span", "name": "sim", "path": "sim", "depth": 0,
            "calls": 1, "wall_s": 0.25, "counters": {},
        }
        records = [
            {"kind": "round", "t": 5, "count": 40},
            {"kind": "round", "t": 6, "count": 39},
            span,
        ]
        jsonl = tmp_path / "run.jsonl"
        jsonl.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert tail_trace_round(jsonl)["t"] == 6

        from repro.telemetry import write_trace_records

        columnar = tmp_path / "run.ctrace"
        write_trace_records(columnar, records, "columnar", chunk_rounds=1)
        assert tail_trace_round(columnar)["t"] == 6

    def test_discover_traces_excludes_tmp(self, tmp_path):
        base = tmp_path / "run.ckpt"
        (tmp_path / "run.ckpt.jsonl").write_text("")
        (tmp_path / "run.ckpt.shard0.jsonl.tmp").write_text("")
        (tmp_path / "unrelated.jsonl").write_text("")
        names = [p.name for p in discover_traces(base)]
        assert names == ["run.ckpt.jsonl"]

    def test_discover_traces_mixed_shard_tagged_directory(self, tmp_path):
        # A supervised run that switched formats mid-history: shard
        # fragments and merged traces in both containers, plus in-flight
        # tmp files that must stay hidden.
        base = tmp_path / "run.ckpt"
        for name in (
            "run.ckpt.jsonl",
            "run.ckpt.shard0.jsonl",
            "run.ckpt.shard1.ctrace",
            "run.ckpt.ctrace",
        ):
            (tmp_path / name).write_text("")
        (tmp_path / "run.ckpt.shard2.ctrace.tmp").write_text("")
        (tmp_path / "other.ctrace").write_text("")
        names = [p.name for p in discover_traces(base)]
        assert names == [
            "run.ckpt.ctrace",
            "run.ckpt.jsonl",
            "run.ckpt.shard0.jsonl",
            "run.ckpt.shard1.ctrace",
        ]

    def test_tail_agrees_across_formats_after_round_trip(self, tmp_path):
        from repro.dynamics.config import Configuration
        from repro.dynamics.rng import make_rng
        from repro.dynamics.run import simulate
        from repro.protocols import voter
        from repro.telemetry import jsonl_to_columnar, open_trace_writer

        jsonl = tmp_path / "run.jsonl"
        with open_trace_writer(jsonl, "jsonl", include_timings=False) as writer:
            simulate(
                voter(1), Configuration(n=64, z=1, x0=1), 50_000,
                make_rng(0), recorder=writer,
            )
        columnar = tmp_path / "run.ctrace"
        jsonl_to_columnar(jsonl, columnar, chunk_rounds=16)
        assert tail_trace_round(columnar) == tail_trace_round(jsonl)


class TestServiceView:
    @staticmethod
    def make_root(tmp_path):
        from repro.service.jobstore import JobStore

        root = tmp_path / "svc"
        store = JobStore(root)
        return root, store

    def test_is_service_root(self, tmp_path):
        from repro.analysis.watch import is_service_root

        root, store = self.make_root(tmp_path)
        store.close()
        assert is_service_root(root)
        assert not is_service_root(tmp_path / "elsewhere")
        assert not is_service_root(tmp_path)

    def test_frame_lists_jobs_with_counts(self, tmp_path):
        from repro.analysis.watch import render_service_frame

        root, store = self.make_root(tmp_path)
        store.submit({"kind": "ensemble"})
        done = store.submit({"kind": "ensemble"})
        store.transition(done.id, "running", attempt=1)
        store.transition(done.id, "done")
        store.close()

        frame = render_service_frame(root, now=NOW)
        lines = frame.splitlines()
        assert lines[0].startswith("service")
        assert "queued 1" in lines[0] and "done 1" in lines[0]
        assert f"(journal seq {store.seq})" in lines[0]
        assert any(line.startswith("J000001") and "queued" in line for line in lines)
        assert any(line.startswith("J000002") and "done" in line for line in lines)

    def test_running_job_without_heartbeat_flagged_orphaned(self, tmp_path):
        from repro.analysis.watch import render_service_frame

        root, store = self.make_root(tmp_path)
        job = store.submit({"kind": "ensemble"})
        store.transition(job.id, "running", attempt=1, worker_pid=12345)
        store.close()

        frame = render_service_frame(root, now=NOW)
        assert "no heartbeat  ORPHANED?" in frame

    def test_stale_heartbeat_flagged_orphaned_fresh_not(self, tmp_path):
        from repro.analysis.watch import render_service_frame

        root, store = self.make_root(tmp_path)
        job = store.submit({"kind": "ensemble"})
        store.transition(job.id, "running", attempt=1)
        store.close()
        beat = Heartbeat(
            role="job", status="running", updated_at=NOW - 1.0,
            round=10, max_rounds=100, replicas=4, replicas_done=1,
        )
        (root / job.id).mkdir()
        write_heartbeat(heartbeat_path(root / job.id / "job"), beat)
        fresh = render_service_frame(root, now=NOW, stale_after=5.0)
        assert "ORPHANED?" not in fresh
        assert "1/4 replicas" in fresh

        stale = render_service_frame(root, now=NOW + 60, stale_after=5.0)
        assert "ORPHANED?" in stale

    def test_failed_job_shows_taxonomy_and_error(self, tmp_path):
        from repro.analysis.watch import render_service_frame

        root, store = self.make_root(tmp_path)
        job = store.submit({"kind": "ensemble"}, max_retries=1)
        store.transition(job.id, "running", attempt=1)
        store.transition(
            job.id, "failed", retries=2, exit_code=1,
            exit_name="EXIT_ERROR", error="worker exited 1",
        )
        store.close()

        frame = render_service_frame(root, now=NOW)
        assert "EXIT_ERROR" in frame
        assert "retries 2/1" in frame
        assert "(worker exited 1)" in frame

    def test_watch_loop_exits_when_all_jobs_terminal(self, tmp_path):
        root, store = self.make_root(tmp_path)
        job = store.submit({"kind": "ensemble"})
        store.transition(job.id, "cancelled")
        store.close()
        stream = io.StringIO()
        assert watch(root, interval=0.01, stream=stream) == 0
        assert "cancelled" in stream.getvalue()

    def test_watch_once_on_active_service_root(self, tmp_path):
        root, store = self.make_root(tmp_path)
        store.submit({"kind": "ensemble"})
        store.close()
        stream = io.StringIO()
        assert watch(root, once=True, stream=stream) == 0
        assert "queued 1" in stream.getvalue()


class TestWatchLoop:
    def test_no_heartbeats_exits_one(self, tmp_path):
        stream = io.StringIO()
        assert watch(tmp_path / "nothing", once=True, stream=stream) == 1
        assert "no heartbeat files" in stream.getvalue()

    def test_once_renders_single_frame(self, tmp_path):
        base = tmp_path / "run.ckpt"
        write_heartbeat(heartbeat_path(base), shard_beat(0))
        stream = io.StringIO()
        assert watch(base, once=True, stream=stream) == 0
        assert "shard 0" in stream.getvalue()

    def test_exits_zero_when_all_terminal(self, tmp_path):
        base = tmp_path / "run.ckpt"
        write_heartbeat(heartbeat_path(base), shard_beat(0, status="done"))
        write_heartbeat(
            heartbeat_path(base.with_name(base.name + ".shard1")),
            shard_beat(1, status="failed"),
        )
        stream = io.StringIO()
        # Not --once: the loop must notice every writer is terminal and stop.
        assert watch(base, interval=0.01, stream=stream) == 0
        out = stream.getvalue()
        assert "done" in out and "QUARANTINED" in out

    def test_post_mortem_includes_torn_file(self, tmp_path):
        base = tmp_path / "run.ckpt"
        write_heartbeat(heartbeat_path(base), shard_beat(0, status="done"))
        (tmp_path / f"run.ckpt.shard1{HEARTBEAT_SUFFIX}").write_text('{"half')
        stream = io.StringIO()
        assert watch(base, once=True, stream=stream) == 0
        assert "UNREADABLE" in stream.getvalue()
