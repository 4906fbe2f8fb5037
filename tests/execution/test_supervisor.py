"""Tests for the supervised parallel ensemble executor."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.analysis.ensemble import convergence_ensemble, summarize_times
from repro.dynamics.config import Configuration, wrong_consensus_configuration
from repro.dynamics.rng import make_rng
from repro.dynamics.run import simulate_ensemble
from repro.execution.checkpoint import CheckpointError
from repro.execution.shutdown import GracefulExit
from repro.execution.supervisor import (
    SupervisorConfig,
    _effective_timeout,
    run_supervised_ensemble,
    shard_sizes,
    summarize_supervised,
)
from repro.protocols import voter
from repro.telemetry import MetricsRecorder
from repro.telemetry.heartbeat import heartbeat_path, read_heartbeat
from repro.telemetry.jsonl import validate_trace

PROTOCOL = voter(1)
CONFIG = Configuration(n=64, z=1, x0=32)
MAX_ROUNDS = 3000
REPLICAS = 8


def _run(workers, shards=4, seed=7, rng=None, **kwargs):
    supervisor = SupervisorConfig(
        workers=workers, shards=shards, backoff_base_s=0.01,
        **kwargs.pop("supervisor_kwargs", {}),
    )
    return run_supervised_ensemble(
        PROTOCOL, CONFIG, MAX_ROUNDS, rng or make_rng(seed), REPLICAS,
        supervisor=supervisor, **kwargs,
    )


class TestShardSizes:
    def test_balanced_partition(self):
        assert shard_sizes(8, 4) == [2, 2, 2, 2]
        assert shard_sizes(10, 4) == [3, 3, 2, 2]
        assert shard_sizes(5, 5) == [1, 1, 1, 1, 1]

    def test_deterministic(self):
        assert shard_sizes(13, 5) == shard_sizes(13, 5)

    def test_rejects_more_shards_than_replicas(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            shard_sizes(3, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shard_sizes(0, 1)
        with pytest.raises(ValueError):
            shard_sizes(4, 0)


class TestWorkerCountInvariance:
    def test_workers_1_vs_4_bit_identical(self):
        one = _run(workers=1)
        four = _run(workers=4)
        assert np.array_equal(one.times, four.times, equal_nan=True)
        assert one.shard_sizes == four.shard_sizes
        assert one.failed_shards == four.failed_shards == 0

    def test_shard_count_leaves_times_unchanged(self):
        assert np.array_equal(
            _run(workers=1, shards=2).times,
            _run(workers=1, shards=4).times,
            equal_nan=True,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_supervised_equals_serial(self, shards, workers):
        serial_rng, supervised_rng = make_rng(7), make_rng(7)
        serial = simulate_ensemble(
            PROTOCOL, CONFIG, MAX_ROUNDS, serial_rng, REPLICAS
        )
        result = _run(workers=workers, shards=shards, rng=supervised_rng)
        assert np.array_equal(result.times, serial, equal_nan=True)
        # The caller's generator advances as the serial call advances it.
        assert supervised_rng.bit_generator.state == serial_rng.bit_generator.state

    def test_default_shards_clamped_to_replicas(self):
        result = run_supervised_ensemble(
            PROTOCOL, CONFIG, MAX_ROUNDS, make_rng(7), 3,
            supervisor=SupervisorConfig(workers=2),
        )
        assert len(result.shard_sizes) == min(3, 2)  # min(replicas, workers)
        assert result.times.size == 3


class TestFaultRecovery:
    def test_killed_worker_retries_to_identical_result(self, monkeypatch):
        clean = _run(workers=2)
        monkeypatch.setenv("REPRO_FAULT", "ensemble:after_round:10")
        monkeypatch.setenv("REPRO_FAULT_SHARD", "1")
        faulted = _run(workers=2)
        assert faulted.retries >= 1
        assert faulted.failed_shards == 0
        assert np.array_equal(faulted.times, clean.times, equal_nan=True)
        assert any(f.kind == "exit" for f in faulted.outcomes[1].failures)

    def test_sticky_fault_quarantines_the_shard(self, monkeypatch):
        clean = _run(workers=2)
        monkeypatch.setenv("REPRO_FAULT", "ensemble:after_round:10")
        monkeypatch.setenv("REPRO_FAULT_SHARD", "1")
        monkeypatch.setenv("REPRO_FAULT_STICKY", "1")
        result = _run(
            workers=2, supervisor_kwargs={"max_retries": 1}
        )
        assert result.failed_shards == 1
        assert result.degraded
        assert result.attempted_trials == REPLICAS
        assert result.times.size == REPLICAS - result.shard_sizes[1]
        # The surviving shards still match their unfaulted counterparts.
        sizes = clean.shard_sizes
        survivors = np.concatenate(
            [clean.times[: sizes[0]], clean.times[sizes[0] + sizes[1]:]]
        )
        assert np.array_equal(result.times, survivors, equal_nan=True)

    def test_invalid_fault_shard_env_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "ensemble:after_round:10")
        monkeypatch.setenv("REPRO_FAULT_SHARD", "not-a-shard")
        with pytest.raises(ValueError, match="REPRO_FAULT_SHARD"):
            _run(workers=1)


def _sleeper_worker(task):
    time.sleep(60.0)


def _silent_worker(task):
    os._exit(0)  # a clean exit that never published the shard's times


class TestCorruptResults:
    def test_exit_zero_without_result_is_retried_then_quarantined(self):
        supervisor = SupervisorConfig(
            workers=2, shards=2, max_retries=1, backoff_base_s=0.01
        )
        result = run_supervised_ensemble(
            PROTOCOL, CONFIG, MAX_ROUNDS, make_rng(7), REPLICAS,
            supervisor=supervisor, _worker=_silent_worker,
        )
        assert result.failed_shards == 2
        assert result.retries == 2
        assert result.times.size == 0
        for outcome in result.outcomes:
            assert not outcome.ok
            assert outcome.attempts == 2
            assert [f.kind for f in outcome.failures] == ["corrupt", "corrupt"]
            assert [f.exitcode for f in outcome.failures] == [0, 0]


class TestTimeouts:
    def test_hung_worker_is_killed_and_quarantined(self):
        supervisor = SupervisorConfig(
            workers=2, shards=2, timeout_s=0.2, max_retries=0, poll_s=0.02
        )
        result = run_supervised_ensemble(
            PROTOCOL, CONFIG, MAX_ROUNDS, make_rng(7), REPLICAS,
            supervisor=supervisor, _worker=_sleeper_worker,
        )
        assert result.failed_shards == 2
        assert result.timeouts == 2
        assert result.times.size == 0
        with pytest.raises(RuntimeError, match="all 2 shards failed"):
            summarize_supervised(result)

    def test_effective_timeout_tighter_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_TIMEOUT", raising=False)
        assert _effective_timeout(None) is None
        assert _effective_timeout(3.0) == 3.0
        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "2.0")
        assert _effective_timeout(None) == 2.0
        assert _effective_timeout(3.0) == 2.0
        assert _effective_timeout(1.0) == 1.0
        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "garbage")
        assert _effective_timeout(3.0) == 3.0


class TestMergedTrace:
    def test_merged_trace_validates_and_tags_shards(self, tmp_path):
        trace_path = tmp_path / "ensemble.jsonl"
        result = _run(workers=2, trace_path=trace_path)
        records = validate_trace(trace_path)
        start, end = records[0], records[-1]
        assert start["runner"] == "supervised_ensemble"
        assert start["params"]["shards"] == 4
        assert end["failed_shards"] == 0
        assert end["attempted_trials"] == REPLICAS
        rounds = [r for r in records if r["kind"] == "round"]
        assert {r["shard"] for r in rounds} == {0, 1, 2, 3}
        assert end["rounds_recorded"] == len(rounds)
        censored = int(np.isnan(result.times).sum())
        assert end["converged"] == result.times.size - censored
        # No per-shard intermediates left behind.
        assert list(tmp_path.iterdir()) == [trace_path]

    def test_merged_trace_is_worker_count_invariant(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _run(workers=1, trace_path=a)
        _run(workers=4, trace_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_columnar_merge_carries_the_same_records(self, tmp_path):
        from repro.telemetry import detect_trace_format, read_trace

        jsonl = tmp_path / "a.jsonl"
        columnar = tmp_path / "b.ctrace"
        _run(workers=2, trace_path=jsonl)
        _run(
            workers=2, trace_path=columnar,
            supervisor_kwargs={"trace_format": "columnar"},
        )
        assert detect_trace_format(columnar) == "columnar"
        records = validate_trace(columnar)
        assert records == read_trace(jsonl)
        # Shard fragments are merged and removed in this format too.
        assert sorted(tmp_path.iterdir()) == [jsonl, columnar]


class TestCheckpointing:
    def test_per_shard_checkpoints_resume(self, tmp_path):
        base = tmp_path / "run.ckpt"
        first = _run(workers=2, checkpoint_base=base, checkpoint_every=5)
        all_shard_files = sorted(tmp_path.glob("run.ckpt.shard*"))
        shard_files = [
            p for p in all_shard_files if not p.name.endswith(".heartbeat.json")
        ]
        assert len(shard_files) == 4
        for path in shard_files:
            assert json.loads(path.read_text())["complete"] is True
        # Heartbeats ride along with the checkpoints and end terminal.
        heartbeats = [p for p in all_shard_files if p not in shard_files]
        assert len(heartbeats) == 4
        for path in heartbeats:
            assert json.loads(path.read_text())["status"] == "done"
        # Re-running with the completed checkpoints replays the result.
        again = _run(workers=2, checkpoint_base=base, checkpoint_every=5)
        assert np.array_equal(first.times, again.times, equal_nan=True)
        # Another seed at the same shape is refused, not replayed.
        with pytest.raises(CheckpointError, match="different run"):
            _run(workers=2, seed=8, checkpoint_base=base, checkpoint_every=5)
        # An unreadable shard file is discarded and that shard reruns.
        shard_files[0].write_bytes(b"\x80{torn")
        again = _run(workers=2, checkpoint_base=base, checkpoint_every=5)
        assert np.array_equal(first.times, again.times, equal_nan=True)


class _StopWhen:
    """A ``ShutdownGuard`` stand-in whose stop request is a predicate."""

    signum = signal.SIGTERM

    def __init__(self, ready):
        self._ready = ready

    @property
    def requested(self) -> bool:
        return self._ready()


class TestGracefulStop:
    def test_guard_stop_mid_run_interrupts_and_a_rerun_resumes(self, tmp_path):
        # Long enough (~1000 rounds per shard) that the first checkpoint
        # at round 50 lands well before any shard finishes.
        config = wrong_consensus_configuration(1000, 1)

        def run(shards=2, **kwargs):
            return run_supervised_ensemble(
                PROTOCOL, config, 10**6, make_rng(5), 4,
                supervisor=SupervisorConfig(workers=2, shards=shards), **kwargs,
            )

        serial = simulate_ensemble(PROTOCOL, config, 10**6, make_rng(5), 4)
        base = tmp_path / "run.ckpt"

        def shard_checkpointed() -> bool:
            return any(p.suffix.startswith(".shard") for p in tmp_path.iterdir())

        with pytest.raises(GracefulExit):
            run(checkpoint_base=base, checkpoint_every=50,
                guard=_StopWhen(shard_checkpointed))
        assert multiprocessing.active_children() == []
        assert read_heartbeat(heartbeat_path(base)).status == "interrupted"
        shard_files = [p for p in tmp_path.iterdir() if p.suffix.startswith(".shard")]
        assert shard_files
        assert not all(json.loads(p.read_text())["complete"] for p in shard_files)

        # Another shard layout covers other replica ranges: its files are
        # refused before any worker starts.
        with pytest.raises(CheckpointError, match=r"run\.ckpt\.shard\d"):
            run(shards=4, checkpoint_base=base, checkpoint_every=50)
        assert multiprocessing.active_children() == []

        resumed = run(checkpoint_base=base, checkpoint_every=50)
        assert np.array_equal(resumed.times, serial, equal_nan=True)


class TestRecorder:
    def test_metrics_recorder_sees_supervision_counters(self):
        recorder = MetricsRecorder()
        _run(workers=2, recorder=recorder)
        spans = recorder.metrics().spans
        assert "supervise" in spans
        counters = spans["supervise"].counters
        assert counters["shards"] == 4
        assert counters["workers"] == 2
        assert counters["failed_shards"] == 0


class TestValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="workers"):
            _run(workers=0)
        with pytest.raises(ValueError, match="max_retries"):
            _run(workers=1, supervisor_kwargs={"max_retries": -1})
        with pytest.raises(ValueError, match="replicas"):
            run_supervised_ensemble(
                PROTOCOL, CONFIG, MAX_ROUNDS, make_rng(7), 0,
                supervisor=SupervisorConfig(workers=1),
            )


class TestIntegration:
    def test_convergence_ensemble_supervised_stats(self):
        # The stats-level serial == supervised check.  Nothing is lost, so
        # the loss accounting agrees too and the dataclasses are equal.
        supervised = summarize_supervised(_run(workers=2), budget=MAX_ROUNDS)
        serial = convergence_ensemble(
            PROTOCOL, CONFIG, MAX_ROUNDS, make_rng(7), REPLICAS,
        )
        assert supervised.failed_shards == 0
        assert supervised.attempted_trials == REPLICAS
        assert supervised == serial


class TestSummarizeTimesDegradation:
    def test_defaults_mean_nothing_lost(self):
        stats = summarize_times(np.asarray([3.0, 5.0, np.nan]), budget=10)
        assert stats.failed_shards == 0
        assert stats.attempted_trials == stats.trials == 3
        assert not stats.degraded
        assert stats.lost_trials == 0

    def test_loss_accounting_surfaces_in_repr(self):
        stats = summarize_times(
            np.asarray([3.0, 5.0]), budget=10,
            failed_shards=1, attempted_trials=4,
        )
        assert stats.degraded
        assert stats.lost_trials == 2
        assert "failed_shards=1" in repr(stats)
        assert "attempted_trials=4" in repr(stats)
