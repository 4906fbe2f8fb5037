"""Tests for the run-telemetry layer (recorders, JSONL traces, schema)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.analysis.ensemble import convergence_ensemble
from repro.core.lower_bound import lower_bound_certificate
from repro.dynamics.config import Configuration
from repro.dynamics.rng import make_rng
from repro.dynamics.run import (
    escape_time,
    escape_time_ensemble,
    simulate,
    simulate_ensemble,
    time_to_leave_consensus,
)
from repro.dynamics.sequential import simulate_sequential
from repro.protocols import minority, table_protocol, voter
from repro.telemetry import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    Recorder,
    TeeRecorder,
    compose_recorders,
    open_trace_writer,
    protocol_fingerprint,
    read_trace,
    rng_provenance,
    trace_counts,
    trace_to_series,
    validate_trace,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestNullRecorder:
    def test_disabled_and_noop(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        assert recorder.run_started(None) is None
        assert recorder.round_recorded(1, 10) is None
        assert recorder.run_finished({}) is None

    def test_default_recorder_matches_explicit_null(self):
        config = Configuration(n=150, z=1, x0=75)
        a = simulate(voter(1), config, 50_000, make_rng(12), record=True)
        b = simulate(
            voter(1), config, 50_000, make_rng(12), record=True,
            recorder=NULL_RECORDER,
        )
        assert a.rounds == b.rounds
        np.testing.assert_array_equal(a.trajectory, b.trajectory)

    def test_enabled_recorder_does_not_perturb_the_run(self, tmp_path):
        config = Configuration(n=150, z=1, x0=75)
        a = simulate(voter(1), config, 50_000, make_rng(12), record=True)
        with open_trace_writer(tmp_path / "run.jsonl", "jsonl") as writer:
            b = simulate(
                voter(1), config, 50_000, make_rng(12), record=True,
                recorder=writer,
            )
        assert a.rounds == b.rounds
        np.testing.assert_array_equal(a.trajectory, b.trajectory)


class TestMetricsRecorder:
    def test_counts_rounds_and_summary(self):
        config = Configuration(n=200, z=1, x0=1)
        recorder = MetricsRecorder()
        result = simulate(voter(1), config, 50_000, make_rng(3), recorder=recorder)
        m = recorder.metrics()
        assert m.rounds == result.rounds
        assert m.final_count == result.final_count
        assert m.wall_clock_s > 0
        assert m.rounds_per_second > 0
        assert m.summary == {
            "converged": True, "rounds": result.rounds,
            "final_count": result.final_count,
        }
        assert m.provenance.runner == "simulate"
        assert m.provenance.params["n"] == 200

    def test_mean_abs_drift_matches_trajectory(self):
        config = Configuration(n=200, z=1, x0=100)
        recorder = MetricsRecorder()
        result = simulate(
            voter(1), config, 50_000, make_rng(8), record=True, recorder=recorder
        )
        expected = np.abs(np.diff(result.trajectory)).mean()
        assert recorder.metrics().mean_abs_drift == pytest.approx(expected)

    def test_empty_run_yields_nan_drift(self):
        recorder = MetricsRecorder()
        # Already-converged start: zero rounds executed.
        simulate(voter(1), Configuration(n=50, z=1, x0=50), 10, make_rng(0),
                 recorder=recorder)
        m = recorder.metrics()
        assert m.rounds == 0
        assert np.isnan(m.mean_abs_drift)

    def test_keep_wall_times(self):
        recorder = MetricsRecorder(keep_wall_times=True)
        simulate(voter(1), Configuration(n=100, z=1, x0=50), 50_000, make_rng(4),
                 recorder=recorder)
        assert len(recorder.wall_times) == recorder.metrics().rounds
        assert all(w >= 0 for w in recorder.wall_times)


class TestCompose:
    def test_zero_recorders_is_null(self):
        assert compose_recorders() is NULL_RECORDER
        assert compose_recorders(None, NullRecorder()) is NULL_RECORDER

    def test_single_recorder_passthrough(self):
        metrics = MetricsRecorder()
        assert compose_recorders(None, metrics) is metrics

    def test_tee_fans_out(self):
        a, b = MetricsRecorder(), MetricsRecorder()
        tee = compose_recorders(a, b)
        assert isinstance(tee, TeeRecorder)
        simulate(voter(1), Configuration(n=100, z=1, x0=1), 50_000, make_rng(2),
                 recorder=tee)
        assert a.metrics().rounds == b.metrics().rounds > 0


class TestProvenance:
    def test_fingerprint_ignores_name(self):
        a = table_protocol([0.0, 0.5, 1.0], name="one")
        b = table_protocol([0.0, 0.5, 1.0], name="two")
        assert protocol_fingerprint(a) == protocol_fingerprint(b)

    def test_fingerprint_sees_table_changes(self):
        a = table_protocol([0.0, 0.5, 1.0])
        b = table_protocol([0.0, 0.6, 1.0])
        assert protocol_fingerprint(a) != protocol_fingerprint(b)

    def test_rng_provenance_is_seed_deterministic(self):
        assert rng_provenance(make_rng(5)) == rng_provenance(make_rng(5))
        assert rng_provenance(make_rng(5)) != rng_provenance(make_rng(6))
        assert rng_provenance(make_rng(5))["bit_generator"] == "PCG64"


class TestJsonlRoundTrip:
    def test_simulate_trace_matches_run_result(self, tmp_path):
        path = tmp_path / "run.jsonl"
        config = Configuration(n=200, z=1, x0=1)
        with open_trace_writer(path, "jsonl") as writer:
            result = simulate(
                voter(1), config, 50_000, make_rng(3), record=True, recorder=writer
            )
        records = validate_trace(path)
        end = records[-1]
        assert end["converged"] is True
        assert end["rounds"] == result.rounds
        assert end["rounds_recorded"] == result.rounds
        assert end["wall_clock_s"] > 0
        np.testing.assert_array_equal(trace_counts(records), result.trajectory)

    def test_drift_fields_telescope(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open_trace_writer(path, "jsonl") as writer:
            simulate(voter(1), Configuration(n=100, z=1, x0=50), 50_000,
                     make_rng(6), recorder=writer)
        records = read_trace(path)
        counts = trace_counts(records)
        drifts = [r["drift"] for r in records if r["kind"] == "round"]
        np.testing.assert_array_equal(np.diff(counts), drifts)

    def test_censored_run_records_budget_rounds(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open_trace_writer(path, "jsonl") as writer:
            result = simulate(minority(3), Configuration(n=500, z=1, x0=1), 20,
                              make_rng(0), recorder=writer)
        records = validate_trace(path)
        assert result.converged is False
        assert records[-1]["rounds"] is None
        assert records[-1]["rounds_recorded"] == 20

    def test_ensemble_trace(self, tmp_path):
        path = tmp_path / "ens.jsonl"
        config = Configuration(n=150, z=1, x0=75)
        with open_trace_writer(path, "jsonl") as writer:
            times = simulate_ensemble(minority(3), config, 200, make_rng(5), 20,
                                      recorder=writer)
        records = validate_trace(path)
        end = records[-1]
        censored = int(np.isnan(times).sum())
        assert end["converged"] == 20 - censored
        assert end["censored"] == censored
        rounds = [r for r in records if r["kind"] == "round"]
        assert rounds[0]["active"] <= 20
        assert all("newly_converged" in r for r in rounds)

    def test_sequential_trace(self, tmp_path):
        path = tmp_path / "seq.jsonl"
        config = Configuration(n=40, z=1, x0=20)
        with open_trace_writer(path, "jsonl") as writer:
            result = simulate_sequential(voter(1), config, 10**7, make_rng(3),
                                         recorder=writer)
        records = validate_trace(path)
        end = records[-1]
        assert end["converged"] is True
        assert end["activations"] == result.activations
        assert end["parallel_rounds"] == pytest.approx(result.parallel_rounds)
        rounds = [r for r in records if r["kind"] == "round"]
        assert all(r["holding"] >= 1 for r in rounds)
        # One record per move: |count step| is exactly 1 and t increases.
        assert all(abs(r["drift"]) == 1 for r in rounds)

    def test_escape_time_trace(self, tmp_path):
        path = tmp_path / "esc.jsonl"
        protocol = minority(3)
        certificate = lower_bound_certificate(protocol)
        with open_trace_writer(path, "jsonl") as writer:
            escaped_at = escape_time(protocol, certificate, 256, 500, make_rng(1),
                                     recorder=writer)
        records = validate_trace(path)
        start, end = records[0], records[-1]
        assert start["runner"] == "escape_time"
        assert "threshold" in start["params"]
        assert end["escaped"] is (escaped_at is not None)

    def test_escape_time_ensemble_trace(self, tmp_path):
        path = tmp_path / "esce.jsonl"
        protocol = minority(3)
        certificate = lower_bound_certificate(protocol)
        with open_trace_writer(path, "jsonl") as writer:
            times = escape_time_ensemble(protocol, certificate, 256, 200,
                                         make_rng(1), 8, recorder=writer)
        records = validate_trace(path)
        assert records[-1]["escaped"] + records[-1]["censored"] == 8
        assert records[-1]["censored"] == int(np.isnan(times).sum())

    def test_time_to_leave_consensus_trace(self, tmp_path):
        path = tmp_path / "leave.jsonl"
        violator = table_protocol([0.3, 1.0], name="violator")
        with open_trace_writer(path, "jsonl") as writer:
            left_at = time_to_leave_consensus(violator, 64, 0, 1000, make_rng(2),
                                              recorder=writer)
        records = validate_trace(path)
        assert records[-1]["left"] is True
        assert records[-1]["rounds"] == left_at

    def test_convergence_ensemble_forwards_recorder(self, tmp_path):
        path = tmp_path / "conv.jsonl"
        config = Configuration(n=150, z=1, x0=75)
        with open_trace_writer(path, "jsonl") as writer:
            stats = convergence_ensemble(minority(3), config, 200, make_rng(5), 10,
                                         recorder=writer)
        records = validate_trace(path)
        end = next(r for r in records if r["kind"] == "run_end")
        assert end["censored"] == stats.censored
        # The wrapping spans trail the run_end (they close after the runner).
        trailing = [r["path"] for r in records if r["kind"] == "span"]
        assert "convergence_ensemble" in trailing
        assert "convergence_ensemble/ensemble" in trailing

    def test_trace_to_series(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open_trace_writer(path, "jsonl") as writer:
            result = simulate(voter(1), Configuration(n=100, z=1, x0=1), 50_000,
                              make_rng(3), record=True, recorder=writer)
        series = trace_to_series(path)
        assert "voter" in series.name
        np.testing.assert_array_equal(series.y, result.trajectory.astype(float))
        np.testing.assert_array_equal(series.x, np.arange(len(result.trajectory)))


class TestValidateTrace:
    def _trace_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open_trace_writer(path, "jsonl", include_timings=False) as writer:
            simulate(voter(1), Configuration(n=60, z=1, x0=30), 50_000, make_rng(2),
                     recorder=writer)
        return path, path.read_text().splitlines()

    def test_accepts_valid_trace(self, tmp_path):
        path, _ = self._trace_lines(tmp_path)
        assert validate_trace(path)[0]["kind"] == "run_start"

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            validate_trace(path)

    def test_rejects_missing_run_end(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="run_end"):
            validate_trace(path)

    def test_rejects_wrong_schema_version(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        start = json.loads(lines[0])
        start["schema"] = 99
        path.write_text("\n".join([json.dumps(start)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="schema"):
            validate_trace(path)

    def test_rejects_round_count_mismatch(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        # Drop one interior round record: run_end's count no longer matches.
        path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="rounds"):
            validate_trace(path)

    def test_rejects_non_json_line(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        path.write_text("\n".join(lines[:1] + ["not json"] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_trace(path)


class TestTraceEdgeCases:
    """Malformed inputs the readers must reject with clear errors, not crash."""

    def _trace_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open_trace_writer(path, "jsonl", include_timings=False) as writer:
            simulate(voter(1), Configuration(n=60, z=1, x0=30), 50_000, make_rng(2),
                     recorder=writer)
        return path, path.read_text().splitlines()

    def test_truncated_mid_record(self, tmp_path):
        # A crash mid-write leaves a partial final line.
        path, lines = self._trace_lines(tmp_path)
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_trace(path)

    def test_out_of_order_round_indices(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        rounds = [i for i, l in enumerate(lines) if json.loads(l).get("kind") == "round"]
        assert len(rounds) >= 2
        i, j = rounds[0], rounds[1]
        lines[i], lines[j] = lines[j], lines[i]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="goes back in time"):
            validate_trace(path)

    def test_nan_count_rejected(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        idx = next(i for i, l in enumerate(lines) if json.loads(l).get("kind") == "round")
        record = json.loads(lines[idx])
        record["count"] = float("nan")
        lines[idx] = json.dumps(record)  # json emits the non-standard literal NaN
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="finite"):
            validate_trace(path)

    def test_inf_drift_rejected(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        idx = next(i for i, l in enumerate(lines) if json.loads(l).get("kind") == "round")
        record = json.loads(lines[idx])
        record["drift"] = float("inf")
        lines[idx] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="finite"):
            validate_trace(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        lines.insert(1, json.dumps({"kind": "mystery"}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unknown kind"):
            validate_trace(path)

    def test_duplicate_run_end_rejected(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        end = next(l for l in lines if json.loads(l).get("kind") == "run_end")
        path.write_text("\n".join(lines + [end]) + "\n")
        with pytest.raises(ValueError, match="run_end"):
            validate_trace(path)

    def test_round_after_run_end_rejected(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        rnd = next(l for l in lines if json.loads(l).get("kind") == "round")
        record = json.loads(rnd)
        record["t"] = record["t"] + 10_000
        path.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        with pytest.raises(ValueError, match="after run_end|rounds"):
            validate_trace(path)

    def test_bad_span_record_rejected(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        lines.insert(1, json.dumps({"kind": "span", "name": "", "path": "x"}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="span"):
            validate_trace(path)

    def test_trace_to_series_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            trace_to_series(path)

    def test_trace_to_series_start_only_uses_x0(self, tmp_path):
        # run_start carries x0, so even a rounds-free trace yields a
        # one-point series rather than an error.
        path = tmp_path / "start_only.jsonl"
        _, lines = self._trace_lines(tmp_path)
        path.write_text(lines[0] + "\n")
        series = trace_to_series(path)
        assert list(series.y) == [30.0]

    def test_trace_to_series_no_counts_at_all(self, tmp_path):
        path = tmp_path / "countless.jsonl"
        path.write_text(json.dumps({"kind": "span", "name": "x", "path": "x"}) + "\n")
        with pytest.raises(ValueError, match="no counts"):
            trace_to_series(path)

    def test_trace_to_series_non_finite_counts(self, tmp_path):
        path, lines = self._trace_lines(tmp_path)
        idx = next(i for i, l in enumerate(lines) if json.loads(l).get("kind") == "round")
        record = json.loads(lines[idx])
        record["count"] = float("nan")
        lines[idx] = json.dumps(record)
        out = tmp_path / "nan.jsonl"
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="finite"):
            trace_to_series(out)


class TestTraceSmoke:
    """The `make trace-smoke` entry point, run in-process (marker-light)."""

    def test_trace_smoke_script(self, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "trace_smoke", REPO_ROOT / "scripts" / "trace_smoke.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main(str(tmp_path / "smoke.jsonl")) == 0
        assert "trace-smoke ok" in capsys.readouterr().out


class TestBenchHarnessTiming:
    def test_emit_writes_bench_json(self, tmp_path, monkeypatch, capsys):
        import sys

        sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
        try:
            import _harness
        finally:
            sys.path.pop(0)
        monkeypatch.setattr(_harness, "RESULTS_DIR", tmp_path)

        class FakeBenchmark:
            @staticmethod
            def pedantic(fn, args=(), kwargs=None, rounds=1, iterations=1):
                return fn(*args, **(kwargs or {}))

        result = _harness.run_once(FakeBenchmark, lambda: 41 + 1)
        assert result == 42
        _harness.note_rounds(1000)
        _harness.emit("E0_test", "hello")
        record = json.loads((tmp_path / "BENCH_E0_test.json").read_text())
        assert record["experiment"] == "E0_test"
        assert record["wall_clock_s"] > 0
        assert record["rounds"] == 1000
        assert record["rounds_per_second"] == pytest.approx(
            1000 / record["wall_clock_s"]
        )
        # A follow-up emit without run_once reports null timing, not stale data.
        _harness.emit("E0_other", "world")
        other = json.loads((tmp_path / "BENCH_E0_other.json").read_text())
        assert other["wall_clock_s"] is None
        assert other["rounds_per_second"] is None


class TestValidatorHoisting:
    """The shared count validator in dynamics.config (engine/sequential dedup)."""

    def test_validate_count_bounds(self):
        from repro.dynamics.config import validate_count

        assert validate_count(10, 1, 5) == (1, 10)
        with pytest.raises(ValueError, match=r"\[1, 10\]"):
            validate_count(10, 1, 0)
        with pytest.raises(ValueError, match=r"\[0, 9\]"):
            validate_count(10, 0, 10)

    def test_validate_counts_array(self):
        from repro.dynamics.config import validate_counts

        assert validate_counts(10, 1, np.array([1, 5, 10])) == (1, 10)
        with pytest.raises(ValueError, match="range"):
            validate_counts(10, 1, np.array([1, 11]))

    def test_engine_and_sequential_raise_identically(self):
        from repro.dynamics.engine import step_count
        from repro.dynamics.sequential import sequential_transition_probabilities

        rng = make_rng(0)
        with pytest.raises(ValueError) as engine_error:
            step_count(voter(1), 10, 1, 0, rng)
        with pytest.raises(ValueError) as sequential_error:
            sequential_transition_probabilities(voter(1), 10, 1, 0)
        assert str(engine_error.value) == str(sequential_error.value)
