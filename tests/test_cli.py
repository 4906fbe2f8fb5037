"""Tests for the command-line interface."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main, resolve_protocol
from repro.execution import (
    EXIT_BENCH_TIMEOUT,
    EXIT_ERROR,
    EXIT_INVALID_TRACE,
    EXIT_PERF_REGRESSION,
)


class TestResolve:
    def test_registry_name(self):
        protocol = resolve_protocol("minority-3", 100)
        assert protocol.ell == 3

    def test_n_dependent_family(self):
        small = resolve_protocol("minority-sqrt", 100)
        large = resolve_protocol("minority-sqrt", 10_000)
        assert small.ell < large.ell

    def test_table_literal(self):
        protocol = resolve_protocol("table:0,0.5,1", 100)
        assert protocol.ell == 2
        assert protocol.is_oblivious()

    def test_table_literal_with_g1(self):
        protocol = resolve_protocol("table:0,0.5,1;0,0.7,1", 100)
        assert not protocol.is_oblivious()

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            resolve_protocol("nope", 100)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "voter" in out and "minority-3" in out

    def test_audit_minority(self, capsys):
        assert main(["audit", "minority-3", "--n", "1024"]) == 0
        out = capsys.readouterr().out
        assert "case 1" in out
        assert "witness" in out

    def test_audit_zero_bias(self, capsys):
        assert main(["audit", "voter", "--n", "512"]) == 0
        out = capsys.readouterr().out
        assert "Lemma-11" in out or "Lemma 11" in out

    def test_audit_violator_exits_nonzero(self, capsys):
        assert main(["audit", "table:0.3,1", "--n", "128"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out

    def test_run_converges(self, capsys):
        code = main(
            ["run", "voter", "--n", "200", "--rounds", "100000", "--seed", "3"]
        )
        assert code == 0
        assert "converged=True" in capsys.readouterr().out

    def test_run_censored_exit_code(self, capsys):
        code = main(["run", "minority-3", "--n", "500", "--rounds", "20"])
        assert code == 2

    def test_run_with_recording(self, capsys):
        main(["run", "voter", "--n", "100", "--rounds", "50000", "--record"])
        captured = capsys.readouterr()
        assert "count" in captured.err  # the ascii plot legend (stderr)
        assert "converged=" in captured.out  # result line stays on stdout

    def test_sweep(self, capsys):
        assert main(
            ["sweep", "voter", "--sizes", "64,128", "--replicas", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "fit: tau ~" in out

    def test_landscape(self, capsys):
        assert main(["landscape", "minority-3", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "F(p)" in out
        assert "p," in out  # csv header

    def test_worst(self, capsys):
        assert main(["worst", "voter", "--n", "24"]) == 0
        out = capsys.readouterr().out
        assert "worst start x0=1" in out

    def test_worst_with_profile(self, capsys):
        assert main(["worst", "minority-3", "--n", "24", "--profile"]) == 0
        assert "log10" in capsys.readouterr().out

    def test_meanfield(self, capsys):
        assert main(["meanfield", "minority-3"]) == 0
        out = capsys.readouterr().out
        assert "attracting" in out and "repelling" in out

    def test_meanfield_zero_bias(self, capsys):
        assert main(["meanfield", "voter"]) == 0
        assert "identity" in capsys.readouterr().out

    def test_assemble(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "E1_x.txt").write_text("table one")
        (results / "E2_y.txt").write_text("table two")
        output = tmp_path / "REPORT.md"
        assert main(
            ["assemble", "--results-dir", str(results), "--output", str(output)]
        ) == 0
        text = output.read_text()
        assert "E1_x" in text and "table two" in text

    def test_assemble_missing_dir(self, tmp_path):
        assert main(
            ["assemble", "--results-dir", str(tmp_path / "nope"), "--output", "r.md"]
        ) == 1

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "bench_thm2_voter" in out
        assert "bench_engine_throughput" in out


class TestReportCommand:
    @pytest.fixture()
    def results(self, tmp_path, capsys):
        directory = tmp_path / "results"
        directory.mkdir()
        main(
            ["run", "voter", "--n", "120", "--rounds", "50000", "--seed", "3",
             "--trace", str(directory / "run1.jsonl")]
        )
        (directory / "BENCH_E1_demo.json").write_text(
            '{"experiment": "E1_demo", "schema": 1, "wall_clock_s": 1.0,'
            ' "rounds": 100, "rounds_per_second": 100.0}\n'
        )
        capsys.readouterr()  # drop the run's own output
        return directory

    def test_report_renders_tables(self, results, capsys):
        assert main(["report", str(results)]) == 0
        captured = capsys.readouterr()
        assert "voter(ell=1)" in captured.out
        assert "E1_demo" in captured.out
        assert "new" in captured.out  # no baseline yet

    def test_report_json_is_parseable(self, results, capsys):
        import json

        assert main(["report", str(results), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["traces"][0]["protocol"] == "voter(ell=1)"
        assert report["benchmarks"][0]["verdict"] == "new"

    def test_report_strict_flags_regression(self, results, capsys):
        (results / "BASELINE.json").write_text(
            '{"schema": 1, "experiments": {"E1_demo":'
            ' {"wall_clock_s": 0.25, "samples": [0.25]}}}\n'
        )
        assert main(["report", str(results)]) == 0  # informational by default
        assert main(["report", str(results), "--strict"]) == EXIT_PERF_REGRESSION
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no results directory" in captured.err


class TestTelemetryFlags:
    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.telemetry import validate_trace

        path = tmp_path / "run.jsonl"
        code = main(
            ["run", "voter", "--n", "100", "--rounds", "50000", "--seed", "3",
             "--trace", str(path)]
        )
        assert code == 0
        records = validate_trace(path)
        assert records[0]["runner"] == "simulate"
        assert records[0]["protocol"]["name"] == "voter(ell=1)"
        err = capsys.readouterr().err
        assert f"trace: wrote {len(records)} records to {path}" in err

    def test_metrics_prints_rounds_per_second(self, capsys):
        code = main(
            ["run", "voter", "--n", "100", "--rounds", "50000", "--seed", "3",
             "--metrics"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "telemetry: rounds=" in err
        assert "rounds/sec=" in err
        assert "telemetry: span simulate:" in err

    def test_metrics_go_to_stderr_not_stdout(self, capsys):
        main(
            ["run", "voter", "--n", "100", "--rounds", "50000", "--seed", "3",
             "--metrics"]
        )
        out = capsys.readouterr().out
        assert "telemetry:" not in out

    def test_metrics_and_trace_agree_with_result_line(self, tmp_path, capsys):
        from repro.telemetry import read_trace

        path = tmp_path / "run.jsonl"
        main(
            ["run", "voter", "--n", "100", "--rounds", "50000", "--seed", "3",
             "--metrics", "--trace", str(path)]
        )
        captured = capsys.readouterr()
        end = next(
            r for r in read_trace(path) if r.get("kind") == "run_end"
        )
        assert f"converged={end['converged']}" in captured.out
        assert f"telemetry: rounds={end['rounds_recorded']}" in captured.err


class TestSweepEdgeCases:
    def test_sweep_all_censored_skips_fit(self, capsys):
        # minority-3 with a tiny budget factor: every cell censors; the
        # command must render the table and skip the power-law fit.
        code = main(
            [
                "sweep", "minority-3", "--sizes", "128,256",
                "--replicas", "2", "--budget-factor", "0.01",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "inf" in out
        assert "fit: tau ~" not in out

    def test_sweep_z_zero(self, capsys):
        assert main(
            ["sweep", "voter", "--sizes", "64,128", "--replicas", "2", "--z", "0"]
        ) == 0
        assert "median tau" in capsys.readouterr().out


class TestDurabilityCommands:
    """`run --checkpoint`, `resume`, `trace validate`, `bench --timeout`."""

    RUN_ARGS = ["run", "voter", "--n", "200", "--rounds", "100000", "--seed", "3"]

    def test_run_then_resume_replays_identical_result(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "run.ckpt")
        assert main(self.RUN_ARGS + ["--checkpoint", checkpoint,
                                     "--checkpoint-every", "25"]) == 0
        first = capsys.readouterr().out
        assert main(["resume", checkpoint]) == 0
        resumed = capsys.readouterr()
        # A complete checkpoint replays the stored outcome: the result
        # line on stdout is byte-identical to the original run's.
        assert resumed.out == first
        assert "replaying the stored result" in resumed.err

    def test_resume_missing_checkpoint(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "absent.ckpt")]) == EXIT_ERROR
        assert "no checkpoint" in capsys.readouterr().err

    def test_resume_refuses_library_checkpoints(self, tmp_path, capsys):
        from repro.dynamics.config import Configuration
        from repro.dynamics.rng import make_rng
        from repro.dynamics.run import simulate
        from repro.execution import Checkpointer
        from repro.protocols import voter

        path = tmp_path / "lib.ckpt"
        simulate(
            voter(1), Configuration(n=60, z=1, x0=30), 50_000, make_rng(1),
            checkpoint=Checkpointer(path, every=10),
        )
        assert main(["resume", str(path)]) == EXIT_ERROR
        assert "no CLI metadata" in capsys.readouterr().err

    def test_trace_validate_ok(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        main(self.RUN_ARGS + ["--trace", trace])
        capsys.readouterr()
        assert main(["trace", "validate", trace]) == 0
        out = capsys.readouterr().out
        assert "mode=strict" in out
        assert "complete=true" in out

    def test_trace_validate_invalid_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "round", "t": 1, "count": 3}\n')
        assert main(["trace", "validate", str(bad)]) == EXIT_INVALID_TRACE
        assert "invalid trace" in capsys.readouterr().err

    def test_trace_validate_salvage_recovers_prefix(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(self.RUN_ARGS + ["--trace", str(trace)])
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        torn = tmp_path / "torn.jsonl"
        # Drop the run_end and tear the last round record in half.
        torn.write_text("\n".join(lines[:-2] + [lines[-2][: len(lines[-2]) // 2]]))
        assert main(["trace", "validate", str(torn)]) == EXIT_INVALID_TRACE
        capsys.readouterr()
        salvaged_path = tmp_path / "salvaged.jsonl"
        assert main(
            ["trace", "validate", str(torn), "--salvage",
             "--output", str(salvaged_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "mode=salvage" in out
        assert "complete=false" in out
        from repro.telemetry.jsonl import read_trace

        salvaged = read_trace(salvaged_path)
        assert salvaged[0]["kind"] == "run_start"
        assert len(salvaged) == len(lines) - 2

    def test_run_trace_format_columnar(self, tmp_path, capsys):
        from repro.telemetry import detect_trace_format, read_trace

        ctrace = tmp_path / "run.ctrace"
        jsonl = tmp_path / "run.jsonl"
        assert main(
            self.RUN_ARGS + ["--trace", str(ctrace),
                             "--trace-format", "columnar"]
        ) == 0
        assert main(self.RUN_ARGS + ["--trace", str(jsonl)]) == 0
        capsys.readouterr()
        assert detect_trace_format(ctrace) == "columnar"

        timing_fields = ("wall_s", "wall_clock_s", "rounds_per_second")

        def timing_free(path):
            return [
                {k: v for k, v in record.items() if k not in timing_fields}
                for record in read_trace(path)
                if record.get("kind") != "span"
            ]

        assert timing_free(ctrace) == timing_free(jsonl)
        assert main(["trace", "validate", str(ctrace)]) == 0
        assert "complete=true" in capsys.readouterr().out

    def test_trace_convert_both_directions(self, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        main(self.RUN_ARGS + ["--trace", str(jsonl)])
        capsys.readouterr()
        ctrace = tmp_path / "run.ctrace"
        assert main(["trace", "convert", str(jsonl), str(ctrace)]) == 0
        out = capsys.readouterr().out
        assert "source_format=jsonl" in out
        assert "target_format=columnar" in out
        back = tmp_path / "back.jsonl"
        assert main(["trace", "convert", str(ctrace), str(back)]) == 0
        assert "target_format=jsonl" in capsys.readouterr().out
        assert back.read_bytes() == jsonl.read_bytes()

    def test_trace_convert_invalid_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "round", "t": 1, "count": 3}\n')
        code = main(["trace", "convert", str(bad), str(tmp_path / "o.ctrace")])
        assert code == EXIT_INVALID_TRACE
        assert "invalid trace" in capsys.readouterr().err
        assert not (tmp_path / "o.ctrace").exists()

    def test_trace_convert_missing_source_exits_one(self, tmp_path, capsys):
        code = main(
            ["trace", "convert", str(tmp_path / "absent.jsonl"),
             str(tmp_path / "o.ctrace")]
        )
        assert code == EXIT_INVALID_TRACE or code == EXIT_ERROR

    def test_trace_index_command(self, tmp_path, capsys):
        main(self.RUN_ARGS + ["--trace", str(tmp_path / "a.jsonl")])
        main(self.RUN_ARGS + ["--trace", str(tmp_path / "b.ctrace"),
                              "--trace-format", "columnar"])
        capsys.readouterr()
        assert main(["trace", "index", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "traces=2" in out and "refreshed=2" in out
        assert "a.jsonl: format=jsonl" in out
        assert "b.ctrace: format=columnar" in out
        # Warm second run: answered from the cache.
        assert main(["trace", "index", str(tmp_path)]) == 0
        assert "refreshed=0" in capsys.readouterr().out
        # And --rebuild forces a full re-summarization.
        assert main(["trace", "index", str(tmp_path), "--rebuild"]) == 0
        assert "refreshed=2" in capsys.readouterr().out

    def test_trace_index_missing_directory(self, tmp_path, capsys):
        assert main(["trace", "index", str(tmp_path / "nope")]) == EXIT_ERROR
        assert "no directory" in capsys.readouterr().err

    def test_bench_timeout_flags_slow_experiment(self, tmp_path, monkeypatch):
        import time as time_module

        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        repo_benchmarks = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
        (bench_dir / "pytest.ini").write_text(
            "[pytest]\npython_files = bench_*.py\n"
        )
        (bench_dir / "conftest.py").write_text(
            "import sys\n"
            f"sys.path.insert(0, {str(repo_benchmarks)!r})\n"
        )
        (bench_dir / "bench_slow.py").write_text(
            "import time\n"
            "from _harness import emit, run_once\n"
            "\n"
            "def test_slow(benchmark):\n"
            "    run_once(benchmark, time.sleep, 30.0, experiment='E99_slow')\n"
            "    emit('E99_slow', 'unreachable')\n"
        )
        results_dir = tmp_path / "results"
        results_dir.mkdir()
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(results_dir))
        started = time_module.time()
        code = main(["bench", "--timeout", "1", "--bench-dir", str(bench_dir)])
        elapsed = time_module.time() - started
        assert code == EXIT_BENCH_TIMEOUT
        # Budget 1s + pytest startup; nowhere near the 30s sleep.
        assert elapsed < 20
        record = json.loads((results_dir / "BENCH_E99_slow.json").read_text())
        assert record["status"] == "failed"
        assert record["error"]["kind"] == "timeout"
        assert record["error"]["elapsed_s"] == pytest.approx(1.0, abs=0.75)


class TestEnsembleRuns:
    ARGS = [
        "run", "voter", "--n", "64", "--x0", "32", "--rounds", "3000",
        "--seed", "7",
    ]

    def test_run_replicas_prints_stats(self, capsys):
        code = main(
            self.ARGS + ["--replicas", "8", "--workers", "2", "--shards", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trials=8" in out
        assert "failed_shards=0" in out
        assert "attempted_trials=8" in out
        assert "median=" in out

    def test_run_workers_is_result_invariant(self, capsys):
        main(self.ARGS + ["--replicas", "8", "--workers", "1", "--shards", "4"])
        one = capsys.readouterr().out
        main(self.ARGS + ["--replicas", "8", "--workers", "4", "--shards", "4"])
        four = capsys.readouterr().out
        main(self.ARGS + ["--replicas", "8"])
        default = capsys.readouterr().out
        assert "(shards=1, workers=1)" in default.splitlines()[0]
        # The header names the shape; the statistics must not.
        strip = lambda text: [
            line for line in text.splitlines() if "workers=" not in line
        ]
        assert strip(one) == strip(four) == strip(default)

    def test_run_workers_without_replicas_uses_the_supervisor(self, capsys):
        code = main(self.ARGS + ["--workers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trials=1" in out

    def test_run_lost_shards_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "ensemble:after_round:10")
        monkeypatch.setenv("REPRO_FAULT_SHARD", "1")
        monkeypatch.setenv("REPRO_FAULT_STICKY", "1")
        code = main(
            self.ARGS
            + ["--replicas", "8", "--workers", "2", "--shards", "4",
               "--max-retries", "0"]
        )
        captured = capsys.readouterr()
        assert code == 7
        assert "failed_shards=1" in captured.out
        assert "lost past the retry budget" in captured.err

    def test_run_ensemble_writes_valid_merged_trace(self, tmp_path, capsys):
        trace = tmp_path / "ensemble.jsonl"
        code = main(
            self.ARGS
            + ["--replicas", "6", "--workers", "2", "--shards", "3",
               "--trace", str(trace)]
        )
        capsys.readouterr()
        assert code == 0
        assert main(["trace", "validate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "complete=true" in out

    def test_report_strict_flags_degraded_records(self, tmp_path, capsys):
        (tmp_path / "BENCH_E_ens.json").write_text(
            json.dumps(
                {
                    "experiment": "E_ens",
                    "schema": 1,
                    "wall_clock_s": 0.5,
                    "ensemble": {
                        "trials": 4,
                        "censored": 0,
                        "failed_shards": 1,
                        "attempted_trials": 8,
                    },
                }
            )
        )
        assert main(["report", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path), "--strict"]) == EXIT_PERF_REGRESSION
        assert "degraded" in capsys.readouterr().out

    def test_bench_workers_rejects_nonpositive(self, capsys):
        assert main(["bench", "--workers", "0", "--list"]) == EXIT_ERROR
        assert "--workers" in capsys.readouterr().err


class TestScenarioCli:
    ARGS = [
        "run", "voter", "--n", "48", "--x0", "24", "--rounds", "4000",
        "--seed", "11",
    ]

    def test_scenarios_list_prints_registry(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("null", "churn", "lossy", "corrupt", "lying-source",
                     "flip-source", "drift", "zealots"):
            assert f"{name}:" in out
        assert "rate" in out  # parameter schemas are printed too

    def test_scenario_run_prints_recovery_stats(self, capsys):
        code = main(self.ARGS + ["--replicas", "6", "--scenario",
                                 "flip-source:at=12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario=flip-source:at=12" in out
        assert "settle_round=12" in out
        assert "recovery_median=" in out
        assert "recovery_q90=" in out

    def test_scenario_flag_alone_routes_to_ensemble(self, capsys):
        # --scenario without --replicas still runs the ensemble machinery
        code = main(self.ARGS + ["--scenario", "lossy:rate=0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trials=1" in out
        assert "scenario=lossy:rate=0.1" in out

    def test_repeated_scenario_flags_compose(self, capsys):
        code = main(
            self.ARGS
            + ["--replicas", "4", "--scenario", "lossy:rate=0.1",
               "--scenario", "flip-source:at=12"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario=lossy:rate=0.1+flip-source:at=12" in out

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        code = main(self.ARGS + ["--replicas", "4", "--scenario", "bogus"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert "unknown scenario" in captured.err
        assert '"' not in captured.err.split("repro:")[1].split("\n")[0]

    def test_scenario_trace_round_trips_through_report(self, tmp_path, capsys):
        trace = tmp_path / "hostile.jsonl"
        code = main(
            self.ARGS
            + ["--replicas", "4", "--scenario", "flip-source:at=12",
               "--trace", str(trace)]
        )
        capsys.readouterr()
        assert code == 0
        assert main(["trace", "validate", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "flip-source:at=12" in out
        assert "recovery" in out
