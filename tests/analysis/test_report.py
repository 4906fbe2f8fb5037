"""Tests for trace analytics and the benchmark-regression ledger."""

from __future__ import annotations

import json

import pytest

from repro.analysis.report import (
    DEFAULT_MIN_REL_SLOWDOWN,
    build_report,
    compare_against_baseline,
    group_by_protocol,
    load_baseline,
    load_bench_records,
    render_report,
    summarize_trace,
    summarize_trace_dir,
    update_baseline,
)
from repro.dynamics.config import Configuration, wrong_consensus_configuration
from repro.dynamics.rng import make_rng
from repro.dynamics.run import simulate, simulate_ensemble
from repro.protocols import minority, voter
from repro.telemetry import open_trace_writer


def _write_trace(path, protocol, n=80, seed=0, rounds=50_000):
    config = wrong_consensus_configuration(n, z=1)
    with open_trace_writer(path, "jsonl") as writer:
        result = simulate(protocol, config, rounds, make_rng(seed), recorder=writer)
    return result


class TestSummarizeTrace:
    def test_voter_trace_summary_fields(self, tmp_path):
        path = tmp_path / "v.jsonl"
        result = _write_trace(path, voter(1), seed=3)
        summary = summarize_trace(path)
        assert summary.runner == "simulate"
        assert summary.protocol == "voter(ell=1)"
        assert summary.n == 80
        assert summary.converged is result.converged
        assert summary.rounds_to_consensus == result.rounds
        assert summary.rounds_per_second > 0
        assert "simulate" in summary.spans

    def test_drift_gap_within_source_correction(self, tmp_path):
        # Prop 5: E[drift | x] = n F_n(x/n) up to the +/-1 source correction,
        # so the gap between realized and predicted mean drift is < 1.
        path = tmp_path / "v.jsonl"
        _write_trace(path, voter(1), seed=3)
        summary = summarize_trace(path)
        assert summary.mean_realized_drift is not None
        assert summary.mean_predicted_drift is not None
        assert summary.drift_gap < 1.0

    def test_ensemble_trace_summarizes(self, tmp_path):
        path = tmp_path / "e.jsonl"
        config = wrong_consensus_configuration(64, z=1)
        with open_trace_writer(path, "jsonl") as writer:
            simulate_ensemble(
                voter(1), config, 20_000, make_rng(1), replicas=3, recorder=writer
            )
        summary = summarize_trace(path)
        assert summary.runner == "simulate_ensemble"
        assert summary.converged is True

    def test_dir_error_names_offending_file(self, tmp_path):
        _write_trace(tmp_path / "good.jsonl", voter(1))
        (tmp_path / "bad.jsonl").write_text("not json\n")
        with pytest.raises(ValueError, match="bad.jsonl"):
            summarize_trace_dir(tmp_path)

    def test_group_by_protocol_pools_runs(self, tmp_path):
        for seed in range(3):
            _write_trace(tmp_path / f"v{seed}.jsonl", voter(1), seed=seed)
        _write_trace(tmp_path / "m.jsonl", minority(3), seed=0, rounds=500)
        reports = group_by_protocol(summarize_trace_dir(tmp_path))
        by_name = {r.protocol: r for r in reports}
        assert by_name["voter(ell=1)"].runs == 3
        assert by_name["voter(ell=1)"].rounds_p50 is not None
        assert by_name["minority(ell=3)"].runs == 1

    def test_columnar_summary_equals_jsonl_summary(self, tmp_path):
        # The zero-reparse fast path must read the same analytics out of
        # the column buffers that the JSONL re-parse computes from dicts.
        from repro.telemetry import jsonl_to_columnar

        jsonl = tmp_path / "run.jsonl"
        _write_trace(jsonl, voter(1), seed=3)
        columnar = tmp_path / "run.ctrace"
        jsonl_to_columnar(jsonl, columnar)
        a = summarize_trace(jsonl)
        b = summarize_trace(columnar)
        assert b.path.endswith(".ctrace")
        for field in (
            "runner", "protocol", "n", "fingerprint", "rounds", "converged",
            "rounds_to_consensus", "mean_realized_drift",
            "mean_predicted_drift", "drift_gap",
        ):
            assert getattr(a, field) == getattr(b, field), field
        assert a.spans == b.spans

    def test_dir_summary_spans_both_formats(self, tmp_path):
        from repro.telemetry import jsonl_to_columnar

        _write_trace(tmp_path / "a.jsonl", voter(1), seed=3)
        jsonl_to_columnar(tmp_path / "a.jsonl", tmp_path / "b.ctrace")
        summaries = summarize_trace_dir(tmp_path)
        assert [s.path.rsplit("/", 1)[-1] for s in summaries] == [
            "a.jsonl", "b.ctrace"
        ]
        assert summaries[0].fingerprint == summaries[1].fingerprint


class TestLedgerGate:
    """The acceptance test: a 2x slowdown is flagged, noise is not."""

    BASELINE = {
        "schema": 1,
        "experiments": {
            # tight baseline: cv ~ 0.05, so the 30% floor dominates
            "E_tight": {"wall_clock_s": 1.0, "samples": [0.95, 1.0, 1.05]},
            # noisy baseline: cv = 0.5, so 3 sigma allows up to 2.5x
            "E_noisy": {"wall_clock_s": 1.0, "samples": [0.5, 1.0, 1.5]},
        },
    }

    def _verdict(self, experiment, wall):
        rows = compare_against_baseline(
            {experiment: {"experiment": experiment, "wall_clock_s": wall}},
            self.BASELINE,
        )
        (row,) = [r for r in rows if r.experiment == experiment]
        return row

    def test_two_x_slowdown_is_flagged(self):
        row = self._verdict("E_tight", 2.0)
        assert row.verdict == "regression"
        assert row.ratio == pytest.approx(2.0)

    def test_within_variance_noise_is_not_flagged(self):
        # 20% over the mean: inside the 30% floor for the tight baseline.
        assert self._verdict("E_tight", 1.2).verdict == "ok"

    def test_noisy_baseline_widens_the_gate(self):
        # The same 2x wall clock that fails the tight gate passes the noisy
        # one: 3 sigma of its run-to-run cv (0.5) allows up to 2.5x.
        assert self._verdict("E_noisy", 2.0).verdict == "ok"
        assert self._verdict("E_noisy", 2.6).verdict == "regression"

    def test_improvement_verdict(self):
        assert self._verdict("E_tight", 0.5).verdict == "improved"

    def test_new_and_missing_experiments(self):
        rows = compare_against_baseline(
            {"E_new": {"experiment": "E_new", "wall_clock_s": 1.0}},
            self.BASELINE,
        )
        verdicts = {row.experiment: row.verdict for row in rows}
        assert verdicts["E_new"] == "new"
        assert verdicts["E_tight"] == "missing"
        assert verdicts["E_noisy"] == "missing"

    def test_smoke_vs_full_is_incomparable(self):
        rows = compare_against_baseline(
            {"E_tight": {"experiment": "E_tight", "wall_clock_s": 0.1, "smoke": True}},
            self.BASELINE,
        )
        (row,) = [r for r in rows if r.experiment == "E_tight"]
        assert row.verdict == "incomparable"

    def test_threshold_floor_matches_default(self):
        row = self._verdict("E_tight", 2.0)
        assert row.threshold == pytest.approx(1.0 + DEFAULT_MIN_REL_SLOWDOWN)


class TestBaselineRoundTrip:
    def test_missing_baseline_is_empty_sentinel(self, tmp_path):
        baseline = load_baseline(tmp_path / "nope.json")
        assert baseline == {"schema": 1, "experiments": {}}

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "BASELINE.json"
        path.write_text('{"schema": 99, "experiments": {}}')
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_update_accumulates_samples(self):
        baseline = {"schema": 1, "experiments": {}}
        for wall in (1.0, 1.2, 0.8):
            baseline = update_baseline(
                {"E1": {"experiment": "E1", "wall_clock_s": wall, "rounds": 10}},
                baseline,
            )
        entry = baseline["experiments"]["E1"]
        assert entry["samples"] == [1.0, 1.2, 0.8]
        assert entry["wall_clock_s"] == pytest.approx(1.0)
        assert entry["rounds"] == 10

    def test_update_caps_sample_history(self):
        baseline = {"schema": 1, "experiments": {}}
        for i in range(15):
            baseline = update_baseline(
                {"E1": {"experiment": "E1", "wall_clock_s": float(i)}},
                baseline,
                max_samples=10,
            )
        assert len(baseline["experiments"]["E1"]["samples"]) == 10
        assert baseline["experiments"]["E1"]["samples"][-1] == 14.0

    def test_update_records_smoke_flag(self):
        baseline = update_baseline(
            {"E1": {"experiment": "E1", "wall_clock_s": 1.0, "smoke": True}},
            {"schema": 1, "experiments": {}},
        )
        assert baseline["experiments"]["E1"]["smoke"] is True


class TestBuildReport:
    def test_end_to_end_report(self, tmp_path):
        _write_trace(tmp_path / "v.jsonl", voter(1), seed=3)
        (tmp_path / "BENCH_E1_demo.json").write_text(
            json.dumps(
                {"experiment": "E1_demo", "schema": 1, "wall_clock_s": 2.5}
            )
        )
        (tmp_path / "BASELINE.json").write_text(
            json.dumps(
                {"schema": 1, "experiments": {"E1_demo": {"wall_clock_s": 1.0}}}
            )
        )
        report = build_report(tmp_path)
        assert report["protocols"][0]["protocol"] == "voter(ell=1)"
        assert report["benchmarks"][0]["verdict"] == "regression"
        assert report["regressions"]
        text = render_report(report)
        assert "voter(ell=1)" in text
        assert "REGRESSIONS" in text
        json.dumps(report)  # the whole report must be JSON-able

    def test_report_without_regressions_says_so(self, tmp_path):
        _write_trace(tmp_path / "v.jsonl", voter(1), seed=3)
        (tmp_path / "BENCH_E1_demo.json").write_text(
            json.dumps(
                {"experiment": "E1_demo", "schema": 1, "wall_clock_s": 1.05}
            )
        )
        (tmp_path / "BASELINE.json").write_text(
            json.dumps(
                {"schema": 1, "experiments": {"E1_demo": {"wall_clock_s": 1.0}}}
            )
        )
        report = build_report(tmp_path)
        assert report["regressions"] == []
        assert "no regressions" in render_report(report)

    def test_report_without_bench_records_points_at_bench(self, tmp_path):
        _write_trace(tmp_path / "v.jsonl", voter(1), seed=3)
        report = build_report(tmp_path)
        assert report["regressions"] == []
        assert "repro bench" in render_report(report)

    def test_load_bench_records_skips_malformed(self, tmp_path):
        (tmp_path / "BENCH_ok.json").write_text(
            json.dumps({"experiment": "ok", "schema": 1, "wall_clock_s": 1.0})
        )
        records = load_bench_records(tmp_path)
        assert set(records) == {"ok"}


class TestDegradedEnsembles:
    BASELINE = {
        "schema": 1,
        "experiments": {"E_ens": {"wall_clock_s": 1.0, "samples": [1.0]}},
    }

    @staticmethod
    def _record(failed_shards, wall=0.6):
        return {
            "E_ens": {
                "experiment": "E_ens",
                "schema": 1,
                "wall_clock_s": wall,
                "ensemble": {
                    "trials": 6,
                    "censored": 0,
                    "failed_shards": failed_shards,
                    "attempted_trials": 8,
                },
            }
        }

    def test_shards_lost_is_degraded_not_improved(self):
        # The partial run is *faster* than baseline — without the degraded
        # verdict it would read as an improvement.
        (row,) = compare_against_baseline(self._record(2), self.BASELINE)
        assert row.verdict == "degraded"
        assert row.ratio != row.ratio  # nan: the timing is incomparable

    def test_intact_ensemble_compares_normally(self):
        (row,) = compare_against_baseline(
            self._record(0, wall=1.1), self.BASELINE
        )
        assert row.verdict == "ok"

    def test_update_baseline_refuses_degraded_records(self):
        updated = update_baseline(self._record(2), self.BASELINE)
        assert updated["experiments"]["E_ens"]["samples"] == [1.0]

    def test_update_baseline_accepts_intact_ensembles(self):
        updated = update_baseline(self._record(0, wall=1.2), self.BASELINE)
        assert updated["experiments"]["E_ens"]["samples"] == [1.0, 1.2]

    def test_build_report_surfaces_degraded(self, tmp_path):
        (tmp_path / "BENCH_E_ens.json").write_text(
            json.dumps(self._record(1)["E_ens"])
        )
        report = build_report(tmp_path)
        assert [row["experiment"] for row in report["degraded"]] == ["E_ens"]
        assert "DEGRADED" in render_report(report)


class TestResourceUsage:
    def test_resource_rows_surface_in_report(self, tmp_path):
        (tmp_path / "BENCH_E1_demo.json").write_text(
            json.dumps(
                {
                    "experiment": "E1_demo", "schema": 1, "wall_clock_s": 2.5,
                    "cpu_s": 9.75, "max_rss_bytes": 104857600,
                }
            )
        )
        report = build_report(tmp_path)
        (row,) = report["resources"]
        assert row == {
            "experiment": "E1_demo",
            "cpu_s": 9.75,
            "max_rss_bytes": 104857600,
            "wall_clock_s": 2.5,
        }
        text = render_report(report)
        assert "Resource usage" in text
        assert "100.0MB" in text
        assert "9.75" in text

    def test_records_without_resource_fields_are_skipped(self, tmp_path):
        # Pre-observability BENCH records carry neither field; the section
        # must vanish rather than render a table of dashes.
        (tmp_path / "BENCH_old.json").write_text(
            json.dumps({"experiment": "old", "schema": 1, "wall_clock_s": 1.0})
        )
        report = build_report(tmp_path)
        assert report["resources"] == []
        assert "Resource usage" not in render_report(report)

    def test_failed_record_still_reports_peak_rss(self, tmp_path):
        # A crashed harness archives max_rss_bytes with cpu_s null: the
        # peak is often the clue (OOM), so the row must survive.
        (tmp_path / "BENCH_E_boom.json").write_text(
            json.dumps(
                {
                    "experiment": "E_boom", "schema": 1,
                    "wall_clock_s": None, "failed": True,
                    "cpu_s": None, "max_rss_bytes": 2147483648,
                }
            )
        )
        report = build_report(tmp_path)
        (row,) = report["resources"]
        assert row["max_rss_bytes"] == 2147483648
        assert row["cpu_s"] is None
        assert "2.0GB" in render_report(report)


class TestScenarioReporting:
    SPEC = "flip-source:at=12"

    def _write_hostile(self, path, seed=5, replicas=4):
        config = Configuration(n=48, z=1, x0=24)
        with open_trace_writer(path, "jsonl") as writer:
            simulate_ensemble(
                voter(1), config, 4000, make_rng(seed), replicas=replicas,
                recorder=writer, scenario=self.SPEC,
            )

    def test_summary_carries_scenario_fields(self, tmp_path):
        path = tmp_path / "hostile.jsonl"
        self._write_hostile(path)
        summary = summarize_trace(path)
        assert summary.scenario == self.SPEC
        assert summary.settle_round == 12
        assert summary.recovered == 4
        assert summary.recovery_p50 >= 1
        assert summary.recovery_p90 >= summary.recovery_p50

    def test_clean_summary_has_no_scenario_fields(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        _write_trace(path, voter(1), seed=3)
        summary = summarize_trace(path)
        assert summary.scenario is None
        assert summary.recovered is None

    def test_columnar_summary_matches_jsonl(self, tmp_path):
        from repro.telemetry import jsonl_to_columnar

        jsonl = tmp_path / "hostile.jsonl"
        self._write_hostile(jsonl)
        columnar = tmp_path / "hostile.ctrace"
        jsonl_to_columnar(jsonl, columnar)
        a = summarize_trace(jsonl)
        b = summarize_trace(columnar)
        for field in ("scenario", "settle_round", "recovered",
                      "recovery_p50", "recovery_p90"):
            assert getattr(a, field) == getattr(b, field), field

    def test_group_by_scenario_pools_hostile_runs_only(self, tmp_path):
        from repro.analysis.report import group_by_scenario

        self._write_hostile(tmp_path / "a.jsonl", seed=5)
        self._write_hostile(tmp_path / "b.jsonl", seed=6)
        _write_trace(tmp_path / "clean.jsonl", voter(1), seed=3)
        groups = group_by_scenario(summarize_trace_dir(tmp_path))
        assert len(groups) == 1
        group = groups[0]
        assert group.scenario == self.SPEC
        assert group.runs == 2
        assert group.settle_round == 12
        assert group.recovered == 8

    def test_report_renders_scenario_table(self, tmp_path):
        self._write_hostile(tmp_path / "a.jsonl")
        report = build_report(tmp_path)
        assert report["scenarios"]
        assert report["scenarios"][0]["scenario"] == self.SPEC
        rendered = render_report(report)
        assert "Per-scenario recovery" in rendered
        assert self.SPEC in rendered

    def test_index_round_trip_keeps_scenario_fields(self, tmp_path):
        from repro.analysis.index import refresh_trace_index, summaries_from_index

        self._write_hostile(tmp_path / "a.jsonl")
        index = refresh_trace_index(tmp_path)
        (from_index,) = summaries_from_index(tmp_path, index)
        direct = summarize_trace(tmp_path / "a.jsonl")
        assert from_index.scenario == direct.scenario == self.SPEC
        assert from_index.settle_round == direct.settle_round
        assert from_index.recovery_p90 == direct.recovery_p90
