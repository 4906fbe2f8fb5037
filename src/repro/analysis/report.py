"""Trace analytics and the benchmark-regression ledger.

The write side of observability lives in :mod:`repro.telemetry` (recorders,
JSONL and columnar traces) and :mod:`benchmarks/_harness` (``BENCH_*.json``
timing sidecars).  This module is the read side: it ingests directories of
those artifacts and turns them into

* per-trace summaries — rounds to consensus, rounds/sec, span time
  breakdowns, and the realized mean drift compared against the Proposition-5
  prediction ``n · F_n(x/n)`` (recomputed from the response tables embedded
  in the trace provenance, so a trace is self-contained evidence);
* per-protocol aggregates — convergence-time percentiles across runs,
  keyed by the protocol *fingerprint* so renamed-but-identical tables pool;
* the regression ledger — current ``BENCH_*.json`` wall clocks compared
  against the committed ``results/BASELINE.json`` snapshot with noise-aware
  thresholds (the relative slowdown gate widens with the baseline's
  recorded run-to-run variance).  Records carrying an ``ensemble`` block
  with ``failed_shards > 0`` — a supervised ensemble that lost shards —
  are verdicted ``"degraded"`` and refused by :func:`update_baseline`, so
  partial results can neither pass the gate nor poison the baseline.

``repro report`` renders all three; ``scripts/perf_gate.py`` turns the
ledger verdicts into an exit code.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.analysis.series import Table
from repro.core.bias import bias_value
from repro.protocols.table import table_protocol
from repro.telemetry import detect_trace_format, validate_trace
from repro.telemetry.columnar import load_columnar_data

__all__ = [
    "TraceSummary",
    "ProtocolReport",
    "ScenarioReport",
    "ComparisonRow",
    "summarize_trace",
    "summarize_trace_dir",
    "group_by_protocol",
    "group_by_scenario",
    "load_bench_records",
    "load_baseline",
    "compare_against_baseline",
    "update_baseline",
    "build_report",
    "render_report",
    "BASELINE_SCHEMA_VERSION",
    "DEFAULT_MIN_REL_SLOWDOWN",
    "DEFAULT_NOISE_SIGMAS",
]

BASELINE_SCHEMA_VERSION = 1

# A benchmark must slow down by at least this fraction before it can be
# called a regression, however quiet its baseline looks — single-shot wall
# clocks on shared machines jitter this much on their own.
DEFAULT_MIN_REL_SLOWDOWN = 0.30

# With >= 2 recorded baseline samples the gate widens to this many
# coefficient-of-variation units, so noisy benchmarks get a wider berth.
DEFAULT_NOISE_SIGMAS = 3.0

# Runners whose `count` field is a single chain's count; for these the
# Prop-5 drift comparison is exact.  Ensemble runners average counts over
# replicas (converged replicas stop moving), and the sequential runner
# ticks per move, so the per-round prediction does not apply there.
_SCALAR_COUNT_RUNNERS = frozenset(
    {"simulate", "escape_time", "time_to_leave_consensus"}
)


@dataclass(frozen=True)
class TraceSummary:
    """Everything ``repro report`` shows about one trace (either format).

    Attributes:
        path: the trace file.
        runner: provenance ``runner`` (``"simulate"``, ...).
        protocol: protocol name from provenance.
        fingerprint: protocol content hash (the pooling key).
        n: population size (``None`` if the runner had no ``n`` param).
        rounds: number of ``round`` records.
        converged: the run_end outcome, normalized to a bool when the
            runner reports one (``None`` otherwise).
        rounds_to_consensus: the runner-reported convergence time
            (``None`` when censored or not applicable).
        wall_clock_s: run_end wall clock (``None`` for timing-free traces).
        rounds_per_second: run_end throughput (``None`` likewise).
        mean_realized_drift: mean of the per-round ``drift`` fields.
        mean_predicted_drift: mean of ``n · F_n(x/n)`` along the same
            trajectory (``None`` when the trace lacks response tables or
            the runner's counts are not single-chain counts).
        drift_gap: ``mean_realized_drift - mean_predicted_drift``
            (``None`` when either side is); Prop. 5 bounds the *exact*
            per-round gap by 1, so large values flag a broken engine.
        spans: per-path ``{"calls", "wall_s", "counters"}`` totals from the
            trace's ``span`` records.
        scenario: canonical hostile-world spec from the run provenance
            (``None`` for clean runs; see docs/SCENARIOS.md).
        settle_round: round the scenario's perturbation schedule settles
            (``None`` for clean runs).
        recovered: replicas that re-converged after the settle round
            (``None`` for clean runs).
        recovery_p50, recovery_p90: recovery-time percentiles from the
            run_end summary (``None`` for clean runs or when nothing
            recovered).
    """

    path: str
    runner: str
    protocol: str
    fingerprint: str
    n: Optional[int]
    rounds: int
    converged: Optional[bool]
    rounds_to_consensus: Optional[float]
    wall_clock_s: Optional[float]
    rounds_per_second: Optional[float]
    mean_realized_drift: Optional[float]
    mean_predicted_drift: Optional[float]
    drift_gap: Optional[float]
    spans: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    scenario: Optional[str] = None
    settle_round: Optional[int] = None
    recovered: Optional[int] = None
    recovery_p50: Optional[float] = None
    recovery_p90: Optional[float] = None


@dataclass(frozen=True)
class ProtocolReport:
    """Aggregate over every trace sharing one protocol fingerprint.

    Attributes:
        protocol: representative protocol name.
        fingerprint: the pooling key.
        runs: number of traces.
        converged_runs: traces whose run reported convergence.
        rounds_p50, rounds_p90: percentiles of ``rounds_to_consensus``
            over converged runs (``nan`` if none converged).
        mean_rounds_per_second: mean throughput over traces that carry
            timings (``nan`` otherwise).
        mean_drift_gap: mean of the per-trace Prop-5 drift gaps
            (``nan`` when no trace could compute one).
        span_wall_s: per-span-path wall-clock totals summed across traces.
    """

    protocol: str
    fingerprint: str
    runs: int
    converged_runs: int
    rounds_p50: float
    rounds_p90: float
    mean_rounds_per_second: float
    mean_drift_gap: float
    span_wall_s: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioReport:
    """Aggregate over every trace run under one hostile-world scenario.

    Attributes:
        scenario: the canonical scenario spec (the pooling key).
        runs: number of traces.
        converged_runs: traces whose run reported convergence.
        settle_round: the scenario's settle round (max over traces, in
            case the same spec ran under different round budgets).
        recovered: total replicas that re-converged after settling.
        recovery_p50, recovery_p90: recovery-time percentiles pooled over
            the per-trace percentiles (median of p50s, max of p90s —
            conservative without the raw per-replica times).
    """

    scenario: str
    runs: int
    converged_runs: int
    settle_round: int
    recovered: int
    recovery_p50: float
    recovery_p90: float


# ----------------------------------------------------------------------
# Trace ingestion
# ----------------------------------------------------------------------


def summarize_trace(path: Union[str, Path]) -> TraceSummary:
    """Validate one trace (either format) and reduce it to a summary.

    Columnar traces take the zero-reparse path: validation and the drift
    statistics run on the memory-mapped column arrays from
    :func:`~repro.telemetry.columnar.load_columnar_data`, never
    materialising per-round dicts.  JSONL traces parse line by line as
    before.  Both paths produce value-identical summaries.
    """
    if detect_trace_format(path) == "columnar":
        return _summarize_columnar(path)
    records = validate_trace(path)
    start = records[0]
    end = next(r for r in records if r.get("kind") == "run_end")
    rounds = [r for r in records if r.get("kind") == "round"]
    params = start.get("params", {})
    protocol_info = start.get("protocol", {})

    converged = end.get("converged")
    if isinstance(converged, (int, float)) and not isinstance(converged, bool):
        # Ensemble runners report a converged *count*; the run "converged"
        # if no replica was censored.
        converged = end.get("censored") == 0
    tau = end.get("rounds")
    if tau is None and end.get("activations") is not None and params.get("n"):
        tau = end["activations"] / params["n"]  # sequential: parallel rounds

    drifts = [r["drift"] for r in rounds if "drift" in r]
    realized = float(np.mean(drifts)) if drifts else None
    predicted = _mean_predicted_drift(start, rounds)
    gap = (
        realized - predicted
        if realized is not None and predicted is not None
        else None
    )

    spans = _aggregate_spans(
        record for record in records if record.get("kind") == "span"
    )

    return TraceSummary(
        **_scenario_fields(params, end),
        path=str(path),
        runner=start.get("runner", "?"),
        protocol=protocol_info.get("name", "?"),
        fingerprint=protocol_info.get("fingerprint", "?"),
        n=params.get("n"),
        rounds=len(rounds),
        converged=converged if isinstance(converged, bool) else None,
        rounds_to_consensus=float(tau) if tau is not None else None,
        wall_clock_s=end.get("wall_clock_s"),
        rounds_per_second=end.get("rounds_per_second"),
        mean_realized_drift=realized,
        mean_predicted_drift=predicted,
        drift_gap=gap,
        spans=spans,
    )


def _summarize_columnar(path: Union[str, Path]) -> TraceSummary:
    """The columnar fast path behind :func:`summarize_trace`.

    Everything scalar comes from the (already decoded) ``run_start`` /
    ``run_end`` dicts; the drift statistics are single vectorised reductions
    over the column arrays.
    """
    data = load_columnar_data(path)
    start, end = data.start, data.end
    params = start.get("params", {})
    protocol_info = start.get("protocol", {})

    converged = end.get("converged")
    if isinstance(converged, (int, float)) and not isinstance(converged, bool):
        converged = end.get("censored") == 0
    tau = end.get("rounds")
    if tau is None and end.get("activations") is not None and params.get("n"):
        tau = end["activations"] / params["n"]

    drifts = data.column("drift")
    realized = (
        float(drifts.mean()) if drifts is not None and drifts.size else None
    )
    counts = data.column("count")
    predicted = (
        _predicted_drift_from_counts(start, counts)
        if counts is not None
        else None
    )
    gap = (
        realized - predicted
        if realized is not None and predicted is not None
        else None
    )

    return TraceSummary(
        **_scenario_fields(params, end),
        path=str(path),
        runner=start.get("runner", "?"),
        protocol=protocol_info.get("name", "?"),
        fingerprint=protocol_info.get("fingerprint", "?"),
        n=params.get("n"),
        rounds=data.rounds,
        converged=converged if isinstance(converged, bool) else None,
        rounds_to_consensus=float(tau) if tau is not None else None,
        wall_clock_s=end.get("wall_clock_s"),
        rounds_per_second=end.get("rounds_per_second"),
        mean_realized_drift=realized,
        mean_predicted_drift=predicted,
        drift_gap=gap,
        spans=_aggregate_spans(data.spans),
    )


def _scenario_fields(
    params: Mapping[str, Any], end: Mapping[str, Any]
) -> Dict[str, Any]:
    """Scenario provenance and recovery statistics for a :class:`TraceSummary`.

    The spec travels in the run_start params and the recovery summary in
    the run_end (serial and supervised runners both emit them; see
    docs/OBSERVABILITY.md).  Clean traces carry neither, so every field
    stays ``None`` and old traces summarize exactly as before.
    """
    scenario = params.get("scenario") or end.get("scenario")
    if scenario is None:
        return {}
    settle = params.get("settle_round", end.get("settle_round"))
    recovered = end.get("recovered")
    return {
        "scenario": str(scenario),
        "settle_round": int(settle) if settle is not None else None,
        "recovered": int(recovered) if recovered is not None else None,
        "recovery_p50": end.get("recovery_p50"),
        "recovery_p90": end.get("recovery_p90"),
    }


def _aggregate_spans(
    records: Iterable[Mapping[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Fold ``span`` records into per-path call/wall-clock/counter totals."""
    spans: Dict[str, Dict[str, Any]] = {}
    for record in records:
        entry = spans.setdefault(
            record["path"], {"calls": 0, "wall_s": 0.0, "counters": {}}
        )
        entry["calls"] += 1
        entry["wall_s"] += record.get("wall_s") or 0.0
        for key, value in record.get("counters", {}).items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value
    return spans


def _mean_predicted_drift(
    start: Mapping[str, Any], rounds: Sequence[Mapping[str, Any]]
) -> Optional[float]:
    """Mean Prop-5 prediction ``n · F_n(x/n)`` along the recorded trajectory.

    Evaluated at each round's *previous* count (the state the drift was
    realized from), exactly like the realized ``drift`` field telescopes.
    Requires the response tables (``protocol.g0/g1``) in the provenance and
    a scalar-count runner.
    """
    if not rounds:
        return None
    return _predicted_drift_from_counts(
        start, np.asarray([r["count"] for r in rounds], dtype=float)
    )


def _predicted_drift_from_counts(
    start: Mapping[str, Any], counts: np.ndarray
) -> Optional[float]:
    """:func:`_mean_predicted_drift` on a ready-made per-round count array."""
    if start.get("runner") not in _SCALAR_COUNT_RUNNERS:
        return None
    protocol_info = start.get("protocol", {})
    g0, g1 = protocol_info.get("g0"), protocol_info.get("g1")
    n = start.get("params", {}).get("n")
    x0 = start.get("params", {}).get("x0")
    if g0 is None or g1 is None or not n or x0 is None or not len(counts):
        return None
    protocol = table_protocol(g0, g1, name=protocol_info.get("name", "trace"))
    previous = np.concatenate(
        ([float(x0)], np.asarray(counts, dtype=float)[:-1])
    )
    predictions = n * np.asarray(bias_value(protocol, previous / n))
    return float(predictions.mean())


def summarize_trace_dir(
    directory: Union[str, Path], use_index: bool = False
) -> List[TraceSummary]:
    """Summarize every trace (``*.jsonl`` + ``*.ctrace``) under ``directory``.

    Results are sorted by file name.  With ``use_index=True`` the
    directory's persistent ``TRACE_INDEX.json`` is refreshed first — only
    files whose size/mtime identity changed get re-summarized — and the
    summaries are answered from the index, which is what makes a repeated
    ``repro report`` a constant-time query instead of a full re-parse.

    Unreadable or schema-violating traces raise ``ValueError`` naming the
    offending file, so a corrupt artifact fails loudly rather than silently
    shrinking the report.
    """
    directory = Path(directory)
    if use_index:
        from repro.analysis.index import refresh_trace_index, summaries_from_index

        return summaries_from_index(directory, refresh_trace_index(directory))
    summaries = []
    traces = list(directory.glob("*.jsonl")) + list(directory.glob("*.ctrace"))
    for path in sorted(traces, key=lambda path: path.name):
        try:
            summaries.append(summarize_trace(path))
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from error
    return summaries


def group_by_protocol(summaries: Sequence[TraceSummary]) -> List[ProtocolReport]:
    """Pool trace summaries by protocol fingerprint."""
    groups: Dict[str, List[TraceSummary]] = {}
    for summary in summaries:
        groups.setdefault(summary.fingerprint, []).append(summary)
    reports = []
    for fingerprint, members in sorted(groups.items()):
        taus = [
            m.rounds_to_consensus
            for m in members
            if m.converged and m.rounds_to_consensus is not None
        ]
        rates = [m.rounds_per_second for m in members if m.rounds_per_second]
        gaps = [m.drift_gap for m in members if m.drift_gap is not None]
        span_wall: Dict[str, float] = {}
        for member in members:
            for path, entry in member.spans.items():
                span_wall[path] = span_wall.get(path, 0.0) + entry["wall_s"]
        reports.append(
            ProtocolReport(
                protocol=members[0].protocol,
                fingerprint=fingerprint,
                runs=len(members),
                converged_runs=sum(1 for m in members if m.converged),
                rounds_p50=float(np.percentile(taus, 50)) if taus else float("nan"),
                rounds_p90=float(np.percentile(taus, 90)) if taus else float("nan"),
                mean_rounds_per_second=(
                    float(np.mean(rates)) if rates else float("nan")
                ),
                mean_drift_gap=float(np.mean(gaps)) if gaps else float("nan"),
                span_wall_s=span_wall,
            )
        )
    return reports


def group_by_scenario(summaries: Sequence[TraceSummary]) -> List[ScenarioReport]:
    """Pool trace summaries by canonical scenario spec (clean runs skipped)."""
    groups: Dict[str, List[TraceSummary]] = {}
    for summary in summaries:
        if summary.scenario is not None:
            groups.setdefault(summary.scenario, []).append(summary)
    reports = []
    for scenario, members in sorted(groups.items()):
        p50s = [m.recovery_p50 for m in members if m.recovery_p50 is not None]
        p90s = [m.recovery_p90 for m in members if m.recovery_p90 is not None]
        reports.append(
            ScenarioReport(
                scenario=scenario,
                runs=len(members),
                converged_runs=sum(1 for m in members if m.converged),
                settle_round=max(
                    (m.settle_round or 0) for m in members
                ),
                recovered=sum(m.recovered or 0 for m in members),
                recovery_p50=float(np.median(p50s)) if p50s else float("nan"),
                recovery_p90=float(np.max(p90s)) if p90s else float("nan"),
            )
        )
    return reports


# ----------------------------------------------------------------------
# Benchmark ledger
# ----------------------------------------------------------------------


def load_bench_records(directory: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """Read every ``BENCH_*.json`` under ``directory``, keyed by experiment id."""
    directory = Path(directory)
    records = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(f"{path} is not valid JSON: {error}") from error
        experiment = record.get("experiment") or path.stem[len("BENCH_"):]
        records[experiment] = record
    return records


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a ``BASELINE.json`` ledger snapshot; `{}` sentinel if absent.

    The snapshot maps experiment ids to their reference timing::

        {"schema": 1, "experiments": {"E2_...": {
            "wall_clock_s": 3.17,          # mean of the samples
            "samples": [3.05, 3.29],       # individual run wall clocks
            "rounds": 38702, "rounds_per_second": 12198.1}}}
    """
    path = Path(path)
    if not path.exists():
        return {"schema": BASELINE_SCHEMA_VERSION, "experiments": {}}
    snapshot = json.loads(path.read_text())
    if snapshot.get("schema") != BASELINE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported baseline schema {snapshot.get('schema')!r} in {path} "
            f"(expected {BASELINE_SCHEMA_VERSION})"
        )
    if not isinstance(snapshot.get("experiments"), dict):
        raise ValueError(f"baseline {path} is missing its experiments map")
    return snapshot


@dataclass(frozen=True)
class ComparisonRow:
    """One experiment's verdict in the regression ledger.

    Attributes:
        experiment: the experiment id.
        baseline_s: baseline mean wall clock (``nan`` when new).
        current_s: current wall clock (``nan`` when missing).
        ratio: ``current_s / baseline_s`` (``nan`` when undefined).
        threshold: the ratio above which this experiment regresses —
            ``1 + max(min_rel_slowdown, sigma · cv)`` with ``cv`` the
            baseline samples' coefficient of variation.
        verdict: ``"ok"``, ``"regression"``, ``"improved"``, ``"new"``
            (no baseline entry), ``"missing"`` (baseline entry but no
            current record), ``"untimed"`` (record without a wall clock —
            ``emit()`` was called outside ``run_once()``),
            ``"incomparable"`` (one side was timed in smoke sizing and the
            other at full sizing), ``"failed"`` (the experiment raised
            or timed out mid-run and the harness archived the failure), or
            ``"degraded"`` (the record's supervised ensemble lost shards —
            its timing covers less work than the baseline's, so the ratio
            is meaningless and the record must not enter the baseline).
    """

    experiment: str
    baseline_s: float
    current_s: float
    ratio: float
    threshold: float
    verdict: str


def compare_against_baseline(
    current: Mapping[str, Mapping[str, Any]],
    baseline: Mapping[str, Any],
    min_rel_slowdown: float = DEFAULT_MIN_REL_SLOWDOWN,
    noise_sigmas: float = DEFAULT_NOISE_SIGMAS,
) -> List[ComparisonRow]:
    """Compare current ``BENCH_*`` records against a baseline snapshot.

    The gate is noise-aware: an experiment whose baseline carries several
    samples with coefficient of variation ``cv`` must slow down by more
    than ``max(min_rel_slowdown, noise_sigmas · cv)`` (relative) before it
    is flagged — within-variance jitter stays ``"ok"``.  Symmetrically,
    speedups beyond the same gate are reported as ``"improved"`` so the
    perf trajectory is visible in both directions.
    """
    experiments = baseline.get("experiments", {})
    rows = []
    for experiment in sorted(set(experiments) | set(current)):
        entry = experiments.get(experiment)
        record = current.get(experiment)
        current_s = record.get("wall_clock_s") if record else None
        if record is not None and record.get("status") == "failed":
            baseline_s = (entry or {}).get("wall_clock_s")
            rows.append(
                ComparisonRow(
                    experiment=experiment,
                    baseline_s=float(baseline_s) if baseline_s else float("nan"),
                    current_s=float("nan"),
                    ratio=float("nan"),
                    threshold=float("nan"),
                    verdict="failed",
                )
            )
            continue
        if record is not None and (record.get("ensemble") or {}).get("failed_shards"):
            # Partial results time less work than the baseline did; the
            # ratio is meaningless and must not look like an improvement.
            baseline_s = (entry or {}).get("wall_clock_s")
            rows.append(
                ComparisonRow(
                    experiment=experiment,
                    baseline_s=float(baseline_s) if baseline_s else float("nan"),
                    current_s=float(current_s) if current_s else float("nan"),
                    ratio=float("nan"),
                    threshold=float("nan"),
                    verdict="degraded",
                )
            )
            continue
        if entry is None:
            rows.append(
                ComparisonRow(
                    experiment=experiment,
                    baseline_s=float("nan"),
                    current_s=float(current_s) if current_s else float("nan"),
                    ratio=float("nan"),
                    threshold=float("nan"),
                    # emit() without run_once() archives no wall clock; such
                    # records can never enter the baseline, so distinguish
                    # them from genuinely new timed experiments
                    verdict="new" if current_s else "untimed",
                )
            )
            continue
        samples = [s for s in entry.get("samples", []) if s]
        baseline_s = entry.get("wall_clock_s")
        if baseline_s is None and samples:
            baseline_s = float(np.mean(samples))
        cv = 0.0
        if len(samples) >= 2:
            mean = float(np.mean(samples))
            if mean > 0:
                cv = float(np.std(samples, ddof=1)) / mean
        allowed = max(min_rel_slowdown, noise_sigmas * cv)
        threshold = 1.0 + allowed
        if current_s is None or not baseline_s:
            rows.append(
                ComparisonRow(
                    experiment=experiment,
                    baseline_s=float(baseline_s) if baseline_s else float("nan"),
                    current_s=float("nan"),
                    ratio=float("nan"),
                    threshold=threshold,
                    verdict="missing",
                )
            )
            continue
        ratio = float(current_s) / float(baseline_s)
        if bool(record.get("smoke")) != bool(entry.get("smoke")):
            # Smoke and full sizing time different workloads; a ratio
            # between them is meaningless, not a regression.
            rows.append(
                ComparisonRow(
                    experiment=experiment,
                    baseline_s=float(baseline_s),
                    current_s=float(current_s),
                    ratio=ratio,
                    threshold=threshold,
                    verdict="incomparable",
                )
            )
            continue
        if ratio > threshold:
            verdict = "regression"
        elif ratio < 1.0 / threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        rows.append(
            ComparisonRow(
                experiment=experiment,
                baseline_s=float(baseline_s),
                current_s=float(current_s),
                ratio=ratio,
                threshold=threshold,
                verdict=verdict,
            )
        )
    return rows


def update_baseline(
    current: Mapping[str, Mapping[str, Any]],
    baseline: Mapping[str, Any],
    max_samples: int = 10,
) -> Dict[str, Any]:
    """Fold current ``BENCH_*`` records into a (new) baseline snapshot.

    Each experiment's wall clock is *appended* to its sample list (capped
    at the trailing ``max_samples``) and the reference ``wall_clock_s``
    becomes the sample mean — repeated `perf_gate.py --update-baseline`
    runs therefore accumulate exactly the run-to-run variance that
    :func:`compare_against_baseline` gates on.

    Records from degraded supervised ensembles (``ensemble.failed_shards
    > 0``) are skipped: their wall clock timed only the surviving shards,
    and folding it in would teach the gate a reference that honest full
    runs can never beat.
    """
    experiments: Dict[str, Any] = {
        k: dict(v) for k, v in baseline.get("experiments", {}).items()
    }
    for experiment, record in current.items():
        wall = record.get("wall_clock_s")
        if wall is None:
            continue
        if (record.get("ensemble") or {}).get("failed_shards"):
            continue
        entry = experiments.setdefault(experiment, {})
        samples = [s for s in entry.get("samples", []) if s]
        samples.append(float(wall))
        samples = samples[-max_samples:]
        entry["samples"] = samples
        entry["wall_clock_s"] = float(np.mean(samples))
        entry["smoke"] = bool(record.get("smoke"))
        for key in ("rounds", "rounds_per_second"):
            if record.get(key) is not None:
                entry[key] = record[key]
    return {"schema": BASELINE_SCHEMA_VERSION, "experiments": experiments}


# ----------------------------------------------------------------------
# Assembly and rendering
# ----------------------------------------------------------------------


def build_report(
    results_dir: Union[str, Path],
    baseline_path: Optional[Union[str, Path]] = None,
    min_rel_slowdown: float = DEFAULT_MIN_REL_SLOWDOWN,
    noise_sigmas: float = DEFAULT_NOISE_SIGMAS,
    use_index: bool = True,
) -> Dict[str, Any]:
    """Assemble the full analytics report for a results directory.

    Returns a JSON-able dict with ``traces`` (per-trace summaries),
    ``protocols`` (per-fingerprint aggregates), ``benchmarks`` (ledger
    comparison rows), ``regressions`` (the flagged subset), ``failed``
    (experiments whose harness archived a mid-run failure or timeout), and
    ``degraded`` (records from supervised ensembles that lost shards), and
    ``resources`` (per-experiment peak RSS / CPU time, for the records new
    enough to carry them).  The baseline defaults to
    ``<results_dir>/BASELINE.json``; the gate thresholds are forwarded to
    :func:`compare_against_baseline`.

    Trace summaries answer from the directory's persistent index by
    default (``use_index=True``); see :func:`summarize_trace_dir`.  The
    index write is best-effort, so read-only results mirrors still report.
    """
    results_dir = Path(results_dir)
    if baseline_path is None:
        baseline_path = results_dir / "BASELINE.json"
    summaries = summarize_trace_dir(results_dir, use_index=use_index)
    protocols = group_by_protocol(summaries)
    scenarios = group_by_scenario(summaries)
    current = load_bench_records(results_dir)
    baseline = load_baseline(baseline_path)
    comparison = compare_against_baseline(
        current, baseline,
        min_rel_slowdown=min_rel_slowdown, noise_sigmas=noise_sigmas,
    )
    resources = [
        {
            "experiment": experiment,
            "cpu_s": record.get("cpu_s"),
            "max_rss_bytes": record.get("max_rss_bytes"),
            "wall_clock_s": record.get("wall_clock_s"),
        }
        for experiment, record in sorted(current.items())
        if record.get("cpu_s") is not None
        or record.get("max_rss_bytes") is not None
    ]
    return {
        "results_dir": str(results_dir),
        "baseline": str(baseline_path),
        "traces": [asdict(s) for s in summaries],
        "protocols": [asdict(p) for p in protocols],
        "scenarios": [asdict(s) for s in scenarios],
        "benchmarks": [asdict(row) for row in comparison],
        "resources": resources,
        "regressions": [
            asdict(row) for row in comparison if row.verdict == "regression"
        ],
        "failed": [asdict(row) for row in comparison if row.verdict == "failed"],
        "degraded": [
            asdict(row) for row in comparison if row.verdict == "degraded"
        ],
    }


def render_report(report: Mapping[str, Any]) -> str:
    """Render :func:`build_report` output as the human-readable tables."""
    sections = []

    protocols = report.get("protocols", [])
    if protocols:
        table = Table(
            f"Per-protocol trace analytics ({len(report.get('traces', []))} traces "
            f"under {report.get('results_dir')})",
            ["protocol", "runs", "conv", "tau p50", "tau p90",
             "rounds/sec", "drift gap"],
        )
        for row in protocols:
            table.add_row(
                row["protocol"],
                row["runs"],
                row["converged_runs"],
                _fmt(row["rounds_p50"]),
                _fmt(row["rounds_p90"]),
                _fmt(row["mean_rounds_per_second"]),
                _fmt(row["mean_drift_gap"], digits=4),
            )
        sections.append(table.render())
        span_lines = _render_span_breakdown(protocols)
        if span_lines:
            sections.append(span_lines)
        scenarios = report.get("scenarios", [])
        if scenarios:
            table = Table(
                "Per-scenario recovery (hostile-world traces)",
                ["scenario", "runs", "conv", "settle", "recovered",
                 "recovery p50", "recovery p90"],
            )
            for row in scenarios:
                table.add_row(
                    row["scenario"],
                    row["runs"],
                    row["converged_runs"],
                    row["settle_round"],
                    row["recovered"],
                    _fmt(row["recovery_p50"]),
                    _fmt(row["recovery_p90"]),
                )
            sections.append(table.render())
    else:
        sections.append(
            f"no traces under {report.get('results_dir')} "
            "(run e.g. `python -m repro run voter --trace results/run.jsonl`)"
        )

    benchmarks = report.get("benchmarks", [])
    if benchmarks:
        table = Table(
            f"Benchmark ledger vs {report.get('baseline')}",
            ["experiment", "baseline s", "current s", "ratio", "gate", "verdict"],
        )
        for row in benchmarks:
            table.add_row(
                row["experiment"],
                _fmt(row["baseline_s"]),
                _fmt(row["current_s"]),
                _fmt(row["ratio"], digits=3),
                _fmt(row["threshold"], digits=3),
                row["verdict"],
            )
        sections.append(table.render())
        regressions = report.get("regressions", [])
        if regressions:
            names = ", ".join(r["experiment"] for r in regressions)
            sections.append(f"REGRESSIONS: {names}")
        else:
            sections.append("no regressions against the baseline")
        failed = report.get("failed", [])
        if failed:
            names = ", ".join(r["experiment"] for r in failed)
            sections.append(f"FAILED EXPERIMENTS: {names}")
        degraded = report.get("degraded", [])
        if degraded:
            names = ", ".join(r["experiment"] for r in degraded)
            sections.append(f"DEGRADED (shards lost, partial timings): {names}")
        resources = report.get("resources", [])
        if resources:
            table = Table(
                "Resource usage (per BENCH record; children included)",
                ["experiment", "wall s", "cpu s", "peak rss"],
            )
            for row in resources:
                table.add_row(
                    row["experiment"],
                    _fmt(row.get("wall_clock_s")),
                    _fmt(row.get("cpu_s")),
                    _fmt_bytes(row.get("max_rss_bytes")),
                )
            sections.append(table.render())
    else:
        sections.append(
            f"no BENCH_*.json records under {report.get('results_dir')} "
            "(run `python -m repro bench`)"
        )
    return "\n\n".join(sections)


def _render_span_breakdown(protocols: Sequence[Mapping[str, Any]]) -> str:
    totals: Dict[str, float] = {}
    for row in protocols:
        for path, wall in row.get("span_wall_s", {}).items():
            totals[path] = totals.get(path, 0.0) + wall
    if not totals:
        return ""
    table = Table(
        "Span wall-clock breakdown (all traces)", ["span path", "total s"]
    )
    for path in sorted(totals, key=totals.get, reverse=True):
        table.add_row(path, _fmt(totals[path], digits=4))
    return table.render()


def _fmt_bytes(count: Any) -> str:
    if count is None:
        return "-"
    value = float(count)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024 or unit == "TB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}TB"  # pragma: no cover - loop always returns


def _fmt(value: Any, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        return f"{value:.{digits}f}"
    return str(value)
