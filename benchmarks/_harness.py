"""Shared plumbing for the benchmark/experiment suite.

Each benchmark module reproduces one paper artifact (a theorem's scaling
claim or a figure's phenomenon).  The pattern:

* the heavy computation runs inside ``benchmark.pedantic(..., rounds=1)`` so
  ``pytest benchmarks/ --benchmark-only`` both times it and collects it;
* the resulting paper-vs-measured table is printed *and* archived under
  ``results/`` so EXPERIMENTS.md can quote it verbatim;
* soft shape assertions (who wins, bounded ratios) make regressions loud
  without pretending the simulator matches the authors' constants.

Timing telemetry: :func:`run_once` measures the wall clock of the heavy
computation, and :func:`emit` archives it as ``results/BENCH_<id>.json``
next to the text artifact.  A benchmark that knows how many simulated
rounds its computation executed can call :func:`note_rounds` so the JSON
entry also carries a ``rounds_per_second`` field (schema in
docs/OBSERVABILITY.md).

Smoke sizing: with ``REPRO_SMOKE=1`` in the environment (what
``python -m repro bench --smoke`` sets), benchmarks shrink their heavy
constants via :func:`pick` and the conftest downgrades their shape
assertions (calibrated for full sizing) to xfails — the timing records are
still written, which is all the regression ledger needs.

The regression ledger: :func:`load_baseline` reads the committed
``results/BASELINE.json`` snapshot and :func:`compare` gates the current
``BENCH_*.json`` wall clocks against it with noise-aware thresholds
(implementation in :mod:`repro.analysis.report`; ``scripts/perf_gate.py``
is the CI entry point).

Failure durability: :func:`run_once` takes an ``experiment=`` id so that a
benchmark that raises (or breaches the ``REPRO_BENCH_TIMEOUT`` wall-clock
budget that ``repro bench --timeout`` sets) still archives a
``BENCH_<id>.json`` with ``"status": "failed"`` — a crash leaves a ledger
record, not a silent gap, and ``repro report --strict`` flags it.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import signal
import time
import zlib
from typing import List, Mapping, Optional

from repro.analysis.report import (
    ComparisonRow,
    compare_against_baseline,
    load_baseline as _load_baseline,
    load_bench_records,
)
from repro.analysis.series import Series, Table, ascii_plot
from repro.telemetry.resources import cpu_seconds, peak_rss_bytes

# REPRO_RESULTS_DIR redirects the whole ledger (records, baseline, text
# artifacts) — how tests and the CI fault matrix keep scratch runs out of
# the committed results/ directory.
RESULTS_DIR = pathlib.Path(
    os.environ.get("REPRO_RESULTS_DIR")
    or pathlib.Path(__file__).resolve().parent.parent / "results"
)
BASELINE_PATH = RESULTS_DIR / "BASELINE.json"

# Timing of the most recent run_once(), consumed by the next emit().
_pending_timing: dict = {}


def smoke_mode() -> bool:
    """True when the suite runs in smoke sizing (``REPRO_SMOKE=1``)."""
    return os.environ.get("REPRO_SMOKE") == "1"


def bench_workers(default: int = 1) -> int:
    """Worker-pool size for ensemble benchmarks.

    ``python -m repro bench --workers N`` exports ``REPRO_BENCH_WORKERS``;
    this reads it back (clamped to >= 1, ``default`` on absence or parse
    failure).  Worker count never changes results — on the keyed engines
    neither does shard count; only the seed does — so benchmarks are free
    to vary it for timing comparisons.
    """
    raw = os.environ.get("REPRO_BENCH_WORKERS")
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


def pick(full, smoke):
    """Choose a benchmark constant by sizing mode.

    ``SIZES = pick((128, ..., 4096), (64, 128, 256))`` keeps the full-run
    calibration in view while letting ``repro bench --smoke`` finish in
    seconds per experiment.
    """
    return smoke if smoke_mode() else full


def case_seed(*label: object) -> int:
    """A 32-bit seed from a stable digest of a case label.

    Python's ``hash()`` is salted per process (``PYTHONHASHSEED``), so
    seeding from it draws other streams on every run; ``zlib.crc32`` of the
    label's ``repr`` is the same in every process.
    """
    return zlib.crc32(repr(label).encode())


def emit(experiment_id: str, *blocks: object) -> None:
    """Print experiment output and archive it under ``results/``.

    Each block may be a :class:`Table`, a :class:`Series` (rendered as CSV),
    a pre-rendered string (e.g. an ascii plot), or anything with ``str``.
    Also writes ``results/BENCH_<experiment_id>.json`` with the wall clock
    recorded by the enclosing :func:`run_once` call (if any).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    rendered = []
    for block in blocks:
        if isinstance(block, Table):
            rendered.append(block.render())
            rendered.append("")
            rendered.append("CSV:")
            rendered.append(block.to_csv().rstrip())
        elif isinstance(block, Series):
            rendered.append(block.to_csv().rstrip())
        else:
            rendered.append(str(block))
        rendered.append("")
    text = "\n".join(rendered)
    banner = f"\n===== {experiment_id} =====\n"
    print(banner + text)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(banner + text)
    _write_bench_record(experiment_id)


class BenchTimeout(Exception):
    """A benchmark exceeded the ``REPRO_BENCH_TIMEOUT`` wall-clock budget."""


def bench_timeout() -> Optional[float]:
    """The per-experiment wall-clock budget in seconds, or None."""
    raw = os.environ.get("REPRO_BENCH_TIMEOUT")
    if not raw:
        return None
    try:
        budget = float(raw)
    except ValueError:
        return None
    return budget if budget > 0 else None


@contextlib.contextmanager
def _alarm(budget: float):
    """Raise :class:`BenchTimeout` in the main thread after ``budget`` s."""
    if not hasattr(signal, "SIGALRM"):  # non-POSIX: budget unenforceable
        yield
        return

    def _on_alarm(signum, frame):
        raise BenchTimeout(f"exceeded the {budget:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_once(benchmark, fn, *args, experiment: Optional[str] = None, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The wall clock of the call is kept aside so the next :func:`emit` can
    archive it in the experiment's ``BENCH_*.json`` record.  When
    ``experiment`` is given, a raise or a ``REPRO_BENCH_TIMEOUT`` breach
    archives a ``"status": "failed"`` record for that id before
    propagating, so the ledger never holds a silent gap.
    """
    _pending_timing.clear()
    budget = bench_timeout()
    start = time.perf_counter()
    cpu_start = cpu_seconds(include_children=True)
    try:
        if budget is not None:
            with _alarm(budget):
                result = benchmark.pedantic(
                    fn, args=args, kwargs=kwargs, rounds=1, iterations=1
                )
        else:
            result = benchmark.pedantic(
                fn, args=args, kwargs=kwargs, rounds=1, iterations=1
            )
    except Exception as error:  # noqa: BLE001 — archived, then re-raised
        if experiment is not None:
            _write_failed_record(experiment, error, time.perf_counter() - start)
        raise
    _pending_timing["wall_clock_s"] = time.perf_counter() - start
    # Children folded in: ensemble benchmarks burn their CPU (and hit their
    # memory peak) inside supervised worker processes.
    _pending_timing["cpu_s"] = cpu_seconds(include_children=True) - cpu_start
    _pending_timing["max_rss_bytes"] = peak_rss_bytes(include_children=True)
    return result


def note_rounds(rounds: Optional[int]) -> None:
    """Record how many simulated rounds the pending benchmark executed.

    Call between :func:`run_once` and :func:`emit`; the next ``BENCH_*.json``
    then reports ``rounds`` and ``rounds_per_second`` alongside the wall
    clock.  Passing ``None`` is a no-op so callers can forward optional
    counts unconditionally.
    """
    if rounds is not None:
        _pending_timing["rounds"] = int(rounds)


def note_field(key: str, value) -> None:
    """Attach an extra JSON-safe field to the pending ``BENCH_*.json``.

    Like :func:`note_rounds`, call between :func:`run_once` and
    :func:`emit` (``run_once`` clears the pending record).  Used for
    benchmark-specific context such as worker counts or speedup ratios.
    """
    _pending_timing.setdefault("extra", {})[key] = value


def note_ensemble(stats) -> None:
    """Record a supervised ensemble's loss accounting in the ledger entry.

    Takes a :class:`repro.analysis.ensemble.ConvergenceStats`; the record
    then carries an ``ensemble`` block with ``failed_shards`` /
    ``attempted_trials``, which the regression gate uses to refuse
    baselines built from degraded (shards-lost) runs.
    """
    note_field(
        "ensemble",
        {
            "trials": int(stats.trials),
            "censored": int(stats.censored),
            "failed_shards": int(stats.failed_shards),
            "attempted_trials": int(stats.attempted_trials),
        },
    )


def _write_bench_record(experiment_id: str) -> None:
    record = {"experiment": experiment_id, "schema": 1, "status": "ok"}
    wall = _pending_timing.get("wall_clock_s")
    record["wall_clock_s"] = wall
    rounds = _pending_timing.get("rounds")
    record["rounds"] = rounds
    record["rounds_per_second"] = (
        rounds / wall if rounds is not None and wall else None
    )
    record["cpu_s"] = _pending_timing.get("cpu_s")
    record["max_rss_bytes"] = _pending_timing.get("max_rss_bytes")
    record.update(_pending_timing.get("extra", {}))
    if smoke_mode():
        record["smoke"] = True
    (RESULTS_DIR / f"BENCH_{experiment_id}.json").write_text(
        json.dumps(record, sort_keys=True) + "\n"
    )
    _pending_timing.clear()


def _write_failed_record(experiment_id: str, error: Exception, wall: float) -> None:
    """Archive a failure so a crashed benchmark still leaves a ledger entry."""
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "experiment": experiment_id,
        "schema": 1,
        "status": "failed",
        "wall_clock_s": None,
        "rounds": None,
        "rounds_per_second": None,
        "cpu_s": None,
        "max_rss_bytes": peak_rss_bytes(include_children=True),
        "error": {
            "kind": "timeout" if isinstance(error, BenchTimeout) else "exception",
            "type": type(error).__name__,
            "message": str(error),
            "elapsed_s": wall,
        },
    }
    if smoke_mode():
        record["smoke"] = True
    (RESULTS_DIR / f"BENCH_{experiment_id}.json").write_text(
        json.dumps(record, sort_keys=True) + "\n"
    )
    _pending_timing.clear()


# ----------------------------------------------------------------------
# Regression ledger
# ----------------------------------------------------------------------


def load_baseline(path: Optional[pathlib.Path] = None) -> dict:
    """Read the committed baseline snapshot (``results/BASELINE.json``)."""
    return _load_baseline(path or BASELINE_PATH)


def compare(
    current: Optional[Mapping[str, Mapping]] = None,
    baseline: Optional[Mapping] = None,
    **gate_kwargs,
) -> List[ComparisonRow]:
    """Compare ``BENCH_*.json`` records against the baseline snapshot.

    With no arguments, reads both sides from ``results/``.  The verdict
    gate is noise-aware — see
    :func:`repro.analysis.report.compare_against_baseline` for the exact
    threshold formula (``gate_kwargs`` forward to it).
    """
    if current is None:
        current = load_bench_records(RESULTS_DIR)
    if baseline is None:
        baseline = load_baseline()
    return compare_against_baseline(current, baseline, **gate_kwargs)
