"""Supervised parallel ensembles: a process pool with retry and quarantine.

The headline experiments are ensembles of independent chains, which the
serial :func:`repro.dynamics.run.simulate_ensemble` advances in one
process — a single stall or kill loses everything, and wall-clock does not
scale with cores.  This module splits an ensemble into **shards** and runs
each shard in its own worker process under supervision:

* **Worker-count invariance.**  The shard count is fixed up front
  (independent of the worker count) and each shard's generator comes from
  one :func:`repro.dynamics.rng.spawn_rngs` call in the parent, so the
  random streams depend only on ``(seed, shards)`` — results for a given
  seed are byte-identical whether run with 1 or 16 workers.
* **Supervision.**  Each shard attempt runs with an optional per-shard
  wall-clock timeout; a worker that dies (crash, ``REPRO_FAULT`` kill,
  OOM) or overruns is retried with capped exponential backoff, and after
  ``max_retries`` retries the shard is quarantined as *failed*.
* **Graceful degradation.**  Failed-past-retry shards are excluded — never
  silently, mirroring the censoring philosophy: the surviving shards
  aggregate into :class:`~repro.analysis.ensemble.ConvergenceStats` whose
  ``failed_shards`` / ``attempted_trials`` fields report the loss, and the
  CLI exits :data:`~repro.execution.shutdown.EXIT_SHARDS_LOST` for partial
  results.
* **Durability.**  Each shard checkpoints to its own file
  (``<base>.shard<k>``) through the PR-4 machinery, so a killed worker's
  retry resumes its own shard checkpoint and replays the identical stream
  — the fault-smoke harness (``scripts/fault_smoke.py --parallel``) proves
  kill → retry → bit-identical stats.
* **Telemetry.**  Workers write timing-free per-shard JSONL traces which
  the parent merges deterministically (rounds sorted by ``(t, shard)``,
  every shard record tagged with its ``shard`` index) into one trace that
  ``repro trace validate`` accepts.

Fault-injection forwarding (how the smoke tests steer which worker dies):
``REPRO_FAULT`` is forwarded to *first attempts* only, so an injected kill
looks like a transient fault and the retry converges to the unfaulted
result; ``REPRO_FAULT_SHARD=<k>`` restricts arming to shard ``k``; setting
``REPRO_FAULT_STICKY=1`` keeps the fault armed on retries, which is how
the quarantine/degraded path is exercised deterministically.

``bench --timeout`` composition: the SIGALRM budget that
``REPRO_BENCH_TIMEOUT`` arms only fires in the main process, so a hung
worker would escape it.  The supervisor therefore folds the bench budget
into the per-shard timeout — the *tighter* (smaller) of the two wins — so
a stuck worker is killed by the supervisor before (or when) the alarm
fires in the parent.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import sys
import tempfile
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro import storage
from repro.dynamics.rng import spawn_rngs
from repro.execution import faults
from repro.execution.backoff import backoff_delay_s
from repro.execution.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointError,
    Checkpointer,
    decode_times,
    encode_times,
)
from repro.execution.shutdown import GracefulExit
from repro.telemetry import (
    NULL_RECORDER,
    Recorder,
    compose_recorders,
    rng_provenance,
    run_provenance,
    span,
)
from repro.telemetry.heartbeat import (
    Heartbeat,
    HeartbeatRecorder,
    heartbeat_path,
    read_heartbeat,
    write_heartbeat,
)
from repro.telemetry.columnar import open_trace_writer, write_trace_records
from repro.telemetry.jsonl import read_trace
from repro.telemetry.recorder import TRACE_SCHEMA_VERSION
from repro.telemetry.resources import sample_resources

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "DEFAULT_MAX_RETRIES",
    "FAULT_SHARD_ENV_VAR",
    "FAULT_STICKY_ENV_VAR",
    "SupervisorConfig",
    "ShardFailure",
    "ShardOutcome",
    "SupervisedTimes",
    "shard_sizes",
    "run_supervised_ensemble",
    "summarize_supervised",
    "supervisor_from",
]

DEFAULT_SHARD_COUNT = 8
"""Default number of shards (clamped to the replica count)."""

DEFAULT_MAX_RETRIES = 2
"""Default retries per shard before it is quarantined as failed."""

FAULT_SHARD_ENV_VAR = "REPRO_FAULT_SHARD"
"""Restrict ``REPRO_FAULT`` forwarding to one shard index."""

FAULT_STICKY_ENV_VAR = "REPRO_FAULT_STICKY"
"""When truthy, keep ``REPRO_FAULT`` armed on retries (exercises quarantine)."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the worker pool (see docs/OBSERVABILITY.md for guidance).

    Attributes:
        workers: concurrent worker processes.  Changing this never changes
            results — only shard count and seed do.
        shards: fixed shard count (default: ``min(replicas, 8)``).  This
            *is* part of the random-stream identity: rerun with the same
            value to reproduce.
        timeout_s: per-shard-attempt wall-clock budget; an overrunning
            worker is killed and the attempt counts as a failure.  The
            ``REPRO_BENCH_TIMEOUT`` budget is folded in — the tighter of
            the two wins.
        max_retries: retries per shard before quarantine (attempts are
            ``1 + max_retries``).
        backoff_base_s: delay before the first retry; doubles per failure.
            The actual delay carries deterministic seeded jitter (see
            :func:`repro.execution.backoff.backoff_delay_s`): a function of
            the run's RNG state and the shard index, so retry schedules are
            reproducible per seed while distinct shards never retry in
            lock-step.
        backoff_cap_s: upper bound on the backoff delay.
        poll_s: supervision loop wakeup interval.
        trace_timings: forward wall-clock fields into per-shard traces
            (default off so merged traces stay byte-identical per seed).
        trace_format: container for shard traces and the merged trace —
            ``"jsonl"`` or ``"columnar"`` (see docs/OBSERVABILITY.md,
            "Trace formats").
    """

    workers: int = 1
    shards: Optional[int] = None
    timeout_s: Optional[float] = None
    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 5.0
    poll_s: float = 0.05
    trace_timings: bool = False
    trace_format: str = "jsonl"


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt, as observed by the supervisor.

    Attributes:
        shard: shard index.
        attempt: 1-based attempt number that failed.
        kind: ``"exit"`` (nonzero/killed exit), ``"timeout"`` (overran
            ``timeout_s`` and was killed), or ``"corrupt"`` (exited 0 but
            left no readable result).
        exitcode: the process exit code (negative = killed by that signal).
        elapsed_s: wall clock of the attempt.
    """

    shard: int
    attempt: int
    kind: str
    exitcode: Optional[int]
    elapsed_s: float


@dataclass(frozen=True)
class ShardOutcome:
    """Terminal state of one shard after supervision.

    Attributes:
        index: shard index (shards partition ``range(replicas)`` in order).
        replicas: replicas assigned to this shard.
        ok: True when some attempt completed and produced times.
        times: the shard's convergence times (``None`` for a failed shard).
        attempts: total attempts made.
        failures: every failed attempt, in order.
    """

    index: int
    replicas: int
    ok: bool
    times: Optional[np.ndarray]
    attempts: int
    failures: List[ShardFailure] = field(default_factory=list)


@dataclass(frozen=True)
class SupervisedTimes:
    """Result of a supervised ensemble: surviving times plus loss accounting.

    Attributes:
        times: concatenated times of the *surviving* shards, in shard
            order.  Lost shards are excluded, never padded with ``nan`` —
            a lost trial is not a censored trial.
        shard_sizes: replicas per shard (sums to the attempted total).
        failed_shards: shards quarantined after exhausting retries.
        retries: attempts beyond the first, summed over shards.
        timeouts: attempts killed for overrunning the per-shard budget.
        outcomes: per-shard detail, index order.
    """

    times: np.ndarray
    shard_sizes: List[int]
    failed_shards: int
    retries: int
    timeouts: int
    outcomes: List[ShardOutcome] = field(default_factory=list)

    @property
    def attempted_trials(self) -> int:
        """Replicas the caller asked for, surviving or not."""
        return int(sum(self.shard_sizes))

    @property
    def degraded(self) -> bool:
        """True when any shard was lost (partial results)."""
        return self.failed_shards > 0


def shard_sizes(replicas: int, shards: int) -> List[int]:
    """Balanced deterministic partition of ``replicas`` into ``shards``.

    The first ``replicas % shards`` shards get the extra replica, so the
    partition (and with it every shard's random stream) is a pure function
    of the two counts.

    >>> shard_sizes(10, 4)
    [3, 3, 2, 2]
    >>> shard_sizes(8, 8)
    [1, 1, 1, 1, 1, 1, 1, 1]
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > replicas:
        raise ValueError(f"shards ({shards}) cannot exceed replicas ({replicas})")
    base, extra = divmod(replicas, shards)
    return [base + (1 if k < extra else 0) for k in range(shards)]


def summarize_supervised(result: SupervisedTimes, budget: Optional[int] = None):
    """Fold a :class:`SupervisedTimes` into degradation-aware stats.

    Returns :class:`~repro.analysis.ensemble.ConvergenceStats` whose
    ``failed_shards`` / ``attempted_trials`` fields carry the loss
    accounting.  Raises ``RuntimeError`` when *every* shard failed — there
    is nothing left to summarize, and pretending otherwise would launder a
    total loss into a statistic.
    """
    from repro.analysis.ensemble import summarize_times

    if result.times.size == 0:
        raise RuntimeError(
            f"all {len(result.shard_sizes)} shards failed; no surviving "
            "trials to summarize"
        )
    return summarize_times(
        result.times,
        budget=budget,
        failed_shards=result.failed_shards,
        attempted_trials=result.attempted_trials,
    )


# ----------------------------------------------------------------------
# Worker body (module-level so it survives pickling under any start method)
# ----------------------------------------------------------------------


@dataclass
class _ShardTask:
    """Everything one worker attempt needs, shipped to the child process."""

    index: int
    replicas: int
    protocol: object
    config: object
    max_rounds: int
    rng: np.random.Generator
    checkpoint_path: Optional[str]
    checkpoint_every: int
    trace_path: Optional[str]
    trace_timings: bool
    trace_format: str
    times_path: str
    env: Dict[str, Optional[str]]
    engine: Optional[str] = None
    heartbeat_path: Optional[str] = None
    heartbeat_every_s: float = 1.0
    attempt: int = 1
    profile_path: Optional[str] = None
    scenario: object = None


def _shard_worker(task: _ShardTask) -> None:
    """Run one shard to completion inside a worker process.

    The shard is an ordinary serial :func:`~repro.dynamics.run.
    simulate_ensemble` call, so every existing crashpoint
    (``ensemble:after_round``, ``checkpoint:after_tmp_write``, ...) fires
    inside the worker and per-shard checkpoints come from the stock
    :class:`~repro.execution.checkpoint.Checkpointer`.  The result is
    published by an atomic tmp-then-rename file write — queues would lose
    data to ``os._exit`` kills.
    """
    from repro.dynamics.run import simulate_ensemble

    for key, value in task.env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    # A forked child inherits the parent's crashpoint visit counters;
    # shards must count their own visits from zero.
    faults.reset()
    checkpoint = None
    if task.checkpoint_path is not None:
        path = Path(task.checkpoint_path)
        if path.exists():
            try:
                checkpoint = Checkpointer.resume(path, every=task.checkpoint_every)
            except CheckpointError as error:
                print(
                    f"repro: shard {task.index}: discarding unusable "
                    f"checkpoint ({error}); restarting the shard",
                    file=sys.stderr,
                )
        if checkpoint is None:
            checkpoint = Checkpointer(path, every=task.checkpoint_every)
    trace = (
        open_trace_writer(
            task.trace_path, task.trace_format,
            include_timings=task.trace_timings,
        )
        if task.trace_path is not None
        else None
    )
    beat = (
        HeartbeatRecorder(
            task.heartbeat_path,
            role="shard",
            shard=task.index,
            attempt=task.attempt,
            interval_s=task.heartbeat_every_s,
        )
        if task.heartbeat_path is not None
        else None
    )
    if task.profile_path is not None:
        from repro.telemetry.profiling import maybe_cprofile

        profiled = maybe_cprofile(task.profile_path)
    else:
        profiled = nullcontext()
    try:
        with profiled:
            times = simulate_ensemble(
                task.protocol, task.config, task.max_rounds, task.rng,
                task.replicas,
                recorder=compose_recorders(trace, beat),
                checkpoint=checkpoint,
                engine=task.engine,
                scenario=task.scenario,
            )
    finally:
        if trace is not None:
            trace.close()
    document = json.dumps({"shard": task.index, "times": encode_times(times)})
    storage.publish(task.times_path, (document + "\n").encode())


# ----------------------------------------------------------------------
# Supervision loop
# ----------------------------------------------------------------------


@dataclass
class _Running:
    process: multiprocessing.process.BaseProcess
    attempt: int
    started_at: float
    deadline: Optional[float]


def _effective_timeout(timeout_s: Optional[float]) -> Optional[float]:
    """Per-shard budget after folding in ``REPRO_BENCH_TIMEOUT``.

    The tighter (smaller) of the two wins: the bench alarm only fires in
    the main process, so a hung worker must be killed by the supervisor's
    own deadline no later than the alarm would have fired.
    """
    raw = os.environ.get("REPRO_BENCH_TIMEOUT")
    bench: Optional[float] = None
    if raw:
        try:
            parsed = float(raw)
        except ValueError:
            parsed = None
        if parsed is not None and parsed > 0:
            bench = parsed
    candidates = [t for t in (timeout_s, bench) if t is not None]
    return min(candidates) if candidates else None


def _fault_env(shard: int, attempt: int) -> Dict[str, Optional[str]]:
    """Per-attempt environment overrides controlling fault forwarding."""
    overrides: Dict[str, Optional[str]] = {
        "REPRO_WORKER_SHARD": str(shard),
        "REPRO_WORKER_ATTEMPT": str(attempt),
    }
    spec = os.environ.get(faults.FAULT_ENV_VAR)
    if not spec:
        overrides[faults.FAULT_ENV_VAR] = None
        return overrides
    target = os.environ.get(FAULT_SHARD_ENV_VAR, "").strip()
    if target:
        try:
            target_index = int(target)
        except ValueError:
            raise ValueError(
                f"invalid {FAULT_SHARD_ENV_VAR} value {target!r}: expected "
                "a shard index"
            )
        if target_index != shard:
            overrides[faults.FAULT_ENV_VAR] = None
            return overrides
    sticky = os.environ.get(FAULT_STICKY_ENV_VAR, "").strip() not in ("", "0")
    if attempt > 1 and not sticky:
        # Transient-fault model: the retry runs clean, so the supervisor
        # recovers to the unfaulted result bit-for-bit.
        overrides[faults.FAULT_ENV_VAR] = None
        return overrides
    overrides[faults.FAULT_ENV_VAR] = spec
    return overrides


def _load_shard_times(path: Path) -> Optional[np.ndarray]:
    try:
        document = json.loads(path.read_text())
        return decode_times(document["times"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def run_supervised_ensemble(
    protocol,
    config,
    max_rounds: int,
    rng: np.random.Generator,
    replicas: int,
    *,
    supervisor: Optional[SupervisorConfig] = None,
    recorder: Recorder = NULL_RECORDER,
    checkpoint_base: Optional[Union[str, Path]] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    trace_path: Optional[Union[str, Path]] = None,
    guard=None,
    workdir: Optional[Union[str, Path]] = None,
    engine: Optional[str] = None,
    heartbeat_base: Optional[Union[str, Path]] = None,
    heartbeat_every_s: float = 1.0,
    profile_dir: Optional[Union[str, Path]] = None,
    scenario=None,
    _worker=_shard_worker,
) -> SupervisedTimes:
    """Run ``replicas`` independent chains sharded over a worker pool.

    The ensemble is split by :func:`shard_sizes` into ``supervisor.shards``
    shards whose generators come from one ``spawn_rngs(rng, shards)`` call,
    so the result is a function of ``(seed, shards, engine)`` alone — the
    worker count only changes wall-clock.  Each shard runs the stock serial
    :func:`~repro.dynamics.run.simulate_ensemble` in a child process, so
    each shard steps its replicas as one array under the selected engine;
    see the module docstring for the supervision, degradation, and
    telemetry contracts.

    Args:
        supervisor: pool configuration (default :class:`SupervisorConfig`).
        engine: stepping backend forwarded to every shard's
            :func:`~repro.dynamics.run.simulate_ensemble` (``None`` means
            the default ``"batched"``; see docs/ENGINES.md).  Part of the
            result identity only through its engine *family* — the
            ``batched``/``loop`` families are bit-identical to each other,
            ``lockstep`` is a different (equally valid) stream.
        recorder: parent-side recorder; observes the run's provenance, a
            ``supervise`` span with shard/retry/timeout counters, and the
            closing summary (per-round records live in the merged trace).
        checkpoint_base: base path for per-shard checkpoints
            (``<base>.shard<k>``).  Shards whose checkpoint already exists
            resume it, so re-invoking after a crash (or ``GracefulExit``)
            continues where each shard left off.
        checkpoint_every: cadence forwarded to every shard checkpointer.
        trace_path: write one merged, deterministically-ordered JSONL
            trace here (per-shard traces are merged and removed).
        guard: a :class:`~repro.execution.shutdown.ShutdownGuard`; after
            SIGINT/SIGTERM the pool is torn down at the next supervision
            wakeup and :class:`GracefulExit` raised (shard checkpoints
            stay resumable).
        workdir: scratch directory for shard result files (default: a
            private temporary directory).
        heartbeat_base: base path for heartbeat files (default: the
            checkpoint base, when one is set).  The supervisor writes
            ``<base>.heartbeat.json`` and each worker writes
            ``<base>.shard<k>.heartbeat.json``, so ``repro watch <base>``
            and the ``/metrics`` exporter see live per-shard progress;
            ``None`` with no checkpoint base disables heartbeats entirely.
        heartbeat_every_s: minimum seconds between heartbeat rewrites
            (``0.0`` = every round/wakeup; quarantine transitions always
            force an immediate supervisor write so the degraded state is
            promptly scrapeable).
        profile_dir: when set, each shard attempt runs under cProfile and
            dumps ``<profile_dir>/shard<k>.prof`` (pstats format; the last
            attempt wins).
    """
    cfg = supervisor or SupervisorConfig()
    if cfg.workers < 1:
        raise ValueError(f"workers must be >= 1, got {cfg.workers}")
    if cfg.max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {cfg.max_retries}")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if not protocol.satisfies_boundary_conditions(tolerance=1e-12):
        raise ValueError(
            f"protocol {protocol.name!r} violates Proposition 3; its "
            "convergence time is infinite (see time_to_leave_consensus)"
        )
    from repro.dynamics.batched import engine_family, resolve_engine

    # Resolved in the parent so an invalid name fails fast (not as N worker
    # crash-retry cycles), and normalized to the stream-identity family so
    # provenance matches what the shards actually run.
    family = engine_family(resolve_engine(engine))
    # Resolved in the parent for the same reason as the engine: a bad spec
    # fails fast, and every shard then steps the exact same hostile world.
    from repro.dynamics.scenarios import as_scenario

    scenario = as_scenario(scenario, config.n)
    if scenario is not None and family not in ("batched", "loop"):
        raise ValueError(
            f"scenarios require a keyed engine family (batched/loop), got {family!r}"
        )
    settle = scenario.settle_round(max_rounds) if scenario is not None else 0
    shards = cfg.shards if cfg.shards is not None else min(replicas, DEFAULT_SHARD_COUNT)
    sizes = shard_sizes(replicas, shards)

    recording = recorder.enabled
    provenance = None
    if recording or trace_path is not None:
        # Captured before spawn_rngs consumes the parent stream, so the
        # provenance state hash pins the whole shard derivation.
        # ``workers`` is deliberately absent: results (and the merged
        # trace) are a function of (seed, shards) only, so the provenance
        # must not vary with the worker count.
        provenance_params = dict(
            n=config.n, z=config.z, x0=config.x0, max_rounds=max_rounds,
            replicas=replicas, shards=shards, engine=family,
        )
        if scenario is not None:
            provenance_params["scenario"] = scenario.spec()
        provenance = run_provenance(
            "supervised_ensemble", protocol, rng, **provenance_params,
        )
    # Backoff jitter key, captured before ``spawn_rngs`` consumes the parent
    # stream: the retry schedule becomes a pure function of (run seed, shard
    # index), reproducible across reruns and independent of worker count.
    backoff_key = rng_provenance(rng)["state_hash"]
    shard_rngs = spawn_rngs(rng, shards)
    timeout = _effective_timeout(cfg.timeout_s)

    scratch_ctx = None
    if workdir is None:
        scratch_ctx = tempfile.TemporaryDirectory(prefix="repro_supervisor_")
        scratch = Path(scratch_ctx.name)
    else:
        scratch = Path(workdir)
        scratch.mkdir(parents=True, exist_ok=True)

    def shard_trace_path(index: int) -> Optional[Path]:
        if trace_path is None:
            return None
        base = Path(trace_path)
        return base.with_name(base.name + f".shard{index}")

    def shard_checkpoint_path(index: int) -> Optional[str]:
        if checkpoint_base is None:
            return None
        base = Path(checkpoint_base)
        return str(base.with_name(base.name + f".shard{index}"))

    hb_base: Optional[Path] = None
    if heartbeat_base is not None:
        hb_base = Path(heartbeat_base)
    elif checkpoint_base is not None:
        hb_base = Path(checkpoint_base)
    if profile_dir is not None:
        Path(profile_dir).mkdir(parents=True, exist_ok=True)

    def shard_heartbeat_path(index: int) -> Optional[str]:
        if hb_base is None:
            return None
        shard_base = hb_base.with_name(hb_base.name + f".shard{index}")
        return str(heartbeat_path(shard_base))

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()

    pending = deque(range(shards))
    not_before: Dict[int, float] = {}
    attempts: Dict[int, int] = {k: 0 for k in range(shards)}
    failures: Dict[int, List[ShardFailure]] = {k: [] for k in range(shards)}
    shard_times: Dict[int, np.ndarray] = {}
    quarantined: set = set()
    running: Dict[int, _Running] = {}
    retries = 0
    timeouts = 0

    sup_beat: Optional[Heartbeat] = None
    sup_beat_path: Optional[Path] = None
    last_beat_at: Optional[float] = None
    if hb_base is not None:
        sup_beat_path = heartbeat_path(hb_base)
        sup_beat = Heartbeat(
            role="supervisor",
            pid=os.getpid(),
            shards=shards,
            replicas=replicas,
            replicas_done=0,
            max_rounds=max_rounds,
        )

    def flush_supervisor_heartbeat(
        force: bool = False, status: Optional[str] = None
    ) -> None:
        """Rewrite the supervisor heartbeat, throttled unless forced."""
        nonlocal last_beat_at
        if sup_beat is None:
            return
        now = time.monotonic()
        if (
            not force
            and status is None
            and last_beat_at is not None
            and now - last_beat_at < heartbeat_every_s
        ):
            return
        if status is not None:
            sup_beat.status = status
        sup_beat.replicas_done = sum(sizes[k] for k in shard_times)
        sup_beat.retries = retries
        sup_beat.timeouts = timeouts
        sup_beat.failed_shards = len(quarantined)
        sup_beat.updated_at = time.time()
        sample = sample_resources(include_children=True)
        sup_beat.rss_bytes = sample.rss_bytes
        sup_beat.peak_rss_bytes = sample.peak_rss_bytes
        sup_beat.cpu_s = sample.cpu_s
        write_heartbeat(sup_beat_path, sup_beat)
        last_beat_at = now

    def mark_shard_failed(index: int) -> None:
        """Overwrite a quarantined shard's heartbeat with status=failed.

        The worker died mid-write or mid-run, so its own heartbeat still
        says "running"; without this, watchers would render a dead shard
        as merely stale forever.
        """
        path = shard_heartbeat_path(index)
        if path is None:
            return
        beat = read_heartbeat(path) or Heartbeat(
            role="shard", shard=index, replicas=sizes[index]
        )
        beat.status = "failed"
        beat.attempt = attempts[index]
        beat.updated_at = time.time()
        write_heartbeat(path, beat)

    def launch(index: int) -> None:
        attempts[index] += 1
        attempt = attempts[index]
        task = _ShardTask(
            index=index,
            replicas=sizes[index],
            protocol=protocol,
            config=config,
            max_rounds=max_rounds,
            rng=shard_rngs[index],
            checkpoint_path=shard_checkpoint_path(index),
            checkpoint_every=checkpoint_every,
            trace_path=(
                str(shard_trace_path(index))
                if shard_trace_path(index) is not None
                else None
            ),
            trace_timings=cfg.trace_timings,
            trace_format=cfg.trace_format,
            times_path=str(scratch / f"shard{index}.times.json"),
            env=_fault_env(index, attempt),
            engine=family,
            heartbeat_path=shard_heartbeat_path(index),
            heartbeat_every_s=heartbeat_every_s,
            attempt=attempt,
            profile_path=(
                str(Path(profile_dir) / f"shard{index}.prof")
                if profile_dir is not None
                else None
            ),
            scenario=scenario,
        )
        process = context.Process(target=_worker, args=(task,), daemon=True)
        process.start()
        now = time.monotonic()
        running[index] = _Running(
            process=process,
            attempt=attempt,
            started_at=now,
            deadline=now + timeout if timeout is not None else None,
        )

    def record_failure(index: int, run: _Running, kind: str) -> None:
        nonlocal retries, timeouts
        now = time.monotonic()
        failures[index].append(
            ShardFailure(
                shard=index,
                attempt=run.attempt,
                kind=kind,
                exitcode=run.process.exitcode,
                elapsed_s=now - run.started_at,
            )
        )
        if kind == "timeout":
            timeouts += 1
        if attempts[index] > cfg.max_retries:
            quarantined.add(index)
            mark_shard_failed(index)
            # Forced write: the quarantine tick must be scrapeable now,
            # not one throttle interval from now.
            flush_supervisor_heartbeat(force=True)
            return
        retries += 1
        backoff = backoff_delay_s(
            len(failures[index]),
            base_s=cfg.backoff_base_s,
            cap_s=cfg.backoff_cap_s,
            key=f"{backoff_key}:shard{index}",
        )
        not_before[index] = now + backoff
        pending.append(index)

    def teardown() -> None:
        for run in running.values():
            if run.process.is_alive():
                run.process.terminate()
        for run in running.values():
            run.process.join(timeout=5.0)
            if run.process.is_alive():  # pragma: no cover - terminate sufficed so far
                run.process.kill()
                run.process.join()
        running.clear()

    with span(recorder, "supervise") as timing:
        if recording:
            recorder.run_started(provenance)
        try:
            while pending or running:
                if guard is not None and guard.requested:
                    teardown()
                    flush_supervisor_heartbeat(force=True, status="interrupted")
                    raise GracefulExit(guard.signum, checkpoint_base)
                flush_supervisor_heartbeat()
                now = time.monotonic()
                while pending and len(running) < cfg.workers:
                    index = next(
                        (s for s in pending if not_before.get(s, 0.0) <= now),
                        None,
                    )
                    if index is None:
                        break
                    pending.remove(index)
                    launch(index)
                if not running:
                    soonest = min(not_before.get(s, 0.0) for s in pending)
                    time.sleep(max(0.0, min(soonest - now, cfg.poll_s)) or 0.005)
                    continue
                wait_for = cfg.poll_s
                deadlines = [
                    r.deadline for r in running.values() if r.deadline is not None
                ]
                if deadlines:
                    wait_for = min(wait_for, max(0.0, min(deadlines) - now))
                multiprocessing.connection.wait(
                    [run.process.sentinel for run in running.values()],
                    timeout=wait_for,
                )
                now = time.monotonic()
                for index in [s for s, r in running.items() if not r.process.is_alive()]:
                    run = running.pop(index)
                    run.process.join()
                    if run.process.exitcode == 0:
                        times = _load_shard_times(
                            scratch / f"shard{index}.times.json"
                        )
                        if times is not None and len(times) == sizes[index]:
                            shard_times[index] = times
                            continue
                        record_failure(index, run, "corrupt")
                    else:
                        record_failure(index, run, "exit")
                for index in [
                    s
                    for s, r in running.items()
                    if r.deadline is not None and now >= r.deadline
                ]:
                    run = running.pop(index)
                    run.process.kill()
                    run.process.join()
                    record_failure(index, run, "timeout")
        finally:
            teardown()
            if scratch_ctx is not None:
                scratch_ctx.cleanup()

        outcomes = [
            ShardOutcome(
                index=k,
                replicas=sizes[k],
                ok=k in shard_times,
                times=shard_times.get(k),
                attempts=attempts[k],
                failures=list(failures[k]),
            )
            for k in range(shards)
        ]
        surviving = [shard_times[k] for k in sorted(shard_times)]
        result = SupervisedTimes(
            times=(
                np.concatenate(surviving) if surviving else np.empty(0, dtype=float)
            ),
            shard_sizes=sizes,
            failed_shards=len(quarantined),
            retries=retries,
            timeouts=timeouts,
            outcomes=outcomes,
        )
        flush_supervisor_heartbeat(force=True, status="done")
        if recording:
            timing.incr("shards", shards)
            timing.incr("workers", cfg.workers)
            timing.incr("retries", retries)
            timing.incr("timeouts", timeouts)
            timing.incr("failed_shards", result.failed_shards)
    scenario_summary = None
    if scenario is not None:
        from repro.dynamics.run import recovery_summary

        scenario_summary = {"scenario": scenario.spec(), "settle_round": settle}
        scenario_summary.update(recovery_summary(result.times, settle))
    if trace_path is not None:
        _write_merged_trace(
            Path(trace_path), provenance, result, shard_trace_path,
            trace_format=cfg.trace_format, scenario_summary=scenario_summary,
        )
    if recording:
        censored = int(np.isnan(result.times).sum())
        summary = {
            "converged": int(result.times.size) - censored,
            "censored": censored,
            "failed_shards": result.failed_shards,
            "attempted_trials": result.attempted_trials,
            "retries": retries,
            "timeouts": timeouts,
        }
        if scenario_summary is not None:
            summary.update(scenario_summary)
        recorder.run_finished(summary)
    return result


# ----------------------------------------------------------------------
# Deterministic trace merging
# ----------------------------------------------------------------------


def _write_merged_trace(
    target, provenance, result, shard_trace_path, trace_format="jsonl",
    scenario_summary=None,
) -> None:
    """Merge per-shard traces into one deterministic, validating trace.

    Layout: the supervisor's own ``run_start`` (runner
    ``supervised_ensemble``, params including ``shards``/``workers``), the
    shards' round records sorted by ``(t, shard)`` and tagged with their
    ``shard`` index (a stable order that keeps ``t`` non-decreasing, as
    the validator requires), the shards' span records likewise tagged, and
    one ``run_end`` carrying the degradation summary.  Shard traces are
    timing-free by default, so the merged bytes are a pure function of the
    seed, shard count, and container format.  A shard that resumed a
    *complete* checkpoint replays its stored result without re-simulating
    and thus contributes no round records.  Shard traces are read
    format-agnostically (sniffed) and the merge is emitted in
    ``trace_format``; written atomically (tmp + fsync + rename); consumed
    shard traces are removed.
    """
    rounds: List[dict] = []
    spans: List[dict] = []
    converged_total = 0
    censored_total = 0
    final_round = 0
    consumed: List[Path] = []
    for outcome in result.outcomes:
        if not outcome.ok:
            continue
        shard_path = shard_trace_path(outcome.index)
        if shard_path is None or not shard_path.exists():
            continue
        for record in read_trace(shard_path):
            kind = record.get("kind")
            if kind == "round":
                record["shard"] = outcome.index
                rounds.append(record)
            elif kind == "span":
                record["shard"] = outcome.index
                spans.append(record)
            elif kind == "run_end":
                converged_total += int(record.get("converged") or 0)
                censored_total += int(record.get("censored") or 0)
                final_round = max(final_round, int(record.get("final_round") or 0))
        consumed.append(shard_path)
    rounds.sort(key=lambda record: (record["t"], record["shard"]))
    end = {
        "kind": "run_end",
        "converged": converged_total,
        "censored": censored_total,
        "final_round": final_round,
        "failed_shards": result.failed_shards,
        "attempted_trials": result.attempted_trials,
        "retries": result.retries,
        "timeouts": result.timeouts,
        "rounds_recorded": len(rounds),
    }
    if scenario_summary:
        end.update(scenario_summary)
    start = {"kind": "run_start", "schema": TRACE_SCHEMA_VERSION}
    start.update(provenance.to_dict())
    write_trace_records(target, [start, *rounds, *spans, end], trace_format)
    for path in consumed:
        path.unlink(missing_ok=True)


def supervisor_from(
    base: Optional[SupervisorConfig],
    workers: Optional[int],
    shards: Optional[int],
) -> SupervisorConfig:
    """Overlay explicit ``workers=`` / ``shards=`` arguments on a config.

    >>> supervisor_from(None, workers=4, shards=2)
    SupervisorConfig(workers=4, shards=2, timeout_s=None, max_retries=2, \
backoff_base_s=0.1, backoff_cap_s=5.0, poll_s=0.05, trace_timings=False, \
trace_format='jsonl')
    >>> supervisor_from(SupervisorConfig(workers=8), None, None).workers
    8
    """
    cfg = base or SupervisorConfig()
    if workers is not None:
        cfg = replace(cfg, workers=workers)
    if shards is not None:
        cfg = replace(cfg, shards=shards)
    return cfg
