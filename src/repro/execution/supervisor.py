"""Supervised parallel ensembles: a process pool with retry and quarantine.

The headline experiments are ensembles of independent chains, which the
serial :func:`repro.dynamics.run.simulate_ensemble` advances in one
process — a single stall or kill loses everything, and wall-clock does not
scale with cores.  This module splits an ensemble into **shards** and runs
each shard in its own worker process under supervision:

* **Shape-free results.**  Shard ``k`` runs replicas ``[lo_k, hi_k)`` of
  the keyed stream the serial ``simulate_ensemble(rng, replicas)`` runs
  (its ``first_replica=lo_k`` slice, from a copy of the caller's
  generator at its entry state), so for the keyed engine families the
  times equal the serial call's bit for bit at any shard and worker
  count.  The shape — ``shards``, default one per worker — is a
  performance choice.  ``lockstep`` has no keys to slice: its shards draw
  from one :func:`repro.dynamics.rng.spawn_rngs` call, so its results are
  a function of ``(seed, shards)``.
* **Supervision.**  Each shard attempt runs in a
  :class:`~repro.execution.pool.WorkerPool` worker (the loop the job
  service shares) with an optional wall-clock deadline; a worker that
  dies (crash, ``REPRO_FAULT`` kill, OOM), overruns, or exits without a
  result is retried with seeded capped backoff, and after ``max_retries``
  retries the shard is quarantined as *failed*.
* **Graceful degradation.**  Failed-past-retry shards are excluded — never
  silently, mirroring the censoring philosophy: the surviving shards
  aggregate into :class:`~repro.analysis.ensemble.ConvergenceStats` whose
  ``failed_shards`` / ``attempted_trials`` fields report the loss, and the
  CLI exits :data:`~repro.execution.shutdown.EXIT_SHARDS_LOST` for partial
  results.
* **Durability.**  Each shard checkpoints to its own file
  (``<base>.shard<k>``), so a killed worker's retry resumes its own shard
  checkpoint and replays the identical stream — the fault-smoke harness
  (``scripts/fault_smoke.py --parallel``) proves kill → retry →
  statistics equal to the serial call's.  A shard file's signature names
  its replica range and the caller's entry state, and a file left by
  another seed or shard layout is refused before any worker starts.
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
"""

from __future__ import annotations

import copy
import os
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.dynamics.rng import spawn_rngs, spawn_seed_sequences
from repro.execution import faults
from repro.execution.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointError,
    decode_times,
    encode_times,
    load_checkpoint,
)
from repro.execution.pool import (
    Ending,
    Recording,
    WorkerPool,
    open_checkpoint,
    retry_delay,
)
from repro.execution.shutdown import GracefulExit
from repro.telemetry import (
    NULL_RECORDER,
    Recorder,
    rng_provenance,
    run_provenance,
    span,
)
from repro.telemetry.heartbeat import (
    Heartbeat,
    heartbeat_path,
    read_heartbeat,
    write_heartbeat,
)
from repro.telemetry.columnar import write_trace_records
from repro.telemetry.jsonl import read_trace
from repro.telemetry.recorder import TRACE_SCHEMA_VERSION
from repro.telemetry.resources import sample_resources

__all__ = [
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
            the times — only wall clock.
        shards: how many contiguous replica ranges the ensemble is cut into
            (default ``min(replicas, workers)``).  For the keyed engines
            it changes wall clock only; it sets the unit of retries,
            ``REPRO_FAULT_SHARD``, per-shard checkpoints and per-shard
            traces, so the merged trace's bytes depend on it.  ``lockstep``
            results depend on it.
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
    partition (and with it every shard's replica range) is a pure function
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
    """Everything one shard attempt computes, shipped to the worker process."""

    index: int
    replicas: int
    protocol: object
    config: object
    max_rounds: int
    rng: np.random.Generator
    first_replica: int
    checkpoint_path: Optional[Path]
    checkpoint_every: int
    recording: Recording
    engine: Optional[str] = None
    scenario: object = None


def _shard_worker(task: _ShardTask) -> dict:
    """One shard attempt: an ordinary serial ``simulate_ensemble`` call.

    It runs the shard's slice of the serial stream (``first_replica``).
    Every existing crashpoint (``ensemble:after_round``, ...) fires inside
    the worker, and a retry resumes the shard's own checkpoint.
    """
    from repro.dynamics.run import simulate_ensemble

    with task.recording.open() as recorder:
        times = simulate_ensemble(
            task.protocol, task.config, task.max_rounds, task.rng,
            task.replicas,
            recorder=recorder,
            checkpoint=open_checkpoint(task.checkpoint_path, task.checkpoint_every),
            engine=task.engine,
            scenario=task.scenario,
            first_replica=task.first_replica,
        )
    return {"times": encode_times(times)}


# ----------------------------------------------------------------------
# Supervision policy
# ----------------------------------------------------------------------


def _effective_timeout(timeout_s: Optional[float]) -> Optional[float]:
    """Per-shard budget after folding in ``REPRO_BENCH_TIMEOUT``.

    The tighter (smaller) of the two wins: the ``bench --timeout`` alarm
    only fires in the main process, so a hung worker must be killed by the
    supervisor's own deadline no later than the alarm would have fired.
    """
    try:
        bench = float(os.environ.get("REPRO_BENCH_TIMEOUT", ""))
    except ValueError:
        bench = 0.0
    budgets = [t for t in (timeout_s, bench if bench > 0 else None) if t is not None]
    return min(budgets, default=None)


def _fault_env(shard: int, attempt: int) -> Dict[str, Optional[str]]:
    """The ``REPRO_FAULT`` a shard attempt runs under (``None`` = unset)."""
    spec = os.environ.get(faults.FAULT_ENV_VAR) or None
    target = os.environ.get(FAULT_SHARD_ENV_VAR, "").strip()
    if spec and target:
        try:
            spec = spec if int(target) == shard else None
        except ValueError:
            raise ValueError(f"invalid {FAULT_SHARD_ENV_VAR} value {target!r}: "
                             "expected a shard index") from None
    sticky = os.environ.get(FAULT_STICKY_ENV_VAR, "").strip() not in ("", "0")
    if attempt > 1 and not sticky:
        # Transient-fault model: the retry runs clean, so the supervisor
        # recovers to the unfaulted result bit-for-bit.
        spec = None
    return {faults.FAULT_ENV_VAR: spec}


def _shard_path(base, index: int) -> Optional[Path]:
    """``<base>.shard<k>``, or ``None`` without a base."""
    if base is None:
        return None
    base = Path(base)
    return base.with_name(f"{base.name}.shard{index}")


def _refuse_foreign_checkpoints(base, signatures: List[str]) -> None:
    """Raise :class:`CheckpointError` for a shard file another run wrote.

    ``signatures[k]`` is the signature shard ``k`` will run under.  A file
    whose signature differs came from another seed, shard layout or input,
    and resuming it would return that run's times, so it is refused
    before any worker starts.  A missing or unreadable file is left to the
    shard, which starts afresh.
    """
    for index, signature in enumerate(signatures):
        path = _shard_path(base, index)
        try:
            state = load_checkpoint(path)
        except CheckpointError:
            continue
        if (state.runner, state.signature) != ("simulate_ensemble", signature):
            raise CheckpointError(
                f"shard checkpoint {path} belongs to a different run (another "
                "seed, shard layout or input); remove it or rerun the "
                "command that wrote it"
            )


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
    engine: Optional[str] = None,
    heartbeat_base: Optional[Union[str, Path]] = None,
    heartbeat_every_s: float = 1.0,
    profile_dir: Optional[Union[str, Path]] = None,
    scenario=None,
    _worker=_shard_worker,
) -> SupervisedTimes:
    """Run ``replicas`` independent chains sharded over a worker pool.

    The ensemble is cut by :func:`shard_sizes` into ``supervisor.shards``
    contiguous replica ranges (default one per worker).  Each shard runs
    the stock serial :func:`~repro.dynamics.run.simulate_ensemble` on its
    range in a child process, stepping its replicas as one array under
    the selected engine.  For the keyed engine families the times equal
    the serial ``simulate_ensemble(protocol, config, max_rounds, rng,
    replicas)`` bit for bit at every shard and worker count, and the
    caller's generator is advanced as that call advances it; ``lockstep``
    times are a function of ``(seed, shards)``.  See the module docstring
    for the supervision, degradation, and telemetry contracts.

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
            continues where each shard left off.  A file written under
            another seed, shard layout or input raises
            :class:`~repro.execution.checkpoint.CheckpointError` before
            any worker starts.
        checkpoint_every: cadence forwarded to every shard checkpointer.
        trace_path: write one merged, deterministically-ordered JSONL
            trace here (per-shard traces are merged and removed).
        guard: a :class:`~repro.execution.shutdown.ShutdownGuard`; after
            SIGINT/SIGTERM the pool is torn down at the next supervision
            wakeup and :class:`GracefulExit` raised (shard checkpoints
            stay resumable).
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
    shards = cfg.shards if cfg.shards is not None else min(replicas, cfg.workers)
    sizes = shard_sizes(replicas, shards)

    recording = recorder.enabled
    provenance = None
    if recording or trace_path is not None:
        # Captured before the caller's generator is advanced, so the
        # provenance state hash pins the whole shard derivation.
        # ``workers`` is deliberately absent: the merged trace is a
        # function of (seed, shards) only, so the provenance must not
        # vary with the worker count.
        provenance_params = dict(
            n=config.n, z=config.z, x0=config.x0, max_rounds=max_rounds,
            replicas=replicas, shards=shards, engine=family,
        )
        if scenario is not None:
            provenance_params["scenario"] = scenario.spec()
        provenance = run_provenance(
            "supervised_ensemble", protocol, rng, **provenance_params,
        )
    # Backoff jitter key, captured before the parent stream is consumed:
    # the retry schedule becomes a pure function of (run seed, shard
    # index), reproducible across reruns and independent of worker count.
    backoff_key = rng_provenance(rng)["state_hash"]
    if family in ("batched", "loop"):
        # Every shard derives its keys from the caller's entry state and
        # keeps its own range; the caller's generator then advances as
        # the serial call's key derivation advances it.
        entry_rng = copy.deepcopy(rng)
        shard_rngs = [entry_rng] * shards
        firsts = [sum(sizes[:k]) for k in range(shards)]
        spawn_seed_sequences(rng, 0)
    else:  # lockstep shares no keys: one generator per shard
        shard_rngs = spawn_rngs(rng, shards)
        firsts = [0] * shards
    if checkpoint_base is not None:
        from repro.dynamics.run import _ensemble_signature

        _refuse_foreign_checkpoints(checkpoint_base, [
            _ensemble_signature(
                protocol, config, max_rounds, shard_rngs[k], sizes[k], family,
                scenario, firsts[k],
            )
            for k in range(shards)
        ])
    timeout = _effective_timeout(cfg.timeout_s)

    hb_base = heartbeat_base if heartbeat_base is not None else checkpoint_base
    if profile_dir is not None:
        Path(profile_dir).mkdir(parents=True, exist_ok=True)

    def shard_heartbeat_path(index: int) -> Optional[Path]:
        return None if hb_base is None else heartbeat_path(_shard_path(hb_base, index))

    pending = deque(range(shards))
    not_before: Dict[int, float] = {}
    failures: Dict[int, List[ShardFailure]] = {k: [] for k in range(shards)}
    shard_times: Dict[int, np.ndarray] = {}
    quarantined: set = set()
    retries = 0
    timeouts = 0

    sup_beat: Optional[Heartbeat] = None
    last_beat_at: Optional[float] = None
    if hb_base is not None:
        sup_beat = Heartbeat(
            role="supervisor", pid=os.getpid(), shards=shards,
            replicas=replicas, replicas_done=0, max_rounds=max_rounds,
        )

    def flush_supervisor_heartbeat(status: Optional[str] = None) -> None:
        """Rewrite the supervisor heartbeat; throttled unless given a status."""
        nonlocal last_beat_at
        now = time.monotonic()
        if sup_beat is None or (
            status is None
            and last_beat_at is not None
            and now - last_beat_at < heartbeat_every_s
        ):
            return
        sample = sample_resources(include_children=True)
        sup_beat.status = status or sup_beat.status
        sup_beat.replicas_done = sum(sizes[k] for k in shard_times)
        sup_beat.retries = retries
        sup_beat.timeouts = timeouts
        sup_beat.failed_shards = len(quarantined)
        sup_beat.updated_at = time.time()
        sup_beat.rss_bytes = sample.rss_bytes
        sup_beat.peak_rss_bytes = sample.peak_rss_bytes
        sup_beat.cpu_s = sample.cpu_s
        write_heartbeat(heartbeat_path(hb_base), sup_beat)
        last_beat_at = now

    def mark_shard_failed(index: int) -> None:
        """Overwrite a quarantined shard's heartbeat with status=failed.

        Its dead worker's last beat still says "running": watchers would
        render the shard as merely stale forever.
        """
        path = shard_heartbeat_path(index)
        if path is None:
            return
        beat = read_heartbeat(path) or Heartbeat(
            role="shard", shard=index, replicas=sizes[index]
        )
        beat.status = "failed"
        beat.attempt = len(failures[index])
        beat.updated_at = time.time()
        write_heartbeat(path, beat)

    def launch(index: int) -> None:
        attempt = len(failures[index]) + 1
        task = _ShardTask(
            index=index,
            replicas=sizes[index],
            protocol=protocol,
            config=config,
            max_rounds=max_rounds,
            rng=shard_rngs[index],
            first_replica=firsts[index],
            checkpoint_path=_shard_path(checkpoint_base, index),
            checkpoint_every=checkpoint_every,
            # Timing-free traces, so the merged trace is a pure function
            # of the seed, the shard count and the container format.
            recording=Recording(
                trace_path=_shard_path(trace_path, index),
                trace_format=cfg.trace_format, trace_timings=False,
                heartbeat_path=shard_heartbeat_path(index),
                heartbeat_every_s=heartbeat_every_s,
                role="shard", shard=index, attempt=attempt,
                profile_path=(
                    None if profile_dir is None
                    else Path(profile_dir) / f"shard{index}.prof"
                ),
            ),
            engine=family,
            scenario=scenario,
        )
        pool.start(
            index,
            partial(_worker, task),
            attempt=attempt,
            result_path=Path(scratch.name) / f"shard{index}.times.json",
            env=_fault_env(index, attempt),
            deadline_s=timeout,
        )

    def record_failure(ending: Ending) -> None:
        nonlocal retries, timeouts
        index = ending.key
        failures[index].append(ShardFailure(
            shard=index, attempt=ending.attempt, kind=ending.kind,
            exitcode=ending.exitcode, elapsed_s=ending.elapsed_s,
        ))
        timeouts += ending.kind == "timeout"
        delay = retry_delay(
            len(failures[index]),
            cfg.max_retries,
            base_s=cfg.backoff_base_s,
            cap_s=cfg.backoff_cap_s,
            key=f"{backoff_key}:shard{index}",
        )
        if delay is None:
            quarantined.add(index)
            mark_shard_failed(index)
            # Forced write: the quarantine tick must be scrapeable now,
            # not one throttle interval from now.
            flush_supervisor_heartbeat("running")
            return
        retries += 1
        not_before[index] = time.monotonic() + delay
        pending.append(index)

    pool = WorkerPool(cfg.workers)
    # Private home of the shard result files the pool publishes.
    scratch = tempfile.TemporaryDirectory(prefix="repro_supervisor_")
    with span(recorder, "supervise") as timing:
        try:
            if recording:
                recorder.run_started(provenance)
            while pending or len(pool):
                if guard is not None and guard.requested:
                    pool.close()
                    flush_supervisor_heartbeat("interrupted")
                    raise GracefulExit(guard.signum, checkpoint_base)
                flush_supervisor_heartbeat()
                now = time.monotonic()
                ripe = [s for s in pending if not_before.get(s, 0.0) <= now]
                for index in ripe[: pool.free]:
                    pending.remove(index)
                    launch(index)
                wait_s = cfg.poll_s
                if pending and not len(pool):  # idle until a backoff expires
                    soonest = min(not_before.get(s, 0.0) for s in pending)
                    wait_s = min(wait_s, max(0.0, soonest - now))
                pool.wait(wait_s)
                for ending in pool.reap():
                    if ending.kind == "done":
                        shard_times[ending.key] = decode_times(ending.result["times"])
                    else:
                        record_failure(ending)
        finally:
            pool.close()
            scratch.cleanup()

        outcomes = [
            ShardOutcome(
                index=k,
                replicas=sizes[k],
                ok=k in shard_times,
                times=shard_times.get(k),
                attempts=len(failures[k]) + (k in shard_times),
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
        flush_supervisor_heartbeat("done")
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
            Path(trace_path), provenance, result, partial(_shard_path, trace_path),
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
    timing-free, so the merged bytes are a pure function of the seed,
    shard count, and container format.  A shard that resumed a
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
backoff_base_s=0.1, backoff_cap_s=5.0, poll_s=0.05, trace_format='jsonl')
    >>> supervisor_from(SupervisorConfig(workers=8), None, None).workers
    8
    """
    cfg = base or SupervisorConfig()
    if workers is not None:
        cfg = replace(cfg, workers=workers)
    if shards is not None:
        cfg = replace(cfg, shards=shards)
    return cfg
