"""Trajectory runners and convergence detection.

The convergence time ``tau_n`` (Section 1.1) is the first round from which
the population holds the correct consensus *forever*.  For protocols
satisfying Proposition 3 the correct consensus is absorbing, so ``tau_n`` is
simply the hitting time of ``X = n z`` and the runner stops there.  For
protocols violating Proposition 3 the consensus is left almost surely
(``tau_n`` is infinite); :func:`time_to_leave_consensus` measures how fast,
which is the E10 experiment.

Every runner accepts an optional ``recorder=`` (default: the disabled
:data:`repro.telemetry.NULL_RECORDER`) that observes the run's provenance,
one record per round, and a closing summary — see docs/OBSERVABILITY.md for
the schema and the zero-overhead-when-disabled contract.

Durability: :func:`simulate` and :func:`simulate_ensemble` additionally
accept ``checkpoint=`` (a :class:`repro.execution.Checkpointer`).  At every
cadence boundary the runner writes an atomic checkpoint (progress + NumPy
bit-generator state), after SIGINT/SIGTERM it writes a final one and raises
:class:`~repro.execution.GracefulExit`, and a resumed call replays the
identical random stream — the resumed result is bit-identical to an
uninterrupted run.  Round boundaries also carry ``REPRO_FAULT`` crashpoints
(``run:after_round``, ``ensemble:after_round``, ``ensemble:after_replica``,
...) so kill-and-resume is exercised by tests; the variable is read once,
when a run starts.  See docs/OBSERVABILITY.md, "Durability & fault model".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.protocol import Protocol

if TYPE_CHECKING:  # avoid a circular import: core.lower_bound needs dynamics.config
    from repro.core.lower_bound import LowerBoundCertificate
from repro.dynamics.batched import (
    replica_keys,
    resolve_engine,
    step_count_keyed,
    step_counts_keyed,
)
from repro.dynamics.config import Configuration
from repro.dynamics.engine import step_count, step_counts_batch
from repro.execution import faults
from repro.execution.checkpoint import (
    Checkpointer,
    decode_times,
    encode_times,
    run_signature,
)
from repro.dynamics.scenarios import (
    as_scenario,
    scenario_step_count,
    scenario_step_counts,
    scenario_target,
)
from repro.execution.shutdown import GracefulExit
from repro.telemetry import (
    NULL_RECORDER,
    Recorder,
    rng_provenance,
    run_provenance,
    span,
)

__all__ = [
    "RunResult",
    "simulate",
    "simulate_ensemble",
    "recovery_summary",
    "escape_time",
    "escape_time_ensemble",
    "time_to_leave_consensus",
]


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single run of the count chain.

    Attributes:
        config: the initial configuration.
        converged: whether the correct consensus was reached (and, the
            protocol being Proposition-3 compliant, held forever).
        rounds: the convergence time ``tau`` in parallel rounds, or ``None``
            if the run was censored at the round budget.
        final_count: the count when the run stopped.
        trajectory: the full count trajectory if recording was requested.
    """

    config: Configuration
    converged: bool
    rounds: Optional[int]
    final_count: int
    trajectory: Optional[np.ndarray] = None


def simulate(
    protocol: Protocol,
    config: Configuration,
    max_rounds: int,
    rng: np.random.Generator,
    record: bool = False,
    recorder: Recorder = NULL_RECORDER,
    checkpoint: Optional[Checkpointer] = None,
) -> RunResult:
    """Run the count chain until the correct consensus or the round budget.

    Raises ``ValueError`` for protocols violating Proposition 3: their
    "consensus" is not absorbing, so a hitting time would misrepresent
    ``tau_n`` (use :func:`time_to_leave_consensus` for those).

    ``recorder`` observes one record per executed round (``t`` starting at
    1, ``count`` the post-round count); ``record=True`` additionally keeps
    the trajectory in memory on the returned :class:`RunResult`.

    ``checkpoint`` enables durable execution: atomic checkpoints at the
    cadence, a final one (plus :class:`GracefulExit`) after SIGINT/SIGTERM,
    and bit-identical resume when the checkpointer carries a loaded state.
    The checkpoint signature hashes ``rng``'s entry state, so a resume
    under another seed is refused.
    """
    if not protocol.satisfies_boundary_conditions(tolerance=1e-12):
        raise ValueError(
            f"protocol {protocol.name!r} violates Proposition 3; its "
            "convergence time is infinite (see time_to_leave_consensus)"
        )
    start_round = 0
    resumed = None
    if checkpoint is not None:
        signature = run_signature(
            "simulate", protocol, rng,
            n=config.n, z=config.z, x0=config.x0, max_rounds=max_rounds,
            record=bool(record), entry_state=rng_provenance(rng)["state_hash"],
        )
        resumed = checkpoint.begin("simulate", signature)
    target = config.target_count
    x = config.x0
    trajectory = [x] if record else None
    if resumed is not None:
        if resumed.complete:
            payload = resumed.payload
            return RunResult(
                config=config,
                converged=bool(payload["converged"]),
                rounds=None if payload["rounds"] is None else int(payload["rounds"]),
                final_count=int(payload["x"]),
                trajectory=_as_array(payload.get("trajectory")),
            )
        x = int(resumed.payload["x"])
        start_round = int(resumed.round)
        if record:
            trajectory = [int(v) for v in resumed.payload["trajectory"]]
        # Restore the exact random stream the checkpointed process would
        # have drawn next: this is what makes resume bit-identical.
        rng.bit_generator.state = resumed.rng_state
    recording = recorder.enabled
    if recording:
        params = dict(n=config.n, z=config.z, x0=config.x0, max_rounds=max_rounds)
        if resumed is not None:
            params["resumed_from"] = start_round
            params["resumed_count"] = x
        recorder.run_started(run_provenance("simulate", protocol, rng, **params))
    converged = False
    rounds: Optional[int] = None
    n, z = config.n, config.z
    armed = faults.armed()
    steps = 0
    with span(recorder, "simulate") as timing:
        try:
            for t in range(start_round, max_rounds + 1):
                if x == target:
                    converged = True
                    rounds = t
                    break
                if t == max_rounds:
                    break
                x = step_count(protocol, n, z, x, rng)
                steps += 1
                if record:
                    trajectory.append(x)
                if recording:
                    recorder.round_recorded(t + 1, x)
                if checkpoint is not None:
                    stop = checkpoint.should_stop()
                    if stop or checkpoint.due(t + 1):
                        checkpoint.save(
                            "simulate", t + 1, rng, _simulate_payload(x, trajectory)
                        )
                        if armed:
                            faults.crashpoint("run:after_checkpoint")
                    if stop:
                        _graceful_exit(
                            checkpoint, recording, recorder,
                            {"interrupted": True, "rounds": None, "final_count": x,
                             "resumable_at": t + 1},
                        )
                if armed:
                    faults.crashpoint("run:after_round")
        finally:
            # step_count runs without the recorder, so the span gets the
            # per-step ticks as one total, also when the run is interrupted.
            if steps:
                timing.incr("steps", steps)
        if recording:
            timing.incr("rounds", rounds if rounds is not None else max_rounds)
    if checkpoint is not None:
        final_payload = _simulate_payload(x, trajectory)
        final_payload.update({"converged": converged, "rounds": rounds})
        checkpoint.finish(
            "simulate", rounds if rounds is not None else max_rounds, rng,
            final_payload,
        )
    if recording:
        recorder.run_finished(
            {"converged": converged, "rounds": rounds, "final_count": x}
        )
    return RunResult(
        config=config,
        converged=converged,
        rounds=rounds,
        final_count=x,
        trajectory=_as_array(trajectory),
    )


def _simulate_payload(x: int, trajectory) -> dict:
    payload = {"x": int(x)}
    if trajectory is not None:
        payload["trajectory"] = [int(v) for v in trajectory]
    return payload


def _graceful_exit(checkpoint, recording, recorder, summary) -> None:
    """Honour a shutdown request at a safe point: flush, close out, raise."""
    if recording:
        recorder.run_finished(summary)
    if checkpoint.guard is not None:
        checkpoint.guard.flush_registered()
    raise GracefulExit(
        checkpoint.guard.signum if checkpoint.guard is not None else 15,
        checkpoint.path,
    )


def simulate_ensemble(
    protocol: Protocol,
    config: Configuration,
    max_rounds: int,
    rng: np.random.Generator,
    replicas: int,
    recorder: Recorder = NULL_RECORDER,
    checkpoint: Optional[Checkpointer] = None,
    engine: Optional[str] = None,
    scenario=None,
    first_replica: int = 0,
) -> np.ndarray:
    """Convergence times of ``replicas`` independent runs, advanced in lock-step.

    Returns a float array of length ``replicas``: the convergence time of
    each replica, or ``nan`` where the run was censored at ``max_rounds``.
    Vectorized across replicas, so the cost is ``O(max_rounds)`` batched
    binomial draws rather than ``replicas`` full runs.

    ``engine`` selects the stepping backend (contract in docs/ENGINES.md):
    ``"batched"`` (the default) advances every replica on its own
    counter-based stream via :func:`~repro.dynamics.batched.
    step_counts_keyed`, so replica ``j``'s statistics depend only on the
    seed and ``j`` — never on the batch size; ``"loop"`` is its
    bit-identical scalar reference (one Python-level
    :func:`~repro.dynamics.batched.step_count_keyed` call per active
    replica per round).

    ``recorder`` observes one record per lock-step round: ``count`` is the
    mean count over *all* replicas, with ``active`` (replicas still running
    after the round) and ``newly_converged`` in the extra fields.

    ``checkpoint`` (a :class:`repro.execution.Checkpointer`) captures the
    lock-step state — completed replica times, per-replica counts, the
    active mask, and the bit-generator state — at the cadence and on
    shutdown; a resumed ensemble replays the identical random stream, so
    its times (and any :func:`~repro.analysis.ensemble.summarize_times`
    statistics over them) are bit-identical to an uninterrupted run.  The
    checkpoint signature hashes ``rng``'s entry state, so a resume under
    another seed is refused.

    ``first_replica`` makes the call run a slice of a larger serial
    ensemble: replica ``j`` of the result is replica ``first_replica + j``
    of ``simulate_ensemble(..., rng, first_replica + replicas)``.  The
    shards of :func:`repro.execution.supervisor.run_supervised_ensemble`,
    the sharded worker-pool executor, run such slices, so its times are
    bit-identical to the serial call at any shard and worker count.

    ``scenario`` applies a hostile-world perturbation schedule (a
    :class:`repro.dynamics.scenarios.Scenario`, a spec string like
    ``"churn+lossy:rate=0.2"``, or a
    :class:`~repro.dynamics.config.ScenarioConfig`).  Scenarios draw from
    the same counter streams (churn claims draw indices 2/3), so the
    ``null`` scenario is bit-identical to ``scenario=None``.  Convergence
    then means "every free agent displays the current true opinion",
    replicas never retire before the scenario's settle round, and the
    scenario's canonical spec is folded into the checkpoint signature —
    resume refuses a mismatched hostile world.  See docs/SCENARIOS.md.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if not protocol.satisfies_boundary_conditions(tolerance=1e-12):
        raise ValueError(
            f"protocol {protocol.name!r} violates Proposition 3; its "
            "convergence time is infinite (see time_to_leave_consensus)"
        )
    if first_replica < 0:
        raise ValueError(f"first_replica must be >= 0, got {first_replica}")
    engine = resolve_engine(engine)
    scenario = as_scenario(scenario, config.n)
    settle = scenario.settle_round(max_rounds) if scenario is not None else 0
    start_round = 0
    resumed = None
    if checkpoint is not None:
        resumed = checkpoint.begin("simulate_ensemble", _ensemble_signature(
            protocol, config, max_rounds, rng, replicas, engine, scenario,
            first_replica,
        ))
        if resumed is not None and resumed.complete:
            return decode_times(resumed.payload["times"])
    # Per-replica keys are derived from the generator's *entry* state —
    # before any resumed-state restore — so a resumed run re-derives the
    # identical keys from the same seed.  The engines never touch the
    # generator afterwards; the stored bit-generator state is then simply
    # the post-derivation state, constant across the whole run.
    keys = replica_keys(rng, first_replica + replicas)[first_replica:]
    target = config.target_count
    if resumed is not None:
        counts = np.asarray(resumed.payload["counts"], dtype=np.int64)
        times = decode_times(resumed.payload["times"])
        active = np.asarray(resumed.payload["active"], dtype=bool)
        start_round = int(resumed.round)
        rng.bit_generator.state = resumed.rng_state
    else:
        counts = np.full(replicas, config.x0, dtype=np.int64)
        times = np.full(replicas, np.nan)
        active = np.ones(replicas, dtype=bool)
        if scenario is None:
            newly_done = counts == target
        elif settle <= 0:
            newly_done = counts == scenario_target(scenario, 0, config.z)
        else:
            # The world has scheduled hostility ahead: nothing may retire
            # before the settle round.
            newly_done = np.zeros(replicas, dtype=bool)
        times[newly_done] = 0.0
        active &= ~newly_done
    scenario_events: dict = {}
    if scenario is not None:
        for event_round, kind in scenario.events(max_rounds):
            if event_round in scenario_events:
                scenario_events[event_round] += "+" + kind
            else:
                scenario_events[event_round] = kind
    recording = recorder.enabled
    if recording:
        params = dict(
            n=config.n, z=config.z, x0=config.x0,
            max_rounds=max_rounds, replicas=replicas, engine=engine,
        )
        if first_replica:
            params["first_replica"] = first_replica
        if scenario is not None:
            params["scenario"] = scenario.spec()
            params["settle_round"] = settle
        if resumed is not None:
            params["resumed_from"] = start_round
            params["resumed_count"] = float(counts.mean())
        recorder.run_started(
            run_provenance("simulate_ensemble", protocol, rng, **params)
        )
    final_round = start_round
    armed = faults.armed()
    with span(recorder, "ensemble") as timing:
        for t in range(start_round + 1, max_rounds + 1):
            if not active.any():
                break
            if scenario is not None:
                if engine == "batched":
                    counts[active] = scenario_step_counts(
                        protocol, scenario, config.z, counts[active],
                        keys[active], t, recorder,
                    )
                else:  # loop
                    for j in np.nonzero(active)[0]:
                        counts[j] = scenario_step_count(
                            protocol, scenario, config.z, int(counts[j]),
                            keys[j], t, recorder,
                        )
                if t >= settle:
                    round_target = scenario_target(scenario, t, config.z)
                    newly_done = active & (counts == round_target)
                else:
                    newly_done = np.zeros(replicas, dtype=bool)
            else:
                if engine == "batched":
                    counts[active] = step_counts_keyed(
                        protocol, config.n, config.z, counts[active],
                        keys[active], t, recorder,
                    )
                else:  # loop
                    for j in np.nonzero(active)[0]:
                        counts[j] = step_count_keyed(
                            protocol, config.n, config.z, int(counts[j]),
                            keys[j], t, recorder,
                        )
                newly_done = active & (counts == target)
            times[newly_done] = float(t)
            active &= ~newly_done
            final_round = t
            if recording:
                extra = {
                    "active": int(active.sum()),
                    "newly_converged": int(newly_done.sum()),
                }
                if scenario is not None:
                    if t in scenario_events:
                        extra["scenario_event"] = scenario_events[t]
                    population = scenario.population(t)
                    if population != config.n:
                        extra["population"] = population
                recorder.round_recorded(t, float(counts.mean()), extra)
            if armed:
                # One visit per replica that converged this round, so
                # REPRO_FAULT=ensemble:after_replica:k kills the process
                # the moment the k-th replica completes.
                for _ in range(int(newly_done.sum())):
                    faults.crashpoint("ensemble:after_replica")
            if checkpoint is not None:
                stop = checkpoint.should_stop()
                if stop or checkpoint.due(t):
                    checkpoint.save(
                        "simulate_ensemble", t, rng,
                        _ensemble_payload(counts, times, active),
                    )
                    if armed:
                        faults.crashpoint("ensemble:after_checkpoint")
                if stop:
                    censored = int(np.isnan(times).sum())
                    _graceful_exit(
                        checkpoint, recording, recorder,
                        {"interrupted": True, "converged": replicas - censored,
                         "censored": censored, "final_round": t,
                         "resumable_at": t},
                    )
            if armed:
                faults.crashpoint("ensemble:after_round")
        if recording:
            timing.incr("rounds", final_round)
    if checkpoint is not None:
        checkpoint.finish(
            "simulate_ensemble", final_round, rng,
            {"times": encode_times(times)},
        )
    if recording:
        censored = int(np.isnan(times).sum())
        summary = {
            "converged": replicas - censored,
            "censored": censored,
            "final_round": final_round,
        }
        if scenario is not None:
            summary["scenario"] = scenario.spec()
            summary["settle_round"] = settle
            summary.update(recovery_summary(times, settle))
        recorder.run_finished(summary)
    return times


def _ensemble_signature(
    protocol, config, max_rounds, rng, replicas, engine, scenario=None,
    first_replica=0,
) -> str:
    """The checkpoint signature of one :func:`simulate_ensemble` call.

    Taken with ``rng`` at the call's entry state, whose hash pins the seed.
    It keys on the resolved engine name, so a checkpoint resumes only
    under the engine that wrote it, although ``loop`` and ``batched``
    draw the same bits.  The scenario spec joins only when one is
    active.  The
    supervisor computes each shard's signature with this function to
    refuse a foreign shard checkpoint before it forks.
    """
    params = dict(
        n=config.n, z=config.z, x0=config.x0, max_rounds=max_rounds,
        replicas=replicas, first_replica=first_replica, engine=engine,
        entry_state=rng_provenance(rng)["state_hash"],
    )
    if scenario is not None:
        params["scenario"] = scenario.spec()
    return run_signature("simulate_ensemble", protocol, rng, **params)


def recovery_summary(times: np.ndarray, settle: int) -> dict:
    """Recovery-time percentiles over the converged replicas.

    ``recovery = tau - settle_round`` per converged replica (censored ones
    are excluded — the censor-aware statistics live in
    :func:`repro.analysis.ensemble.summarize_recovery`).  Returned as
    JSON-safe scalars for ``run_end`` trace records.
    """
    recovery = np.asarray(times, dtype=float) - float(settle)
    finite = recovery[np.isfinite(recovery)]
    out = {"recovered": int(finite.size)}
    if finite.size:
        out["recovery_mean"] = float(finite.mean())
        out["recovery_p50"] = float(np.quantile(finite, 0.5, method="lower"))
        out["recovery_p90"] = float(np.quantile(finite, 0.9, method="lower"))
    return out


def _ensemble_payload(counts, times, active) -> dict:
    return {
        "counts": [int(v) for v in counts],
        "times": encode_times(times),
        "active": [bool(v) for v in active],
    }


def escape_time(
    protocol: Protocol,
    certificate: "LowerBoundCertificate",
    n: int,
    max_rounds: int,
    rng: np.random.Generator,
    recorder: Recorder = NULL_RECORDER,
) -> Optional[int]:
    """Rounds until the chain first crosses the certificate's escape threshold.

    Starts from the Theorem-12 witness configuration; the returned time
    lower-bounds the convergence time (the chain must cross the threshold to
    reach the correct consensus).  Returns ``None`` if the threshold was not
    crossed within ``max_rounds`` — for the lower-bound experiment a censored
    run is a *success* (the escape took even longer than the budget).
    """
    config = certificate.witness_configuration(n)
    recording = recorder.enabled
    if recording:
        recorder.run_started(
            run_provenance(
                "escape_time", protocol, rng,
                n=n, z=config.z, x0=config.x0, max_rounds=max_rounds,
                threshold=int(certificate.escape_threshold(n)),
                escape_is_upward=bool(certificate.escape_is_upward),
            )
        )
    x = config.x0
    escaped_at: Optional[int] = None
    if certificate.has_escaped(n, x):
        escaped_at = 0
    else:
        with span(recorder, "escape") as timing:
            for t in range(1, max_rounds + 1):
                x = step_count(protocol, n, config.z, x, rng, recorder)
                if recording:
                    recorder.round_recorded(t, x)
                if certificate.has_escaped(n, x):
                    escaped_at = t
                    break
            if recording:
                timing.incr(
                    "rounds", escaped_at if escaped_at is not None else max_rounds
                )
    if recording:
        recorder.run_finished(
            {"escaped": escaped_at is not None, "rounds": escaped_at, "final_count": x}
        )
    return escaped_at


def escape_time_ensemble(
    protocol: Protocol,
    certificate: "LowerBoundCertificate",
    n: int,
    max_rounds: int,
    rng: np.random.Generator,
    replicas: int,
    recorder: Recorder = NULL_RECORDER,
) -> np.ndarray:
    """Escape times of many independent witness runs, advanced in lock-step.

    Vectorized analogue of :func:`escape_time`: returns a float array with
    ``nan`` for replicas whose threshold was not crossed within the budget
    (which, for the lower-bound experiment, is a success).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    config = certificate.witness_configuration(n)
    threshold = certificate.escape_threshold(n)
    recording = recorder.enabled
    if recording:
        recorder.run_started(
            run_provenance(
                "escape_time_ensemble", protocol, rng,
                n=n, z=config.z, x0=config.x0, max_rounds=max_rounds,
                replicas=replicas, threshold=int(threshold),
                escape_is_upward=bool(certificate.escape_is_upward),
            )
        )
    counts = np.full(replicas, config.x0, dtype=np.int64)
    times = np.full(replicas, np.nan)
    active = np.ones(replicas, dtype=bool)

    def escaped(values: np.ndarray) -> np.ndarray:
        if certificate.escape_is_upward:
            return values >= threshold
        return values <= threshold

    done = escaped(counts)
    times[done] = 0.0
    active &= ~done
    final_round = 0
    with span(recorder, "escape_ensemble") as timing:
        for t in range(1, max_rounds + 1):
            if not active.any():
                break
            counts[active] = step_counts_batch(
                protocol, n, config.z, counts[active], rng, recorder
            )
            done = active & escaped(counts)
            times[done] = float(t)
            active &= ~done
            final_round = t
            if recording:
                recorder.round_recorded(
                    t,
                    float(counts.mean()),
                    {"active": int(active.sum()), "newly_converged": int(done.sum())},
                )
        if recording:
            timing.incr("rounds", final_round)
    if recording:
        censored = int(np.isnan(times).sum())
        recorder.run_finished(
            {
                "escaped": replicas - censored,
                "censored": censored,
                "final_round": final_round,
            }
        )
    return times


def time_to_leave_consensus(
    protocol: Protocol,
    n: int,
    z: int,
    max_rounds: int,
    rng: np.random.Generator,
    recorder: Recorder = NULL_RECORDER,
) -> Optional[int]:
    """Rounds until the population first *leaves* the correct consensus.

    Used to demonstrate Proposition 3's necessity: when ``g[0](0) > 0`` (or
    symmetrically ``g[1](ell) < 1``), each round at consensus breaks it with
    probability ``1 - (1 - g)**(n-1)``, so the consensus decays geometrically
    fast.  Returns ``None`` when the consensus survived the budget (the
    expected outcome for Proposition-3-compliant protocols, for which the
    consensus is absorbing and the function short-circuits to ``None``).
    """
    if protocol.satisfies_boundary_conditions(tolerance=1e-12):
        return None
    recording = recorder.enabled
    if recording:
        recorder.run_started(
            run_provenance(
                "time_to_leave_consensus", protocol, rng,
                n=n, z=z, x0=n * z, max_rounds=max_rounds,
            )
        )
    target = n * z
    x = target
    left_at: Optional[int] = None
    with span(recorder, "leave_consensus") as timing:
        for t in range(1, max_rounds + 1):
            x = step_count(protocol, n, z, x, rng, recorder)
            if recording:
                recorder.round_recorded(t, x)
            if x != target:
                left_at = t
                break
        if recording:
            timing.incr("rounds", left_at if left_at is not None else max_rounds)
    if recording:
        recorder.run_finished(
            {"left": left_at is not None, "rounds": left_at, "final_count": x}
        )
    return left_at


def _as_array(trajectory) -> Optional[np.ndarray]:
    if trajectory is None:
        return None
    return np.asarray(trajectory, dtype=np.int64)
