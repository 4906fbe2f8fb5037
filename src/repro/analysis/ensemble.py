"""Ensembles of independent runs and their convergence-time statistics.

Every quantitative experiment reduces to "run the chain many times from a
configuration and summarize tau": this module owns the summary.  Censoring
is first-class — lower-bound experiments *expect* runs to exhaust their
budget, and a censored run is then evidence, not noise — so statistics are
reported with explicit censored counts, and quantiles of censored samples
are lower bounds (computed by treating censored values as ``+inf``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.protocol import Protocol
from repro.dynamics.config import Configuration
from repro.dynamics.run import simulate_ensemble
from repro.telemetry import NULL_RECORDER, Recorder, span

__all__ = [
    "ConvergenceStats",
    "summarize_times",
    "summarize_recovery",
    "convergence_ensemble",
]


@dataclass(frozen=True)
class ConvergenceStats:
    """Summary of an ensemble of convergence times.

    Attributes:
        trials: ensemble size (trials actually summarized).
        censored: runs that did not converge within the budget.
        budget: the round budget (``None`` if not applicable).
        median: median time; ``inf`` when over half the runs were censored
            (then the median itself is only known to exceed the budget).
        q10, q90: decile and 90th percentile with the same convention.
        mean_converged: mean over the *converged* runs only (``nan`` if none).
        min, max_converged: extremes over converged runs (``nan`` if none).
        failed_shards: shards a supervised ensemble lost past its retry
            budget (0 for serial ensembles).  Mirrors the censoring
            philosophy: a lost shard is reported, never silently dropped.
        attempted_trials: replicas the caller asked for, including those
            on lost shards (``== trials`` when nothing was lost).  The
            dataclass repr surfaces both fields, so degraded statistics
            are visible anywhere the stats are printed or logged.
    """

    trials: int
    censored: int
    budget: Optional[int]
    median: float
    q10: float
    q90: float
    mean_converged: float
    min: float
    max_converged: float
    failed_shards: int = 0
    attempted_trials: Optional[int] = None

    def __post_init__(self) -> None:
        if self.attempted_trials is None:
            object.__setattr__(self, "attempted_trials", self.trials)

    @property
    def success_rate(self) -> float:
        return 1.0 - self.censored / self.trials

    @property
    def degraded(self) -> bool:
        """True when the underlying ensemble lost shards (partial results)."""
        return self.failed_shards > 0

    @property
    def lost_trials(self) -> int:
        """Replicas that were attempted but lost with their shard."""
        return int(self.attempted_trials) - self.trials

    def quantile_is_lower_bound(self, q: float) -> bool:
        """True when the ``q``-quantile is censored (only a lower bound)."""
        return self.censored > (1.0 - q) * self.trials


def summarize_times(
    times: np.ndarray,
    budget: Optional[int] = None,
    *,
    failed_shards: int = 0,
    attempted_trials: Optional[int] = None,
) -> ConvergenceStats:
    """Summarize an array of times with ``nan`` marking censored runs.

    ``times`` holds only trials that actually ran to a verdict: a ``nan``
    entry is a *censored* trial (it ran out of budget — evidence), which is
    different from a *lost* trial (its shard died past the supervisor's
    retry budget — absence of evidence).  Lost trials therefore never
    appear in ``times``; supervised callers report them via the
    ``failed_shards`` / ``attempted_trials`` keywords, which are carried
    through to the :class:`ConvergenceStats` (and from there into
    ``repro report --json``, where the perf gate refuses baselines built
    from degraded ensembles).
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must be non-empty")
    censored = int(np.isnan(times).sum())
    padded = np.where(np.isnan(times), np.inf, times)
    converged = times[~np.isnan(times)]
    return ConvergenceStats(
        trials=len(times),
        censored=censored,
        budget=budget,
        # Order-statistic quantiles: linear interpolation against the inf of
        # a censored run would produce nan, and "lower" matches the
        # lower-bound reading of censored quantiles anyway.
        median=float(np.quantile(padded, 0.5, method="lower")),
        q10=float(np.quantile(padded, 0.1, method="lower")),
        q90=float(np.quantile(padded, 0.9, method="lower")),
        mean_converged=float(converged.mean()) if len(converged) else float("nan"),
        min=float(converged.min()) if len(converged) else float("nan"),
        max_converged=float(converged.max()) if len(converged) else float("nan"),
        failed_shards=int(failed_shards),
        attempted_trials=attempted_trials,
    )


def summarize_recovery(
    times: np.ndarray,
    settle: int,
    budget: Optional[int] = None,
    *,
    failed_shards: int = 0,
    attempted_trials: Optional[int] = None,
) -> ConvergenceStats:
    """Summarize recovery times: rounds past the scenario's settle round.

    Under a hostile scenario the engine refuses to declare convergence
    before the perturbation schedule settles (the source told its last lie,
    the opinion flipped for the last time — ``Scenario.settle_round``), so
    every finite entry of ``times`` is ``>= settle``.  The *recovery time*
    is ``tau - settle``: how long the population needs to re-converge once
    the world stops moving.  This shifts the samples and the budget by
    ``settle`` and reuses :func:`summarize_times`, so censoring semantics
    (``nan`` = ran out of budget, lower-bound quantiles) carry over
    unchanged.  With ``settle == 0`` (e.g. the null scenario) this is
    exactly :func:`summarize_times`.
    """
    times = np.asarray(times, dtype=float)
    finite = times[np.isfinite(times)]
    if finite.size and float(finite.min()) < settle:
        raise ValueError(
            f"convergence time {finite.min()} precedes settle round {settle}; "
            "these times were not produced under the scenario's settle gate"
        )
    return summarize_times(
        times - float(settle),
        budget=None if budget is None else budget - settle,
        failed_shards=failed_shards,
        attempted_trials=attempted_trials,
    )


def convergence_ensemble(
    protocol: Protocol,
    config: Configuration,
    max_rounds: int,
    rng: np.random.Generator,
    replicas: int,
    recorder: Recorder = NULL_RECORDER,
    checkpoint=None,
    engine=None,
    scenario=None,
) -> ConvergenceStats:
    """Run ``replicas`` independent chains and summarize their ``tau``.

    ``scenario`` (a spec string, :class:`~repro.dynamics.config.
    ScenarioConfig`, or built :class:`~repro.dynamics.scenarios.Scenario`)
    runs the ensemble in a hostile world; it is forwarded verbatim to the
    runner, so the summarized times obey the scenario's settle gate.  Use
    :func:`summarize_recovery` on the raw times when recovery statistics
    (time past the settle round) are wanted instead of absolute ``tau``.

    ``engine`` selects the stepping backend and is forwarded verbatim
    (``"loop"`` | ``"batched"``; ``None`` means the default
    ``"batched"`` — see docs/ENGINES.md).
    Because the statistics are a pure function of the replica times, the
    loop-vs-batched bit-identity of :func:`~repro.dynamics.run.
    simulate_ensemble` lifts to the returned :class:`ConvergenceStats`:
    ``engine="loop"`` and ``engine="batched"`` yield field-wise identical
    dataclasses for the same seed.

    ``recorder`` is forwarded to :func:`repro.dynamics.run.simulate_ensemble`
    (one record per lock-step round; see docs/OBSERVABILITY.md).  The whole
    call is timed as a ``convergence_ensemble`` telemetry span, with the
    runner's own ``ensemble`` span and the summary step nested inside it.

    ``checkpoint`` (a :class:`repro.execution.Checkpointer`) is forwarded
    too: because the statistics are a pure function of the replica times,
    an ensemble killed at any point and resumed from its checkpoint yields
    **bit-identical** ``ConvergenceStats`` to an uninterrupted run.

    The supervised counterpart is :func:`repro.execution.supervisor.
    summarize_supervised` over :func:`repro.execution.supervisor.
    run_supervised_ensemble`: its shards run slices of this call's keyed
    streams, so its statistics match these field for field at any
    ``workers`` and ``shards``, loss accounting (``failed_shards`` /
    ``attempted_trials``) aside.
    """
    with span(recorder, "convergence_ensemble") as timing:
        times = simulate_ensemble(
            protocol, config, max_rounds, rng, replicas, recorder,
            checkpoint=checkpoint, engine=engine, scenario=scenario,
        )
        with span(recorder, "summarize"):
            stats = summarize_times(times, budget=max_rounds)
        if recorder.enabled:
            timing.incr("replicas", replicas)
    return stats
