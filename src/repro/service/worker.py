"""Job execution: what one service worker process actually runs.

:func:`execute_job` is the work of one job attempt, run in a
:class:`~repro.execution.pool.WorkerPool` worker that publishes its
result atomically, stamped with the attempt number (a half-written result
is never adopted, a stale one never double-counted).  The ensemble runs
through :func:`repro.analysis.ensemble.convergence_ensemble` with
checkpoints in the job's directory, opened by
:func:`~repro.execution.pool.open_checkpoint`: a re-dispatched attempt
*resumes* its predecessor's checkpoint, bit-identical to an uninterrupted
run.  Progress goes to ``<jobdir>/job.heartbeat.json``, which the pool's
watchdog (and ``repro watch``) read staleness off.

Job specs (validated by :func:`validate_spec`) come in three kinds:

- ``run``: a single replica; the result carries its convergence time.
- ``ensemble``: ``replicas`` independent chains, summarized as
  :class:`~repro.analysis.ensemble.ConvergenceStats`.
- ``sweep``: one ensemble per value of ``sweep["param"]`` over
  ``sweep["values"]``, each on a deterministically derived seed
  (``seed + index``) so the whole sweep is reproducible from the spec.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.execution import pool
from repro.telemetry.heartbeat import heartbeat_path

__all__ = [
    "RESULT_NAME",
    "SpecError",
    "validate_spec",
    "execute_job",
    "result_path",
    "job_trace_path",
]

RESULT_NAME = "result.json"

_KINDS = ("run", "ensemble", "sweep")
_SWEEP_PARAMS = ("n", "z", "x0", "replicas", "max_rounds", "seed")
# The fields of docs/SERVICE.md's "Job specs" table: anything else is refused.
_SPEC_KEYS = frozenset((
    "kind", "protocol", "n", "z", "x0", "replicas", "max_rounds", "seed",
    "engine", "scenario", "checkpoint_every", "trace", "heartbeat_every_s",
    "sweep",
))


class SpecError(ValueError):
    """A job submission that cannot run (a malformed or unbuildable field)."""


def validate_spec(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize and validate a job submission payload.

    Returns a plain-JSON dict with every field the worker needs, defaults
    applied.  Raises :class:`SpecError` with a message suitable for a 400
    response on anything malformed or unknown — validation happens at
    submit time so the queue never holds a job that is doomed to fail
    parsing (or that would run a mistyped field with its default).  That
    includes building what the worker builds: the engine, and the
    protocol, configuration and scenario at every point a sweep runs
    (protocols and scenario defaults depend on ``n``).
    """
    if not isinstance(payload, dict):
        raise SpecError("job spec must be a JSON object")
    unknown = sorted(set(payload) - _SPEC_KEYS)
    if unknown:
        raise SpecError(f"unknown job spec keys {unknown}")
    kind = payload.get("kind", "ensemble")
    if kind not in _KINDS:
        raise SpecError(f"unknown job kind {kind!r} (expected one of {_KINDS})")
    spec: Dict[str, Any] = {"kind": kind}
    spec["protocol"] = str(payload.get("protocol", "minority-3"))
    try:
        spec["n"] = int(payload.get("n", 100))
        spec["z"] = int(payload.get("z", 1))
        spec["max_rounds"] = int(payload.get("max_rounds", 10_000))
        spec["seed"] = int(payload.get("seed", 0))
        spec["replicas"] = int(payload.get("replicas", 1 if kind == "run" else 10))
        spec["checkpoint_every"] = int(payload.get("checkpoint_every", 25))
        x0 = payload.get("x0")
        spec["x0"] = None if x0 is None else int(x0)
        heartbeat_every_s = float(payload.get("heartbeat_every_s", 1.0))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"non-numeric job parameter: {exc}") from exc
    if kind == "run" and spec["replicas"] != 1:
        raise SpecError("kind 'run' is a single replica; use kind 'ensemble'")
    engine = payload.get("engine")
    spec["engine"] = None if engine is None else str(engine)
    scenario = payload.get("scenario")
    spec["scenario"] = None if scenario is None else str(scenario)
    trace = payload.get("trace")
    if trace not in (None, "jsonl", "columnar"):
        raise SpecError(f"trace must be 'jsonl' or 'columnar', got {trace!r}")
    spec["trace"] = trace
    spec["heartbeat_every_s"] = heartbeat_every_s
    if kind == "sweep":
        sweep = payload.get("sweep")
        if not isinstance(sweep, dict):
            raise SpecError("kind 'sweep' requires a 'sweep' object")
        param = sweep.get("param")
        values = sweep.get("values")
        if param not in _SWEEP_PARAMS:
            raise SpecError(
                f"sweep param {param!r} not in {_SWEEP_PARAMS}"
            )
        if not isinstance(values, list) or not values:
            raise SpecError("sweep.values must be a non-empty list")
        try:
            spec["sweep"] = {"param": str(param), "values": [int(v) for v in values]}
        except (TypeError, ValueError) as exc:
            raise SpecError(f"non-integer sweep value: {exc}") from exc
    _check_runnable(spec)
    return spec


def _check_runnable(spec: Dict[str, Any]) -> None:
    """Refuse a job that cannot run, naming the cause.

    Checks the sizes and builds the engine and, at every point the job
    runs, what :func:`_build` builds for it.
    """
    from repro.dynamics.batched import resolve_engine

    sizes = ("n", "replicas", "max_rounds", "checkpoint_every")
    try:
        resolve_engine(spec["engine"])
        for point in _points(spec):
            if min(point[size] for size in sizes) <= 0:
                raise ValueError(", ".join(sizes) + " must be positive")
            protocol, _, _ = _build(point)
            if not protocol.satisfies_boundary_conditions(tolerance=1e-12):
                raise ValueError(
                    f"protocol {protocol.name!r} violates Proposition 3; "
                    "its convergence time is infinite"
                )
    except (KeyError, ValueError) as exc:
        # KeyError's str() wraps the message in quotes; unwrap it.
        raise SpecError(exc.args[0] if exc.args else str(exc)) from exc


def _points(spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The ensembles a job runs: its own, or one per sweep value.

    Each sweep point runs on ``seed + index`` unless the sweep is over the
    seed itself.
    """
    if spec["kind"] != "sweep":
        return [spec]
    param = spec["sweep"]["param"]
    points = []
    for index, value in enumerate(spec["sweep"]["values"]):
        point = dict(spec, seed=spec["seed"] + index)
        point[param] = value
        points.append(point)
    return points


def result_path(jobdir) -> Path:
    return Path(jobdir) / RESULT_NAME


def job_trace_path(jobdir, spec: Dict[str, Any]) -> Optional[Path]:
    """Where this job's trace lives, or ``None`` when tracing is off."""
    fmt = spec.get("trace")
    if fmt is None:
        return None
    suffix = "rcol" if fmt == "columnar" else "jsonl"
    return Path(jobdir) / f"trace.{suffix}"


def _build_config(spec: Dict[str, Any]):
    from repro.dynamics.config import Configuration, wrong_consensus_configuration

    n, z = spec["n"], spec["z"]
    low, high = Configuration.count_bounds(n, z)
    x0 = spec.get("x0")
    if x0 is None:
        x0 = wrong_consensus_configuration(n, z).x0
    return Configuration(n=n, z=z, x0=min(max(int(x0), low), high))


def _build(spec: Dict[str, Any]):
    """The protocol, configuration and scenario one ensemble of a job runs."""
    from repro.cli import resolve_protocol
    from repro.dynamics.scenarios import as_scenario

    return (
        resolve_protocol(spec["protocol"], spec["n"]),
        _build_config(spec),
        as_scenario(spec.get("scenario"), spec["n"]),
    )


def _run_ensemble(spec: Dict[str, Any], jobdir: Path, *, recorder,
                  checkpoint_suffix: str = "") -> Dict[str, Any]:
    from repro.analysis.ensemble import convergence_ensemble
    from repro.dynamics.rng import make_rng

    protocol, config, scenario = _build(spec)
    checkpoint = pool.open_checkpoint(
        jobdir / f"job{checkpoint_suffix}.ckpt", spec["checkpoint_every"]
    )
    stats = convergence_ensemble(
        protocol,
        config,
        spec["max_rounds"],
        make_rng(spec["seed"]),
        spec["replicas"],
        recorder=recorder,
        checkpoint=checkpoint,
        engine=spec.get("engine"),
        scenario=scenario,
    )
    return {
        "stats": dataclasses.asdict(stats),
        "resumed": checkpoint.resume_state is not None,
    }


def execute_job(spec: Dict[str, Any], jobdir, *, attempt: int = 1) -> Dict[str, Any]:
    """Run one job attempt and return its result payload (pure compute).

    The trace (when the spec asks for one) and the heartbeat are a
    :class:`~repro.execution.pool.Recording`, like every pool attempt's.
    """
    jobdir = Path(jobdir)
    jobdir.mkdir(parents=True, exist_ok=True)
    recording = pool.Recording(
        trace_path=job_trace_path(jobdir, spec),
        trace_format=spec.get("trace") or "jsonl",
        heartbeat_path=heartbeat_path(jobdir / "job"),
        heartbeat_every_s=spec.get("heartbeat_every_s", 1.0),
        role="job",
        attempt=attempt,
    )
    with recording.open() as recorder:
        result: Dict[str, Any] = {"kind": spec["kind"], "attempt": attempt}
        if spec["kind"] in ("run", "ensemble"):
            out = _run_ensemble(spec, jobdir, recorder=recorder)
            result.update(out)
            if spec["kind"] == "run":
                # A run is a one-replica ensemble; surface its single time.
                stats = out["stats"]
                result["tau"] = (
                    None if stats["censored"] else stats["mean_converged"]
                )
        else:
            param = spec["sweep"]["param"]
            points = []
            resumed_any = False
            for index, point in enumerate(_points(spec)):
                out = _run_ensemble(
                    point, jobdir, recorder=recorder,
                    checkpoint_suffix=f".point{index}",
                )
                resumed_any = resumed_any or out["resumed"]
                points.append({param: point[param], "stats": out["stats"]})
            result["points"] = points
            result["resumed"] = resumed_any
    return result
