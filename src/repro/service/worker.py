"""Job execution: what one service worker process actually runs.

A worker is a forked child that executes exactly one job attempt through
the repository's existing durability machinery and then exits with a
taxonomy code (:mod:`repro.execution.shutdown`):

- the ensemble runs through :func:`repro.analysis.ensemble.
  convergence_ensemble` with a :class:`~repro.execution.checkpoint.
  Checkpointer` rooted in the job's directory, so a re-dispatched attempt
  *resumes* from the previous attempt's checkpoint — bit-identical to an
  uninterrupted run, never recomputed from scratch;
- progress is published through a :class:`~repro.telemetry.heartbeat.
  HeartbeatRecorder` at ``<jobdir>/job.heartbeat.json`` — the service's
  watchdog (and ``repro watch``) read staleness off that file;
- the result is published atomically (``result.json.tmp`` → fsync →
  rename) and stamped with the attempt number, so a half-written result
  can never be adopted and a stale one can never be double-counted.

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
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro import storage
__all__ = [
    "RESULT_NAME",
    "SpecError",
    "validate_spec",
    "execute_job",
    "job_worker_main",
    "result_path",
    "read_result",
    "job_trace_path",
]

RESULT_NAME = "result.json"

_KINDS = ("run", "ensemble", "sweep")
_SWEEP_PARAMS = ("n", "z", "x0", "replicas", "max_rounds", "seed")


class SpecError(ValueError):
    """A job submission that cannot be executed (bad kind, sizes, sweep)."""


def validate_spec(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize and validate a job submission payload.

    Returns a plain-JSON dict with every field the worker needs, defaults
    applied.  Raises :class:`SpecError` with a message suitable for a 400
    response on anything malformed — validation happens at submit time so
    the queue never holds a job that is doomed to fail parsing.
    """
    if not isinstance(payload, dict):
        raise SpecError("job spec must be a JSON object")
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
    except (TypeError, ValueError) as exc:
        raise SpecError(f"non-integer job parameter: {exc}") from exc
    if spec["n"] <= 0 or spec["replicas"] <= 0 or spec["max_rounds"] <= 0:
        raise SpecError("n, replicas, and max_rounds must be positive")
    if kind == "run" and spec["replicas"] != 1:
        raise SpecError("kind 'run' is a single replica; use kind 'ensemble'")
    x0 = payload.get("x0")
    spec["x0"] = None if x0 is None else int(x0)
    engine = payload.get("engine")
    spec["engine"] = None if engine is None else str(engine)
    scenario = payload.get("scenario")
    spec["scenario"] = None if scenario is None else str(scenario)
    trace = payload.get("trace")
    if trace not in (None, "jsonl", "columnar"):
        raise SpecError(f"trace must be 'jsonl' or 'columnar', got {trace!r}")
    spec["trace"] = trace
    spec["heartbeat_every_s"] = float(payload.get("heartbeat_every_s", 1.0))
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
        spec["sweep"] = {"param": str(param), "values": [int(v) for v in values]}
    return spec


def result_path(jobdir) -> Path:
    return Path(jobdir) / RESULT_NAME


def job_trace_path(jobdir, spec: Dict[str, Any]) -> Optional[Path]:
    """Where this job's trace lives, or ``None`` when tracing is off."""
    fmt = spec.get("trace")
    if fmt is None:
        return None
    suffix = "rcol" if fmt == "columnar" else "jsonl"
    return Path(jobdir) / f"trace.{suffix}"


def read_result(jobdir, *, attempt: Optional[int] = None) -> Optional[Dict[str, Any]]:
    """The job's published result, or ``None`` if absent/torn/stale.

    ``attempt`` (when given) must match the attempt stamped into the
    result: a result left behind by attempt 1 is never adopted as the
    outcome of attempt 2.
    """
    path = result_path(jobdir)
    try:
        payload = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    if attempt is not None and payload.get("attempt") != attempt:
        return None
    return payload


def _build_config(spec: Dict[str, Any], n: int):
    from repro.dynamics.config import Configuration, wrong_consensus_configuration

    z = spec["z"]
    low, high = Configuration.count_bounds(n, z)
    x0 = spec.get("x0")
    if x0 is None:
        x0 = wrong_consensus_configuration(n, z).x0
    return Configuration(n=n, z=z, x0=min(max(int(x0), low), high))


def _run_ensemble(spec: Dict[str, Any], jobdir: Path, *, recorder, seed: int,
                  n: int, replicas: int, max_rounds: int,
                  checkpoint_suffix: str = "") -> Dict[str, Any]:
    from repro.analysis.ensemble import convergence_ensemble
    from repro.cli import resolve_protocol
    from repro.dynamics.rng import make_rng
    from repro.execution.checkpoint import Checkpointer

    protocol = resolve_protocol(spec["protocol"], n)
    config = _build_config(spec, n)
    ckpt_path = jobdir / f"job{checkpoint_suffix}.ckpt"
    resumed = ckpt_path.exists()
    checkpoint = Checkpointer(ckpt_path, every=spec["checkpoint_every"])
    stats = convergence_ensemble(
        protocol,
        config,
        max_rounds,
        make_rng(seed),
        replicas,
        recorder=recorder,
        checkpoint=checkpoint,
        engine=spec.get("engine"),
        scenario=spec.get("scenario"),
    )
    return {"stats": dataclasses.asdict(stats), "resumed": resumed}


def execute_job(spec: Dict[str, Any], jobdir, *, attempt: int = 1) -> Dict[str, Any]:
    """Run one job attempt and return its result payload (pure compute).

    The heavy imports live inside so that merely importing the service
    package stays cheap; the trace writer (when the spec asks for one) and
    the heartbeat recorder compose exactly like the CLI's observability
    plumbing.
    """
    from repro.telemetry import compose_recorders
    from repro.telemetry.heartbeat import HeartbeatRecorder, heartbeat_path

    jobdir = Path(jobdir)
    jobdir.mkdir(parents=True, exist_ok=True)
    recorders = [
        HeartbeatRecorder(
            heartbeat_path(jobdir / "job"),
            role="job",
            attempt=attempt,
            interval_s=spec.get("heartbeat_every_s", 1.0),
        )
    ]
    trace_target = job_trace_path(jobdir, spec)
    trace_writer = None
    if trace_target is not None:
        from repro.telemetry.columnar import open_trace_writer

        trace_writer = open_trace_writer(trace_target, spec["trace"])
        recorders.append(trace_writer)
    recorder = compose_recorders(*recorders)
    try:
        result: Dict[str, Any] = {"kind": spec["kind"], "attempt": attempt}
        if spec["kind"] in ("run", "ensemble"):
            out = _run_ensemble(
                spec, jobdir, recorder=recorder, seed=spec["seed"],
                n=spec["n"], replicas=spec["replicas"],
                max_rounds=spec["max_rounds"],
            )
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
            for index, value in enumerate(spec["sweep"]["values"]):
                overrides = {
                    "n": spec["n"], "replicas": spec["replicas"],
                    "max_rounds": spec["max_rounds"],
                    "seed": spec["seed"] + index,
                }
                point_spec = dict(spec)
                if param in ("n", "z", "x0"):
                    point_spec[param] = value
                else:
                    overrides[param] = value
                if param == "seed":
                    overrides["seed"] = value
                out = _run_ensemble(
                    point_spec, jobdir, recorder=recorder,
                    seed=overrides["seed"], n=point_spec["n"],
                    replicas=overrides["replicas"],
                    max_rounds=overrides["max_rounds"],
                    checkpoint_suffix=f".point{index}",
                )
                resumed_any = resumed_any or out["resumed"]
                points.append({param: value, "stats": out["stats"]})
            result["points"] = points
            result["resumed"] = resumed_any
        return result
    finally:
        if trace_writer is not None:
            trace_writer.close()


def job_worker_main(spec: Dict[str, Any], jobdir: str, attempt: int) -> None:
    """Child-process entry point: run the attempt, publish, exit by taxonomy.

    The ``REPRO_FAULT`` crashpoints of this PR target the *server* (journal
    commits, compaction, dispatch) — a forked worker strips the fault spec
    so a server-aimed fault can never fire inside a job and masquerade as a
    compute failure.
    """
    import sys

    from repro.execution import faults
    from repro.execution.shutdown import EXIT_ERROR, EXIT_OK

    os.environ.pop(faults.FAULT_ENV_VAR, None)
    faults.reset()
    try:
        payload = execute_job(spec, jobdir, attempt=attempt)
        text = json.dumps(payload, sort_keys=True)
        storage.publish(result_path(Path(jobdir)), text.encode())
    except Exception as exc:  # the exit code *is* the error channel
        print(f"repro-service worker: {exc}", file=sys.stderr)
        sys.stderr.flush()
        os._exit(EXIT_ERROR)
    os._exit(EXIT_OK)
