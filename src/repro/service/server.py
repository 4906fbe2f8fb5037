"""The simulation service: worker pool, watchdog, recovery, and HTTP API.

:class:`Service` owns a :class:`~repro.service.jobstore.JobStore` and
drives jobs through their lifecycle with three synchronous ingredients,
all exercised from one :meth:`Service.tick` so tests can single-step the
whole machine deterministically:

- **dispatch** — starts ripe ``queued`` jobs (``not_before`` respected)
  on the :class:`~repro.execution.pool.WorkerPool` shared with the shard
  supervisor, up to ``workers`` at once.  The state is journaled *before*
  the fork (crashpoint ``service:mid_dispatch`` sits in between), so a
  crash there leaves a durable ``running`` record whose orphanhood is
  detected on restart.
- **reap** — journals the pool's classified endings: exit 0 plus an
  attempt-stamped ``result.json`` is ``done``; anything else either
  requeues with the seeded backoff of
  :func:`~repro.execution.pool.retry_delay` (keyed on the job's seed and
  id) or, past the budget, lands in ``failed`` with an
  ``execution.shutdown.EXIT_CODES`` taxonomy entry — the job error
  contract.  A worker whose heartbeat went stale (beyond
  ``stale_after_s``, the dispatch counting as the zeroth beat) is one
  such ending: the pool's watchdog killed it.

**Recovery** (:meth:`Service.recover`, run at startup) replays the same
rules against whatever a crash left behind: an active job with a
published result for its attempt is adopted as ``done`` (never re-run,
never double-counted); any other active job is orphaned — its recorded
worker pid is killed if still alive — and requeued through the seeded
backoff, so a crash-restart loop is bounded by ``max_retries``.

The HTTP layer (:class:`ServiceServer`) is the repository's one stdlib
server, :class:`repro.telemetry.prometheus.MetricsServer`, with the
service's routes, sharing the store lock with the dispatch loop.
``GET /jobs/<id>`` supports ``?wait_s=`` long-polling so clients can
stream status cheaply: it returns at the first change of the job's state
or attempt, so a client waiting for the end polls until the state is
terminal.  ``GET /jobs/<id>/trace`` tails the job's trace via
:func:`repro.analysis.watch.tail_trace_round`, live while it runs;
``/metrics`` renders :meth:`Service.metrics_text`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.execution import faults
from repro.execution.pool import WorkerPool, kill_pid, read_result, retry_delay
from repro.execution.shutdown import EXIT_CODES, EXIT_ERROR, EXIT_INTERRUPTED, EXIT_OK
from repro.service import worker
from repro.service.jobstore import (
    ACTIVE_STATES,
    JOB_STATES,
    JobStore,
    JobStoreError,
    Job,
)
from repro.service.worker import SpecError, job_trace_path, result_path, validate_spec
from repro.telemetry.heartbeat import heartbeat_path, read_heartbeat
from repro.telemetry.prometheus import (
    MetricFamily, MetricsServer, RequestHandler, heartbeat_families, render_exposition,
)

__all__ = [
    "ServiceConfig",
    "Service",
    "ServiceServer",
    "serve",
    "exit_taxonomy",
]

_EXIT_NAMES = {value: name for name, value, _ in EXIT_CODES}


def exit_taxonomy(exitcode: Optional[int], *, stalled: bool = False) -> Tuple[int, str]:
    """Map a worker's death to the ``EXIT_CODES`` taxonomy entry.

    A stalled worker (killed by the watchdog) and any signal death map to
    ``EXIT_INTERRUPTED`` — the run was cut down mid-flight, not wrong.
    A worker that exited with a known taxonomy code keeps it; anything
    else is ``EXIT_ERROR``.
    """
    if stalled or exitcode is None or exitcode < 0:
        return EXIT_INTERRUPTED, _EXIT_NAMES[EXIT_INTERRUPTED]
    if exitcode in _EXIT_NAMES:
        return exitcode, _EXIT_NAMES[exitcode]
    return EXIT_ERROR, _EXIT_NAMES[EXIT_ERROR]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for the service loop.

    Attributes:
        workers: concurrent worker processes draining the queue.
        poll_s: dispatch-loop wakeup interval while no worker runs (so
            expiring backoffs are noticed); submissions wake it at once.
        stale_after_s: heartbeat age past which a live worker is presumed
            stuck and killed (the watchdog clock); the dispatch counts as
            the worker's zeroth heartbeat.
        backoff_base_s / backoff_cap_s: the requeue delay schedule fed to
            :func:`~repro.execution.backoff.backoff_delay_s`.
        default_max_retries: failure budget for submissions that don't
            name their own.
        compact_bytes: journal size that triggers auto-compaction.
    """

    workers: int = 1
    poll_s: float = 0.05
    stale_after_s: float = 30.0
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    default_max_retries: int = 2
    compact_bytes: int = 256 * 1024


class Service:
    """The job machine: store + worker pool + recovery."""

    def __init__(self, root, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.store = JobStore(root, compact_bytes=self.config.compact_bytes)
        self.root = self.store.root
        self.pool = WorkerPool(self.config.workers)
        self._lock = threading.RLock()
        self.recover()

    # -- recovery ---------------------------------------------------------

    def recover(self) -> List[str]:
        """Reconcile journal state with reality after a (re)start.

        Returns the ids of jobs whose state changed.  Every active job is
        an orphan here (this process has no worker yet); see the module
        docstring for adoption and put-down.
        """
        changed: List[str] = []
        for job in self.store.jobs():
            if job.state not in ACTIVE_STATES:
                continue
            result = read_result(
                result_path(self.store.job_dir(job.id)), attempt=job.attempt
            )
            if result is not None:
                self.store.transition(
                    job.id, "done", result=result, worker_pid=None
                )
                changed.append(job.id)
                continue
            kill_pid(job.worker_pid)
            self._fail_or_requeue(
                job, error=f"orphaned at attempt {job.attempt} by server restart"
            )
            changed.append(job.id)
        return changed

    # -- the retry path ---------------------------------------------------

    def _fail_or_requeue(
        self,
        job: Job,
        *,
        error: str,
        exitcode: Optional[int] = None,
        stalled: bool = False,
    ) -> Job:
        retries = job.retries + 1
        delay = retry_delay(
            retries,
            job.max_retries,
            base_s=self.config.backoff_base_s,
            cap_s=self.config.backoff_cap_s,
            key=f"{job.spec.get('seed', 0)}:{job.id}",
        )
        if delay is None:
            code, name = exit_taxonomy(exitcode, stalled=stalled)
            return self.store.transition(
                job.id, "failed", retries=retries, worker_pid=None, error=error,
                exit_code=code, exit_name=name,
            )
        return self.store.transition(
            job.id, "queued", retries=retries, worker_pid=None,
            not_before=time.time() + delay, backoff_s=delay, error=error,
        )

    # -- submission / cancellation ----------------------------------------

    def submit(
        self, payload: Dict[str, Any], *, max_retries: Optional[int] = None
    ) -> Job:
        """Validate and durably enqueue a submission payload."""
        spec = validate_spec(payload)
        budget = (
            self.config.default_max_retries
            if max_retries is None
            else int(max_retries)
        )
        job = self.store.submit(spec, max_retries=budget)
        # Cut the dispatch loop's idle wait short: a job posted into a
        # free slot starts now, not at the next watchdog tick.
        self.pool.wake()
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or active job (kills its worker if one runs)."""
        with self._lock:
            job = self.store.get(job_id)
            if job.terminal:
                raise JobStoreError(
                    f"job {job_id} is already {job.state}; cannot cancel"
                )
            self.pool.kill(job_id)
            return self.store.transition(
                job_id, "cancelled", worker_pid=None, error="cancelled by client"
            )

    # -- the loop ----------------------------------------------------------

    def tick(self) -> int:
        """One synchronous step of reap (watchdog included) + dispatch.

        Returns the number of jobs whose state changed, so callers (and
        tests) can drive the machine to quiescence deterministically.
        """
        with self._lock:
            changed = self._reap()
            changed += self._dispatch_ready()
        return changed

    def _reap(self) -> int:
        endings = self.pool.reap()
        for ending in endings:
            job = self.store.get(ending.key)
            if ending.kind == "done":
                self.store.transition(
                    job.id, "done", result=ending.result, worker_pid=None, error=None
                )
            elif ending.kind == "stalled":
                self._fail_or_requeue(job, stalled=True, error=(
                    f"worker heartbeat stale beyond "
                    f"{self.config.stale_after_s}s; killed"
                ))
            else:
                self._fail_or_requeue(job, exitcode=ending.exitcode, error=(
                    f"worker exited {ending.exitcode} without a valid result"
                ))
        return len(endings)

    def _dispatch_ready(self) -> int:
        changed = 0
        now = time.time()
        for job in self.store.jobs():
            if not self.pool.free:
                break
            if job.state != "queued" or job.not_before > now:
                continue
            self._dispatch(job)
            changed += 1
        return changed

    def _dispatch(self, job: Job) -> None:
        attempt = job.attempt + 1
        # First attempts run as ``running``; re-dispatches surface as
        # ``degraded`` so the dashboard never hides a retried job.
        to = "running" if attempt == 1 else "degraded"
        self.store.transition(job.id, to, attempt=attempt, error=None)
        # The durable state says "running" but no worker exists yet — the
        # window the restart recovery path must close.
        faults.crashpoint("service:mid_dispatch")
        jobdir = self.store.job_dir(job.id)
        jobdir.mkdir(parents=True, exist_ok=True)
        pid = self.pool.start(
            job.id,
            # Looked up per dispatch: a patched ``worker.execute_job`` runs.
            partial(worker.execute_job, job.spec, str(jobdir), attempt=attempt),
            attempt=attempt,
            result_path=result_path(jobdir),
            # Server-aimed crashpoints (journal commits, compaction,
            # dispatch) must never fire inside a job and masquerade as a
            # compute failure.
            env={faults.FAULT_ENV_VAR: None},
            heartbeat_path=heartbeat_path(jobdir / "job"),
            stale_after_s=self.config.stale_after_s,
        )
        # Self-loop transition: same state, records the worker pid so a
        # later recovery can put the orphan down before requeueing.
        self.store.transition(job.id, to, worker_pid=pid)

    def _idle_wait(self) -> None:
        """Sleep until a submission, a worker exit, or the next timeout.

        With live workers the timeout is the watchdog cadence: on a
        single-core host every wake steals CPU from the workers (E13f).
        Without, it is ``poll_s``, so expiring backoffs stay responsive.
        """
        timeout = self.config.poll_s
        if len(self.pool):
            timeout = max(timeout, min(1.0, self.config.stale_after_s / 4.0))
        self.pool.wait(timeout)

    def drain(self, *, timeout_s: float = 60.0) -> bool:
        """Tick until no queued/active jobs remain; True if fully drained."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            self.tick()
            counts = self.store.counts()
            if not any(counts[state] for state in ("queued", *ACTIVE_STATES)):
                return True
            self._idle_wait()
        return False

    def run(self, guard=None) -> None:
        """Loop :meth:`tick` until ``guard`` requests a stop (or forever)."""
        try:
            while guard is None or not guard.requested:
                self.tick()
                self._idle_wait()
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Graceful stop: park active jobs back in the queue, compact, close.

        A shutdown requeue does *not* consume a retry — stopping the
        server is not the job's failure — so a rolling restart never
        burns a job's budget.
        """
        with self._lock:
            for job_id in self.pool.close():
                job = self.store.get(job_id)
                if job.state in ACTIVE_STATES:
                    self.store.transition(
                        job_id,
                        "queued",
                        worker_pid=None,
                        not_before=0.0,
                        error="requeued by server shutdown",
                    )
            try:
                self.store.compact()
            except JobStoreError:
                pass
            self.store.close()

    # -- observability -----------------------------------------------------

    def _heartbeat(self, job_id: str):
        return read_heartbeat(heartbeat_path(self.store.job_dir(job_id) / "job"))

    def metrics_text(self) -> str:
        """Prometheus exposition: job-state gauges + live job heartbeats."""
        counts = self.store.counts()
        jobs = self.store.jobs()
        families = [
            MetricFamily(
                "repro_service_jobs", "gauge",
                "Jobs per lifecycle state.",
                [((("state", state),), float(counts[state]))
                 for state in JOB_STATES],
            ),
            MetricFamily(
                "repro_service_journal_seq", "gauge",
                "Last applied job-journal sequence number.",
                [((), float(self.store.seq))],
            ),
            MetricFamily(
                "repro_service_retries_total", "counter",
                "Worker attempts beyond the first, summed over jobs.",
                [((), float(sum(job.retries for job in jobs)))],
            ),
            MetricFamily(
                "repro_service_workers_busy", "gauge",
                "Worker processes currently attached to a job.",
                [((), float(len(self.pool)))],
            ),
        ]
        beats = (self._heartbeat(job.id) for job in jobs)
        families.extend(heartbeat_families([b for b in beats if b is not None]))
        return render_exposition(families)

    def job_document(self, job_id: str) -> Dict[str, Any]:
        """A job plus its live heartbeat, as served by the API."""
        job = self.store.get(job_id)
        doc = job.to_dict()
        beat = self._heartbeat(job_id)
        doc["heartbeat"] = beat.to_dict() if beat is not None else None
        return doc

    def trace_tail(self, job_id: str) -> Dict[str, Any]:
        """The last complete round of the job's trace, live while it runs.

        404 material if the job is untraced.  A running job's trace is
        its staging file, which grows one chunk (4096 rounds) at a time.
        """
        from repro.analysis.watch import tail_trace_round

        job = self.store.get(job_id)
        path = job_trace_path(self.store.job_dir(job_id), job.spec)
        if path is None:
            raise JobStoreError(
                f"job {job_id} was submitted without tracing "
                f"(spec 'trace' is null)"
            )
        return {"job": job_id, "trace": str(path), "round": tail_trace_round(path)}


# ---------------------------------------------------------------------------
# HTTP layer


class _Handler(RequestHandler):
    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SpecError("request body must be a JSON object")
        return payload

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.owner.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if url.path in ("/", "/healthz"):
                self._send_json(200, {
                    "ok": True,
                    "pid": os.getpid(),
                    "root": str(service.root),
                    "counts": service.store.counts(),
                    "seq": service.store.seq,
                })
            elif url.path == "/metrics":
                super().do_GET()
            elif url.path == "/jobs":
                self._send_json(200, {
                    "jobs": [job.to_dict() for job in service.store.jobs()],
                    "counts": service.store.counts(),
                })
            elif len(parts) == 2 and parts[0] == "jobs":
                query = parse_qs(url.query)
                wait_s = float(query.get("wait_s", ["0"])[0])
                doc = self._wait_for_job(service, parts[1], wait_s)
                self._send_json(200, doc)
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                job = service.store.get(parts[1])
                if job.result is None:
                    self._send_json(404, {
                        "error": f"job {parts[1]} has no result "
                                 f"(state: {job.state})"
                    })
                else:
                    self._send_json(200, {"job": job.id, "result": job.result})
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
                self._send_json(200, service.trace_tail(parts[1]))
            else:
                self._send_json(404, {"error": f"no such endpoint {url.path}"})
        except JobStoreError as exc:
            self._send_json(404, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_json(500, {"error": str(exc)})

    def _wait_for_job(self, service: Service, job_id: str, wait_s: float) -> Dict[str, Any]:
        """Long-poll: return early state changes, else the deadline's view."""
        deadline = time.monotonic() + min(max(wait_s, 0.0), 60.0)
        doc = service.job_document(job_id)
        initial = (doc["state"], doc["attempt"])
        while time.monotonic() < deadline:
            if doc["state"] in ("done", "failed", "cancelled"):
                break
            if (doc["state"], doc["attempt"]) != initial:
                break
            time.sleep(0.05)
            doc = service.job_document(job_id)
        return doc

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self.server.owner.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if url.path == "/jobs":
                payload = self._read_body()
                max_retries = payload.pop("max_retries", None)
                # submit() wakes the dispatch loop, whose tick takes the
                # same lock: the 201 is written before the job can be
                # dispatched, so a crash there never cuts off the reply.
                with service._lock:
                    job = service.submit(payload, max_retries=max_retries)
                    self._send_json(201, {"job": job.to_dict()})
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                job = service.cancel(parts[1])
                self._send_json(200, {"job": job.to_dict()})
            elif url.path == "/admin/compact":
                service.store.compact()
                self._send_json(200, {
                    "ok": True,
                    "seq": service.store.seq,
                    "journal_bytes": service.store.journal_path.stat().st_size,
                })
            else:
                self._send_json(404, {"error": f"no such endpoint {url.path}"})
        except SpecError as exc:
            self._send_json(400, {"error": str(exc)})
        except JobStoreError as exc:
            self._send_json(409, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_json(500, {"error": str(exc)})


class ServiceServer(MetricsServer):
    """The HTTP front: :class:`MetricsServer` with the API routes.

    ``port=0`` binds an ephemeral port; :attr:`url` reports the real one
    once :meth:`start` has bound it.
    """

    handler = _Handler
    path = ""

    def __init__(
        self, service: Service, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__(service.metrics_text, port=port, host=host)
        self.service = service


def serve(
    root,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServiceConfig] = None,
    guard=None,
    stream=None,
) -> int:
    """Run the service until the guard asks to stop; returns an exit code.

    Prints ``service: listening on <url>`` to ``stream`` (default stderr)
    — the machine-readable handshake `scripts/service_smoke.py` parses, in
    the same shape as the CLI's metrics announcement.
    """
    service = Service(root, config)
    server = ServiceServer(service, host=host, port=port).start()
    out = sys.stderr if stream is None else stream
    print(f"service: listening on {server.url}", file=out, flush=True)
    try:
        service.run(guard)
    finally:
        server.stop()
    return EXIT_OK
