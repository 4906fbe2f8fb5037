"""The simulation service: worker pool, watchdog, recovery, and HTTP API.

:class:`Service` owns a :class:`~repro.service.jobstore.JobStore` and
drives jobs through their lifecycle with three synchronous ingredients,
all exercised from one :meth:`Service.tick` so tests can single-step the
whole machine deterministically:

- **dispatch** — pops ripe ``queued`` jobs (``not_before`` respected)
  into forked worker processes, up to ``workers`` concurrent children.
  The state is journaled *before* the fork (crashpoint
  ``service:mid_dispatch`` sits in between), so a crash there leaves a
  durable ``running`` record whose orphanhood is detected on restart.
- **reap** — collects exited workers: exit 0 plus an attempt-stamped
  ``result.json`` is ``done``; anything else consults the retry budget
  and either requeues with :func:`~repro.execution.backoff.
  backoff_delay_s` (deterministic seeded jitter keyed on the job's seed
  and id) or lands the job in ``failed`` with an
  ``execution.shutdown.EXIT_CODES`` taxonomy entry — the job error
  contract.
- **watchdog** — a live worker whose heartbeat file has gone stale
  (beyond ``stale_after_s``) is presumed stuck, killed, and fed to the
  same retry path.  This is the PR-7 heartbeat reused as a liveness
  signal rather than merely a dashboard feed.

**Recovery** (:meth:`Service.recover`, run at startup) replays the same
rules against whatever a crash left behind: an active job with a
published result for its attempt is adopted as ``done`` (never re-run,
never double-counted); any other active job is orphaned — its recorded
worker pid is killed if still alive — and requeued through the seeded
backoff, so a crash-restart loop is bounded by ``max_retries``.

The HTTP layer (:class:`ServiceServer`) is a stdlib
``ThreadingHTTPServer`` sharing the store lock with the dispatch loop.
``GET /jobs/<id>`` supports ``?wait_s=`` long-polling so clients can
stream status cheaply; ``GET /jobs/<id>/trace`` tails the job's trace via
:func:`repro.analysis.watch.tail_trace_round` (columnar or JSONL);
``/metrics`` renders the same exposition
:class:`repro.telemetry.prometheus.MetricsServer` serves when a separate
metrics port is configured.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.execution import faults
from repro.execution.backoff import backoff_delay_s
from repro.execution.shutdown import EXIT_CODES, EXIT_ERROR, EXIT_INTERRUPTED, EXIT_OK
from repro.service.jobstore import (
    ACTIVE_STATES,
    JOB_STATES,
    JobStore,
    JobStoreError,
    Job,
)
from repro.service.worker import (
    SpecError,
    job_trace_path,
    job_worker_main,
    read_result,
    validate_spec,
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
            stuck and killed (the watchdog clock).
        dispatch_grace_s: how long a freshly dispatched worker may run
            before its first heartbeat must exist.
        backoff_base_s / backoff_cap_s: the requeue delay schedule fed to
            :func:`~repro.execution.backoff.backoff_delay_s`.
        default_max_retries: failure budget for submissions that don't
            name their own.
        compact_bytes: journal size that triggers auto-compaction.
    """

    workers: int = 1
    poll_s: float = 0.05
    stale_after_s: float = 30.0
    dispatch_grace_s: float = 10.0
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    default_max_retries: int = 2
    compact_bytes: int = 256 * 1024


class Service:
    """The job machine: store + worker pool + watchdog + recovery."""

    def __init__(self, root, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.store = JobStore(root, compact_bytes=self.config.compact_bytes)
        self.root = self.store.root
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context()
        self._children: Dict[str, Any] = {}
        self._dispatched_at: Dict[str, float] = {}
        self._stale_checked_at: Dict[str, float] = {}
        self._lock = threading.RLock()
        # Wake-up channel: submit() sends a byte so the dispatch loop's
        # idle wait returns at once instead of at its next timeout.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self.recover()

    # -- recovery ---------------------------------------------------------

    def recover(self) -> List[str]:
        """Reconcile journal state with reality after a (re)start.

        Returns the ids of jobs whose state changed.  Active jobs are
        orphans by construction here (no child of this process exists
        yet): adopt a published result when the attempt stamp matches,
        otherwise kill any surviving worker pid and requeue through the
        retry budget.
        """
        changed: List[str] = []
        for job in self.store.jobs():
            if job.state not in ACTIVE_STATES:
                continue
            result = read_result(self.store.job_dir(job.id), attempt=job.attempt)
            if result is not None:
                self.store.transition(
                    job.id, "done", result=result, worker_pid=None
                )
                changed.append(job.id)
                continue
            self._kill_pid(job.worker_pid)
            self._fail_or_requeue(
                job, error=f"orphaned at attempt {job.attempt} by server restart"
            )
            changed.append(job.id)
        return changed

    @staticmethod
    def _kill_pid(pid: Optional[int]) -> None:
        if not pid or pid == os.getpid():
            return
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass

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
        if retries > job.max_retries:
            code, name = exit_taxonomy(exitcode, stalled=stalled)
            return self.store.transition(
                job.id,
                "failed",
                retries=retries,
                worker_pid=None,
                error=error,
                exit_code=code,
                exit_name=name,
            )
        delay = backoff_delay_s(
            retries,
            base_s=self.config.backoff_base_s,
            cap_s=self.config.backoff_cap_s,
            key=f"{job.spec.get('seed', 0)}:{job.id}",
        )
        return self.store.transition(
            job.id,
            "queued",
            retries=retries,
            worker_pid=None,
            not_before=time.time() + delay,
            backoff_s=delay,
            error=error,
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
        self._wake()
        return job

    def _wake(self) -> None:
        """Signal the idle wait; never blocks an HTTP thread.

        A full socket buffer means a wake-up is already pending, and a
        closed one means the loop has stopped — either way there is
        nothing left to signal.
        """
        try:
            self._wake_send.send(b"\0")
        except OSError:
            pass

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or active job (kills its worker if one runs)."""
        with self._lock:
            job = self.store.get(job_id)
            if job.terminal:
                raise JobStoreError(
                    f"job {job_id} is already {job.state}; cannot cancel"
                )
            process = self._children.pop(job_id, None)
            self._dispatched_at.pop(job_id, None)
            self._stale_checked_at.pop(job_id, None)
            if process is not None and process.is_alive():
                process.kill()
                process.join(timeout=5.0)
            return self.store.transition(
                job_id, "cancelled", worker_pid=None, error="cancelled by client"
            )

    # -- the loop ----------------------------------------------------------

    def tick(self) -> int:
        """One synchronous step of reap + watchdog + dispatch.

        Returns the number of jobs whose state changed, so callers (and
        tests) can drive the machine to quiescence deterministically.
        """
        with self._lock:
            changed = self._reap()
            changed += self._dispatch_ready()
        return changed

    def _reap(self) -> int:
        changed = 0
        now = time.time()
        for job_id, process in list(self._children.items()):
            job = self.store.get(job_id)
            if process.is_alive():
                if self._watchdog_due(job_id) and self._is_stalled(job_id, now):
                    process.kill()
                    process.join(timeout=5.0)
                    self._forget(job_id)
                    self._fail_or_requeue(
                        job,
                        error=(
                            f"worker heartbeat stale beyond "
                            f"{self.config.stale_after_s}s; killed"
                        ),
                        stalled=True,
                    )
                    changed += 1
                continue
            process.join()
            exitcode = process.exitcode
            self._forget(job_id)
            result = read_result(self.store.job_dir(job_id), attempt=job.attempt)
            if exitcode == EXIT_OK and result is not None:
                self.store.transition(
                    job_id, "done", result=result, worker_pid=None, error=None
                )
            else:
                error = (
                    f"worker exited {exitcode} without a valid result"
                    if result is None
                    else f"worker exited {exitcode}"
                )
                self._fail_or_requeue(job, error=error, exitcode=exitcode)
            changed += 1
        return changed

    def _watchdog_due(self, job_id: str) -> bool:
        """Rate-limit the stale check: it reads the heartbeat file.

        Staleness only needs to be noticed within a fraction of
        ``stale_after_s``, so polling the file every tick (potentially
        every 10ms) would just steal disk and CPU from the workers —
        measurable on single-core runners.
        """
        interval = min(1.0, self.config.stale_after_s / 4.0)
        mono = time.monotonic()
        if mono - self._stale_checked_at.get(job_id, 0.0) < interval:
            return False
        self._stale_checked_at[job_id] = mono
        return True

    def _is_stalled(self, job_id: str, now: float) -> bool:
        from repro.telemetry.heartbeat import heartbeat_path, read_heartbeat

        beat = read_heartbeat(heartbeat_path(self.store.job_dir(job_id) / "job"))
        started = self._dispatched_at.get(job_id)
        if beat is None:
            # No heartbeat yet (or torn): allow the dispatch grace period.
            return (
                started is not None
                and time.monotonic() - started > self.config.dispatch_grace_s
            )
        return beat.age_s(now) > self.config.stale_after_s

    def _forget(self, job_id: str) -> None:
        self._children.pop(job_id, None)
        self._dispatched_at.pop(job_id, None)
        self._stale_checked_at.pop(job_id, None)

    def _dispatch_ready(self) -> int:
        changed = 0
        now = time.time()
        for job in self.store.jobs():
            if len(self._children) >= self.config.workers:
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
        process = self._context.Process(
            target=job_worker_main,
            args=(job.spec, str(jobdir), attempt),
            daemon=True,
        )
        # Freeze the heap across the fork so the child's first garbage
        # collection does not sweep (and so copy-on-write fault) every
        # inherited page: the child forks with the frozen view, then the
        # parent unfreezes itself.  Without this the worker pays a
        # heap-sized page-fault tax that E13f measures at 10-20% of a
        # smoke-sized job.
        gc.freeze()
        try:
            process.start()
        finally:
            gc.unfreeze()
        # Self-loop transition: same state, records the worker pid so a
        # later recovery can put the orphan down before requeueing.
        self.store.transition(job.id, to, worker_pid=process.pid)
        self._children[job.id] = process
        self._dispatched_at[job.id] = time.monotonic()

    def _idle_wait(self) -> None:
        """Sleep until there is plausibly work to do.

        Blocks on the wake-up channel together with the live workers'
        process sentinels — the loop wakes *instantly* when a job is
        submitted or a child exits instead of discovering it up to a
        timeout later, and in between it only wakes at the watchdog
        cadence.  Busy-polling here is not just latency: on a single-core
        host every wake steals CPU from the workers themselves (measured
        by E13f).  With no children the timeout is ``poll_s`` so expiring
        backoffs stay responsive.
        """
        from multiprocessing.connection import wait

        with self._lock:
            sentinels = [p.sentinel for p in self._children.values()]
        timeout = self.config.poll_s
        if sentinels:
            timeout = max(timeout, min(1.0, self.config.stale_after_s / 4.0))
        wait([self._wake_recv, *sentinels], timeout=timeout)
        try:  # drain: one tick serves every submission signalled so far
            while self._wake_recv.recv(4096):
                pass
        except BlockingIOError:
            pass

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
            for job_id, process in list(self._children.items()):
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
                self._forget(job_id)
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
            self._wake_recv.close()
            self._wake_send.close()

    # -- observability -----------------------------------------------------

    def job_heartbeats(self) -> List[Any]:
        from repro.telemetry.heartbeat import heartbeat_path, read_heartbeat

        beats = []
        for job in self.store.jobs():
            beat = read_heartbeat(heartbeat_path(self.store.job_dir(job.id) / "job"))
            if beat is not None:
                beats.append(beat)
        return beats

    def metrics_text(self) -> str:
        """Prometheus exposition: job-state gauges + live job heartbeats."""
        from repro.telemetry.prometheus import MetricFamily, render_exposition
        from repro.telemetry.prometheus import heartbeat_families

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
                [((), float(len(self._children)))],
            ),
        ]
        families.extend(heartbeat_families(self.job_heartbeats()))
        return render_exposition(families)

    def job_document(self, job_id: str) -> Dict[str, Any]:
        """A job plus its live heartbeat, as served by the API."""
        from repro.telemetry.heartbeat import heartbeat_path, read_heartbeat

        job = self.store.get(job_id)
        doc = job.to_dict()
        beat = read_heartbeat(heartbeat_path(self.store.job_dir(job_id) / "job"))
        doc["heartbeat"] = beat.to_dict() if beat is not None else None
        return doc

    def trace_tail(self, job_id: str) -> Dict[str, Any]:
        """The last complete round of the job's trace (404 material if off)."""
        from repro.analysis.watch import tail_trace_round

        job = self.store.get(job_id)
        path = job_trace_path(self.store.job_dir(job_id), job.spec)
        if path is None:
            raise JobStoreError(
                f"job {job_id} was submitted without tracing "
                f"(spec 'trace' is null)"
            )
        tail = tail_trace_round(path) if path.exists() else None
        return {"job": job_id, "trace": str(path), "round": tail}


# ---------------------------------------------------------------------------
# HTTP layer


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: Service


class _Handler(BaseHTTPRequestHandler):
    server: _ServiceHTTPServer

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the service loop owns stderr; HTTP chatter stays quiet

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

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
        service = self.server.service
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
                self._send_text(
                    200,
                    service.metrics_text(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
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
        service = self.server.service
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


class ServiceServer:
    """The HTTP front: a daemon-threaded stdlib server bound to ``service``.

    ``port=0`` binds an ephemeral port; :attr:`url` reports the real one.
    Start/stop mirrors :class:`repro.telemetry.prometheus.MetricsServer`
    so the CLI can manage both uniformly.
    """

    def __init__(
        self, service: Service, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self._httpd = _ServiceHTTPServer((host, port), _Handler)
        self._httpd.service = service
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service-http",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(
    root,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics_port: Optional[int] = None,
    config: Optional[ServiceConfig] = None,
    guard=None,
    stream=None,
) -> int:
    """Run the service until the guard asks to stop; returns an exit code.

    Prints ``service: listening on <url>`` (and ``metrics: serving
    <url>`` when a metrics port is requested) to ``stream`` — the
    machine-readable handshake `scripts/service_smoke.py` parses, in the
    same shape as the CLI's metrics announcement.
    """
    import sys

    out = sys.stderr if stream is None else stream
    service = Service(root, config)
    server = ServiceServer(service, host=host, port=port)
    server.start()
    print(f"service: listening on {server.url}", file=out, flush=True)
    metrics_server = None
    if metrics_port is not None:
        from repro.telemetry.prometheus import MetricsServer

        metrics_server = MetricsServer(
            service.metrics_text, port=metrics_port, host=host
        ).start()
        print(f"metrics: serving {metrics_server.url}", file=out, flush=True)
    try:
        service.run(guard)
    finally:
        server.stop()
        if metrics_server is not None:
            metrics_server.stop()
    return EXIT_OK
