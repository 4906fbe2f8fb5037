"""One supervision loop for forked worker attempts: shards and service jobs.

The shard supervisor (:mod:`repro.execution.supervisor`) and the job
service (:mod:`repro.service.server`) run every worker attempt through a
:class:`WorkerPool`.  They keep their own bookkeeping (what runs next,
quarantine, the job journal) and pass their policy in as data — a
deadline or a heartbeat watchdog, environment overrides, a backoff key, a
wait cadence; nothing here branches on who called it.

The pool forks each attempt under ``gc.freeze()`` (else the child's first
collection copy-on-write faults every inherited page: a 10-20% tax in
E13f), waits on the workers' sentinels plus a wake channel, and classifies
each ending: ``done`` (exit 0 with a result stamped with its attempt
number), ``corrupt`` (exit 0 without one), ``exit`` (nonzero exit or a
signal), ``timeout`` (past its deadline) or ``stalled`` (no heartbeat for
``stale_after_s``, the fork counting as the zeroth beat); it kills the
last two.  :func:`retry_delay` then decides retry-or-give-up.  In the
child, the work opens its checkpoints with :func:`open_checkpoint` and
its recorders with :meth:`Recording.open`; the pool publishes what the
work returns, stamped with the attempt number, and exits 0 — or prints
the traceback and exits :data:`~repro.execution.shutdown.EXIT_ERROR`.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Iterator, List, Mapping, Optional, Union

from repro import storage
from repro.execution import faults
from repro.execution.backoff import backoff_delay_s
from repro.execution.checkpoint import CheckpointError, Checkpointer
from repro.execution.shutdown import EXIT_ERROR, EXIT_OK
from repro.telemetry import Recorder, compose_recorders
from repro.telemetry.columnar import open_trace_writer
from repro.telemetry.heartbeat import HeartbeatRecorder, read_heartbeat
from repro.telemetry.profiling import maybe_cprofile

__all__ = [
    "Ending",
    "Recording",
    "WorkerPool",
    "kill_pid",
    "open_checkpoint",
    "read_result",
    "retry_delay",
]


def retry_delay(
    failures: int, max_retries: int, *, base_s: float, cap_s: float, key: str
) -> Optional[float]:
    """Seconds to back off after ``failures`` failed attempts; ``None`` = give up.

    >>> retry_delay(3, 2, base_s=0.1, cap_s=5.0, key="run:shard0") is None
    True
    >>> 0.05 <= retry_delay(1, 2, base_s=0.1, cap_s=5.0, key="run:shard0") < 0.1
    True
    """
    if failures > max_retries:
        return None
    return backoff_delay_s(failures, base_s=base_s, cap_s=cap_s, key=key)


def read_result(path, *, attempt: Optional[int] = None) -> Optional[Dict[str, Any]]:
    """A published result; ``None`` if absent, torn, or another attempt's."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if attempt is not None and payload.get("attempt") != attempt:
        return None
    return payload


def kill_pid(pid: Optional[int]) -> None:
    """SIGKILL a worker an earlier parent left behind (no-op if it is gone)."""
    if not pid or pid == os.getpid():
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def open_checkpoint(path, every: int) -> Optional[Checkpointer]:
    """A checkpointer at ``path`` (``None``: none) resuming its saved state.

    An unreadable file is reported and discarded, so the attempt restarts
    instead of failing on it forever; ``resume_state`` is ``None`` then.
    """
    if path is None:
        return None
    if Path(path).exists():
        try:
            return Checkpointer.resume(path, every=every)
        except CheckpointError as error:
            print(f"repro: discarding unusable checkpoint ({error}); "
                  "restarting from round 0", file=sys.stderr)
    return Checkpointer(path, every=every)


@dataclass(frozen=True)
class Recording:
    """An attempt's trace and heartbeat (``None`` path = off), optionally profiled.

    ``role``/``shard``/``attempt`` label the heartbeat; the trace format
    and timing flag go to
    :func:`~repro.telemetry.columnar.open_trace_writer`.
    """

    trace_path: Optional[Union[str, Path]] = None
    trace_format: str = "jsonl"
    trace_timings: bool = True
    heartbeat_path: Optional[Union[str, Path]] = None
    heartbeat_every_s: float = 1.0
    role: str = "run"
    shard: Optional[int] = None
    attempt: Optional[int] = None
    profile_path: Optional[Union[str, Path]] = None

    @contextmanager
    def open(self) -> Iterator[Recorder]:
        """The composed recorder; the trace is closed even if the body raises."""
        trace = beat = None
        if self.trace_path is not None:
            trace = open_trace_writer(
                self.trace_path, self.trace_format,
                include_timings=self.trace_timings,
            )
        if self.heartbeat_path is not None:
            beat = HeartbeatRecorder(
                self.heartbeat_path, role=self.role, shard=self.shard,
                attempt=self.attempt, interval_s=self.heartbeat_every_s,
            )
        try:
            with maybe_cprofile(self.profile_path):
                yield compose_recorders(trace, beat)
        finally:
            if trace is not None:
                trace.close()


def _attempt_main(work, attempt: int, result_path: str, env) -> None:
    """The worker process: environment, work, stamped publish, exit code."""
    for name, value in env.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    # A forked child inherits the parent's crashpoint visit counters.
    faults.reset()
    try:
        document = dict(work(), attempt=attempt)
        storage.publish(result_path, json.dumps(document, sort_keys=True).encode())
    except Exception:  # the exit code is the error channel
        traceback.print_exc()
        sys.exit(EXIT_ERROR)
    sys.exit(EXIT_OK)


@dataclass(frozen=True)
class Ending:
    """How one attempt ended (``kind``: see the module docstring); ``key`` is
    the caller's name for the work, ``result`` set for ``done`` only."""

    key: Hashable
    attempt: int
    kind: str
    exitcode: Optional[int]
    elapsed_s: float
    result: Optional[Dict[str, Any]] = None


@dataclass
class _Live:
    process: Any
    attempt: int
    result_path: str
    started_at: float
    started_wall: float
    deadline: Optional[float]
    heartbeat_path: Any
    stale_after_s: Optional[float]
    next_check: float = 0.0

    def overdue(self, now: float, wall: float) -> Optional[str]:
        if self.deadline is not None and now >= self.deadline:
            return "timeout"
        if self.stale_after_s is None or now < self.next_check:
            return None
        # A heartbeat is a file read: noticing within a fraction of the
        # bound is soon enough, and spares single-core hosts the I/O.
        self.next_check = now + min(1.0, self.stale_after_s / 4.0)
        beat = read_heartbeat(self.heartbeat_path)
        last = max(self.started_wall, beat.updated_at if beat is not None else 0.0)
        return "stalled" if wall - last > self.stale_after_s else None


class WorkerPool:
    """Up to ``workers`` live attempts, each named by a caller's key."""

    def __init__(self, workers: int) -> None:
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context()
        self.workers = workers
        self._live: Dict[Hashable, _Live] = {}
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._live

    @property
    def free(self) -> int:
        return max(0, self.workers - len(self._live))

    def process(self, key: Hashable):
        """The live attempt's ``multiprocessing`` process, or ``None``."""
        live = self._live.get(key)
        return None if live is None else live.process

    def start(
        self, key: Hashable, work: Callable[[], Mapping[str, Any]], *,
        attempt: int, result_path, env: Optional[Mapping[str, Optional[str]]] = None,
        deadline_s: Optional[float] = None, heartbeat_path=None,
        stale_after_s: Optional[float] = None,
    ) -> int:
        """Fork an attempt of ``work`` and return the worker's pid.

        ``work()`` returns the mapping to publish at ``result_path``;
        ``env`` overrides the child's environment (``None`` deletes).
        """
        process = self._context.Process(
            target=_attempt_main,
            args=(work, attempt, str(result_path), dict(env or {})),
            daemon=True,
        )
        gc.freeze()
        try:
            process.start()
        finally:
            gc.unfreeze()
        now = time.monotonic()
        self._live[key] = _Live(
            process, attempt, str(result_path), now, time.time(),
            None if deadline_s is None else now + deadline_s,
            heartbeat_path, stale_after_s,
        )
        return process.pid

    def wake(self) -> None:
        """Cut a :meth:`wait` short; never blocks, safe from any thread."""
        try:
            self._wake_send.send(b"\0")
        except OSError:  # a wake-up is already pending, or the pool closed
            pass

    def wait(self, timeout_s: float) -> None:
        """Block until an attempt ends, a wake-up, a deadline, or ``timeout_s``."""
        live = list(self._live.values())
        deadlines = [entry.deadline for entry in live if entry.deadline is not None]
        if deadlines:
            timeout_s = min(timeout_s, max(0.0, min(deadlines) - time.monotonic()))
        multiprocessing.connection.wait(
            [self._wake_recv, *(entry.process.sentinel for entry in live)],
            timeout=timeout_s,
        )
        try:  # drain: one pass serves every wake-up signalled so far
            while self._wake_recv.recv(4096):
                pass
        except BlockingIOError:
            pass

    def reap(self) -> List[Ending]:
        """Classify every attempt that ended, killing the overdue ones."""
        endings = []
        now, wall = time.monotonic(), time.time()
        for key, live in list(self._live.items()):
            process, kind, result = live.process, None, None
            if process.is_alive():
                kind = live.overdue(now, wall)
                if kind is None:
                    continue
                process.kill()
            process.join(timeout=5.0)
            if kind is None and process.exitcode == EXIT_OK:
                result = read_result(live.result_path, attempt=live.attempt)
                kind = "corrupt" if result is None else "done"
            elif kind is None:
                kind = "exit"
            del self._live[key]
            endings.append(Ending(
                key, live.attempt, kind, process.exitcode,
                now - live.started_at, result,
            ))
        return endings

    def kill(self, key: Hashable) -> bool:
        """Kill ``key``'s attempt and forget it unread; False if none is live."""
        live = self._live.pop(key, None)
        if live is None:
            return False
        live.process.kill()
        live.process.join(timeout=5.0)
        return True

    def close(self) -> List[Hashable]:
        """Kill every attempt, close the wake channel; returns the keys killed."""
        keys = [key for key in list(self._live) if self.kill(key)]
        self._wake_recv.close()
        self._wake_send.close()
        return keys
