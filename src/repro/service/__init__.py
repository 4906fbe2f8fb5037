"""Simulation-as-a-service: a crash-safe job queue over the experiment stack.

``repro serve`` turns the CLI-only runner into a long-lived service:

- :mod:`repro.service.jobstore` — the journaled job store: an append-only
  CRC-framed WAL of job-state transitions with fsync'd commits, torn-tail
  salvage, a compacting snapshot, and idempotent replay, so every
  acknowledged job survives ``kill -9`` at any instruction.
- :mod:`repro.service.worker` — job execution through the existing
  checkpoint machinery: each attempt resumes whatever its predecessor
  checkpointed, and its attempt-stamped result is published atomically.
- :mod:`repro.service.server` — dispatch onto the shared worker pool
  (:mod:`repro.execution.pool`, which also runs the heartbeat watchdog),
  restart recovery, and the HTTP API (submit, status/long-poll, trace
  tails, ``/metrics``).

Recovery semantics, the journal format, and the crashpoint table live in
docs/SERVICE.md.
"""

from repro.service.jobstore import (
    ACTIVE_STATES,
    JOB_STATES,
    JOBSTORE_SCHEMA_VERSION,
    LEGAL_TRANSITIONS,
    TERMINAL_STATES,
    Job,
    JobStore,
    JobStoreError,
    load_jobs,
)
from repro.service.server import (
    Service,
    ServiceConfig,
    ServiceServer,
    exit_taxonomy,
    serve,
)
from repro.service.worker import SpecError, validate_spec

__all__ = [
    "ACTIVE_STATES",
    "JOB_STATES",
    "JOBSTORE_SCHEMA_VERSION",
    "LEGAL_TRANSITIONS",
    "TERMINAL_STATES",
    "Job",
    "JobStore",
    "JobStoreError",
    "load_jobs",
    "Service",
    "ServiceConfig",
    "ServiceServer",
    "SpecError",
    "exit_taxonomy",
    "serve",
    "validate_spec",
]
