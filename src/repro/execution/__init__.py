"""Durable execution: checkpoint/resume, graceful shutdown, fault injection.

The three legs of the durability story (docs/OBSERVABILITY.md, "Durability
& fault model"):

* :mod:`repro.execution.checkpoint` — atomic write-tmp-then-rename
  checkpoints carrying progress, the NumPy bit-generator state, and a
  provenance signature; a resumed run is bit-identical to an
  uninterrupted one.
* :mod:`repro.execution.shutdown` — SIGINT/SIGTERM become safe-point
  stops: flush and fsync open trace writers, write a final checkpoint,
  exit with :data:`EXIT_INTERRUPTED`.  Also home of the CLI's per-failure-
  class exit codes.
* :mod:`repro.execution.faults` — the ``REPRO_FAULT`` crashpoint registry
  that kills the process at seeded points so the two invariants above are
  proven by tests (``scripts/fault_smoke.py``) rather than asserted.

A fourth leg, :mod:`repro.execution.supervisor`, runs ensembles sharded
over a supervised worker pool (per-shard timeouts, capped-backoff retries,
quarantine, degraded-mode statistics).  It is imported on demand — via
``import repro.execution.supervisor`` — rather than re-exported here,
because it sits *above* the dynamics runners in the import graph.  Its
worker processes, like the job service's, run through
:mod:`repro.execution.pool`, the one supervision loop, imported on demand
for the same reason.
"""

from repro.execution.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointError,
    Checkpointer,
    CheckpointState,
    decode_times,
    encode_times,
    load_checkpoint,
    run_signature,
    save_checkpoint,
)
from repro.execution.faults import (
    FAULT_ENV_VAR,
    FaultSpec,
    armed,
    crashpoint,
    parse_fault_spec,
)
from repro.execution.shutdown import (
    EXIT_BENCH_TIMEOUT,
    EXIT_CODES,
    EXIT_ERROR,
    EXIT_FAULT_INJECTED,
    EXIT_INTERRUPTED,
    EXIT_INVALID_TRACE,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_PERF_REGRESSION,
    EXIT_SHARDS_LOST,
    GracefulExit,
    ShutdownGuard,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "DEFAULT_CHECKPOINT_EVERY",
    "CheckpointError",
    "CheckpointState",
    "Checkpointer",
    "run_signature",
    "save_checkpoint",
    "load_checkpoint",
    "encode_times",
    "decode_times",
    "FAULT_ENV_VAR",
    "FaultSpec",
    "parse_fault_spec",
    "armed",
    "crashpoint",
    "GracefulExit",
    "ShutdownGuard",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_NOT_CONVERGED",
    "EXIT_INVALID_TRACE",
    "EXIT_PERF_REGRESSION",
    "EXIT_INTERRUPTED",
    "EXIT_BENCH_TIMEOUT",
    "EXIT_SHARDS_LOST",
    "EXIT_FAULT_INJECTED",
    "EXIT_CODES",
]
