"""Atomic checkpoint/resume for long-running simulations.

A checkpoint is a single JSON document capturing everything a runner needs
to continue *bit-identically*: the last completed round, the runner-specific
progress payload (counts, completed replica times, active mask, ...), the
NumPy bit-generator state, and a provenance signature binding the file to
the exact run inputs (protocol fingerprint + parameters + generator type).
Restoring the bit-generator state is what makes resume determinism a
testable property rather than an aspiration — the resumed process replays
the very random stream the killed one would have drawn.

Writes are atomic (:func:`repro.storage.publish`): the document is
written to ``<path>.tmp``, fsynced, then renamed over ``path``, so a
reader never observes a half-written checkpoint — a crash mid-write
leaves the previous checkpoint intact.  Both sides of the rename carry crashpoints
(``checkpoint:after_tmp_write``, ``checkpoint:after_rename``) so that
exactly this window is exercised by the fault-injection suite.

File format and resume walkthrough: docs/OBSERVABILITY.md, "Durability &
fault model".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro import storage
from repro.execution import faults
from repro.telemetry.recorder import protocol_fingerprint

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
]

CHECKPOINT_SCHEMA_VERSION = 1

DEFAULT_CHECKPOINT_EVERY = 1000
"""Default cadence (in completed rounds) between checkpoint writes."""


class CheckpointError(ValueError):
    """A checkpoint file is missing, malformed, or belongs to another run."""


def run_signature(runner: str, protocol, rng, **params) -> str:
    """Provenance hash binding a checkpoint to one exact run.

    Covers the runner name, the protocol's content fingerprint (tables, not
    name), every scalar parameter that shapes the trajectory, and the
    bit-generator *type* (its state is stored separately and changes every
    draw, so it must not enter the signature).  Two calls agree iff a
    checkpoint from one is a valid resume point for the other.
    """
    payload = json.dumps(
        {
            "runner": runner,
            "protocol": protocol_fingerprint(protocol),
            "bit_generator": type(rng.bit_generator).__name__,
            "params": {key: params[key] for key in sorted(params)},
        },
        sort_keys=True,
        default=str,
    )
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# JSON-safe encoding of numpy state
# ----------------------------------------------------------------------


def _encode(value: Any) -> Any:
    """Recursively encode numpy scalars/arrays into JSON-safe structures."""
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value.get("dtype"))
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value


def encode_times(times: np.ndarray) -> list:
    """Encode a float time array for JSON, mapping censored ``nan`` to None."""
    return [None if np.isnan(value) else float(value) for value in np.asarray(times)]


def decode_times(values) -> np.ndarray:
    """Inverse of :func:`encode_times`."""
    return np.asarray(
        [np.nan if value is None else float(value) for value in values], dtype=float
    )


# ----------------------------------------------------------------------
# Checkpoint documents
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointState:
    """One checkpoint document (see docs/OBSERVABILITY.md for the format).

    Attributes:
        runner: producing entry point (``"simulate"``, ``"simulate_ensemble"``).
        round: the last fully completed round.
        rng_state: the bit generator's ``.state`` at that boundary.
        payload: runner-specific progress (JSON-safe; arrays encoded).
        signature: :func:`run_signature` of the producing run — resume
            refuses a checkpoint whose signature does not match.
        complete: True when the run finished; resuming a complete
            checkpoint replays the stored result without re-simulating.
        meta: free-form caller context (the CLI stores the argv-level
            inputs here so ``repro resume`` can rebuild the run).
    """

    runner: str
    round: int
    rng_state: Dict[str, Any]
    payload: Dict[str, Any]
    signature: str
    complete: bool = False
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA_VERSION,
                "runner": self.runner,
                "round": int(self.round),
                "rng_state": _encode(self.rng_state),
                "payload": _encode(self.payload),
                "signature": self.signature,
                "complete": bool(self.complete),
                "meta": _encode(self.meta),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, source: str = "checkpoint") -> "CheckpointState":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckpointError(f"{source} is not valid JSON: {error}") from error
        if not isinstance(document, dict):
            raise CheckpointError(f"{source} must be a JSON object")
        if document.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint schema {document.get('schema')!r} in "
                f"{source} (expected {CHECKPOINT_SCHEMA_VERSION})"
            )
        for key in ("runner", "round", "rng_state", "payload", "signature"):
            if key not in document:
                raise CheckpointError(f"{source} is missing {key!r}")
        return cls(
            runner=document["runner"],
            round=int(document["round"]),
            rng_state=_decode(document["rng_state"]),
            payload=_decode(document["payload"]),
            signature=document["signature"],
            complete=bool(document.get("complete", False)),
            meta=_decode(document.get("meta", {})),
        )


def save_checkpoint(path: Union[str, Path], state: CheckpointState) -> None:
    """Atomically persist ``state`` at ``path`` (write tmp, fsync, rename)."""
    storage.publish(
        path, (state.to_json() + "\n").encode(),
        # The window the fault-injection suite aims at: tmp durable, rename
        # pending.  A kill here must leave the previous checkpoint readable.
        before_rename="checkpoint:after_tmp_write",
    )
    faults.crashpoint("checkpoint:after_rename")


def load_checkpoint(path: Union[str, Path]) -> CheckpointState:
    """Read a checkpoint document back; :class:`CheckpointError` on problems."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as error:
        raise CheckpointError(f"{path} is not UTF-8 text: {error}") from error
    return CheckpointState.from_json(text, source=str(path))


# ----------------------------------------------------------------------
# Runner-facing cadence object
# ----------------------------------------------------------------------


class Checkpointer:
    """Cadenced atomic checkpointing for one runner call.

    Fresh run::

        cp = Checkpointer("run.ckpt", every=500)
        times = simulate_ensemble(..., checkpoint=cp)

    Resume (after a crash or :class:`~repro.execution.shutdown.GracefulExit`)::

        cp = Checkpointer.resume("run.ckpt")
        times = simulate_ensemble(<same inputs, same seed>, checkpoint=cp)

    The runner calls :meth:`begin` with its :func:`run_signature` — which
    validates and hands back the resume state, if any — then :meth:`due` /
    :meth:`save` at round boundaries, and :meth:`finish` on completion.
    ``guard`` (a :class:`~repro.execution.shutdown.ShutdownGuard`) makes
    :meth:`should_stop` true after SIGINT/SIGTERM, which runners honour by
    saving a final checkpoint and raising ``GracefulExit``.
    """

    def __init__(
        self,
        path: Union[str, Path],
        every: int = DEFAULT_CHECKPOINT_EVERY,
        guard=None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if int(every) < 1:
            raise ValueError(f"checkpoint cadence must be >= 1 round, got {every}")
        self.path = Path(path)
        self.every = int(every)
        self.guard = guard
        self.meta = dict(meta or {})
        self.resume_state: Optional[CheckpointState] = None
        self.writes = 0
        self._signature: Optional[str] = None

    @classmethod
    def resume(
        cls,
        path: Union[str, Path],
        every: int = DEFAULT_CHECKPOINT_EVERY,
        guard=None,
    ) -> "Checkpointer":
        """A checkpointer primed with the state loaded from ``path``."""
        checkpointer = cls(path, every=every, guard=guard)
        checkpointer.resume_state = load_checkpoint(path)
        checkpointer.meta = dict(checkpointer.resume_state.meta)
        return checkpointer

    # -- runner protocol -------------------------------------------------

    def begin(self, runner: str, signature: str) -> Optional[CheckpointState]:
        """Validate the (optional) resume state against this run's identity."""
        self._signature = signature
        state = self.resume_state
        if state is None:
            return None
        if state.runner != runner:
            raise CheckpointError(
                f"checkpoint {self.path} was written by {state.runner!r}, "
                f"cannot resume a {runner!r} run"
            )
        if state.signature != signature:
            raise CheckpointError(
                f"checkpoint {self.path} belongs to a different run "
                f"(signature {state.signature} != {signature}); refusing to "
                "resume — protocol, parameters, seed, and generator must all match"
            )
        return state

    def due(self, completed_round: int) -> bool:
        """True when the cadence calls for a write at this round boundary."""
        return completed_round % self.every == 0

    def should_stop(self) -> bool:
        """True once the attached :class:`ShutdownGuard` saw SIGINT/SIGTERM."""
        return self.guard is not None and self.guard.requested

    def save(
        self,
        runner: str,
        completed_round: int,
        rng,
        payload: Dict[str, Any],
        complete: bool = False,
    ) -> CheckpointState:
        """Write one atomic checkpoint at a round boundary."""
        if self._signature is None:
            raise CheckpointError("Checkpointer.save before begin()")
        state = CheckpointState(
            runner=runner,
            round=int(completed_round),
            rng_state=rng.bit_generator.state,
            payload=payload,
            signature=self._signature,
            complete=complete,
            meta=self.meta,
        )
        save_checkpoint(self.path, state)
        self.writes += 1
        return state

    def finish(self, runner: str, completed_round: int, rng, payload) -> None:
        """Write the final ``complete=True`` checkpoint for a finished run."""
        self.save(runner, completed_round, rng, payload, complete=True)
