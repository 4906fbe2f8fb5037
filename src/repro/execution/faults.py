"""Deterministic fault injection: seeded crashpoints for durability tests.

A *crashpoint* is a named place in the code where the process may be made
to die — hard, via ``os._exit``, simulating a SIGKILL/OOM — on a chosen
visit.  Which crashpoint fires, and on which visit, is controlled entirely
by the ``REPRO_FAULT`` environment variable::

    REPRO_FAULT=ensemble:after_replica:7   # die when the 7th replica converges
    REPRO_FAULT=ensemble:after_round:25    # die after the 25th lock-step round
    REPRO_FAULT=checkpoint:after_tmp_write # die between tmp write and rename
    REPRO_FAULT=trace:mid_write:3          # die half-way through trace chunk 3

The spec is ``<site>[:<hit>]`` — the trailing integer (default 1, 1-based)
selects which visit to the site is fatal; everything before it is the site
name (which may itself contain colons).  With ``REPRO_FAULT`` unset every
crashpoint is a near-free dictionary lookup, and crashpoints are only
placed at round/write boundaries, never inside per-agent hot loops.  The
round loops of :func:`~repro.dynamics.run.simulate` and
:func:`~repro.dynamics.run.simulate_ensemble` go further: they read
``REPRO_FAULT`` (through :func:`armed`) once, when a run starts, and skip
their crashpoints altogether when it is unset.

This is how the kill-and-resume invariants are *proven*: CI sets a spec,
watches the process die with :data:`~repro.execution.shutdown.
EXIT_FAULT_INJECTED`, resumes from the checkpoint, and asserts bit-identical
results (``scripts/fault_smoke.py``).  The registered site names are listed
in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict, NoReturn, Optional

from repro.execution.shutdown import EXIT_FAULT_INJECTED

__all__ = [
    "FAULT_ENV_VAR",
    "FaultSpec",
    "parse_fault_spec",
    "armed",
    "crashpoint",
    "should_trip",
    "trip",
    "reset",
]

FAULT_ENV_VAR = "REPRO_FAULT"


@dataclass(frozen=True)
class FaultSpec:
    """A parsed ``REPRO_FAULT`` value: which site dies, on which visit."""

    site: str
    hit: int = 1


def parse_fault_spec(text: Optional[str]) -> Optional[FaultSpec]:
    """Parse ``<site>[:<hit>]`` (``None``/empty → no fault armed)."""
    if not text or not text.strip():
        return None
    text = text.strip()
    head, sep, tail = text.rpartition(":")
    if sep and tail.isdigit():
        site, hit = head, int(tail)
    else:
        site, hit = text, 1
    if not site:
        raise ValueError(f"invalid {FAULT_ENV_VAR} spec {text!r}: empty site name")
    if hit < 1:
        raise ValueError(f"invalid {FAULT_ENV_VAR} spec {text!r}: hit must be >= 1")
    return FaultSpec(site=site, hit=hit)


# Visit counters per site, keyed by the raw env value they were counted
# under so a spec change (tests flipping the env) resets the counts.
_counts: Dict[str, int] = {}
_counted_for: Optional[str] = None


def _active_spec() -> Optional[FaultSpec]:
    global _counted_for
    text = os.environ.get(FAULT_ENV_VAR)
    if not text:
        return None
    if text != _counted_for:
        _counts.clear()
        _counted_for = text
    return parse_fault_spec(text)


def armed() -> bool:
    """True when ``REPRO_FAULT`` is set (a runner's once-per-run guard)."""
    return bool(os.environ.get(FAULT_ENV_VAR))


def reset() -> None:
    """Forget all visit counts (test isolation helper)."""
    global _counted_for
    _counts.clear()
    _counted_for = None


def should_trip(site: str) -> bool:
    """Count a visit to ``site``; True when this visit is the fatal one.

    For call sites that must do last-words work *before* dying (e.g. the
    trace writer flushing a deliberately half-written line): check
    ``should_trip``, stage the wreckage, then call :func:`trip`.
    Plain call sites use :func:`crashpoint`, which combines both.
    """
    spec = _active_spec()
    if spec is None or spec.site != site:
        return False
    count = _counts.get(site, 0) + 1
    _counts[site] = count
    return count == spec.hit


def trip(site: str) -> NoReturn:
    """Die hard, like a SIGKILL would: no atexit, no finally, no flushing.

    stdio is flushed first so the death itself is observable in CI logs,
    but nothing else gets a chance to clean up — that is the point.
    """
    print(f"repro: fault injected at crashpoint {site!r}", file=sys.stderr)
    sys.stderr.flush()
    sys.stdout.flush()
    os._exit(EXIT_FAULT_INJECTED)


def crashpoint(site: str) -> None:
    """Die at ``site`` iff ``REPRO_FAULT`` selects this visit; else no-op."""
    if should_trip(site):
        trip(site)
