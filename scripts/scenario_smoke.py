#!/usr/bin/env python
"""Hostile-world kill-and-resume smoke test (scenario engine harness).

The fault_smoke matrix proves kill -> salvage -> resume determinism for
*clean* ensembles; this script proves the same contract holds with the
scenario engine in the loop (docs/SCENARIOS.md).  A composed hostile
world — agent churn + message loss + a mid-run source flip — runs
through the full durability protocol:

1. baseline ``ConvergenceStats`` for the hostile ensemble, uninterrupted
   (checkpointing on: it must not perturb the counter streams);
2. the same run in a subprocess with ``REPRO_FAULT=<site>`` so the
   process dies mid-run (exit 86, no cleanup);
3. the torn trace left behind must salvage to a valid prefix whose
   ``run_start`` header carries the canonical scenario spec;
4. resuming from the surviving checkpoint must reproduce the baseline
   statistics **bit-identically**, emit a timing-free trace that is a
   bit-identical tail of the baseline's, and finish with a ``run_end``
   carrying the recovery-time summary;
5. resuming the same checkpoint under a *different* scenario must refuse
   ("checkpoint belongs to a different run") — the hostile world is part
   of the run's identity.

Usage:
    PYTHONPATH=src python scripts/scenario_smoke.py
    PYTHONPATH=src python scripts/scenario_smoke.py ensemble:after_checkpoint:4

Exit 0 on pass, 1 on any violated invariant.  ``make scenario-smoke``
and CI drive this entry point.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.execution import EXIT_FAULT_INJECTED, Checkpointer  # noqa: E402
from repro.telemetry.jsonl import validate_trace  # noqa: E402

# A composite touching every hook class: churn (population), lossy
# (responses), flip-source (source/truth).  Small enough to finish in
# seconds; the flip at round 12 forces every replica past the settle
# gate, so recovery statistics are always exercised.
WORLD = {
    "n": 48,
    "z": 1,
    "x0": 24,
    "max_rounds": 4000,
    "replicas": 8,
    "seed": 11,
    "every": 5,
    "scenario": "churn:period=8,amplitude=4+lossy:rate=0.1+flip-source:at=12",
}

DEFAULT_FAULT = "ensemble:after_round:25"


def _stats_dict(stats) -> dict:
    return {
        "trials": stats.trials,
        "censored": stats.censored,
        "budget": stats.budget,
        "median": stats.median,
        "q10": stats.q10,
        "q90": stats.q90,
        "mean_converged": stats.mean_converged,
        "min": stats.min,
        "max_converged": stats.max_converged,
    }


def _run_hostile(outdir: pathlib.Path, resume: bool, scenario: str = None) -> dict:
    """Worker body: run (or resume) the hostile ensemble to completion."""
    from repro.analysis.ensemble import convergence_ensemble
    from repro.dynamics.config import Configuration
    from repro.dynamics.rng import make_rng
    from repro.protocols import voter
    from repro.telemetry import open_trace_writer

    checkpoint_path = outdir / "hostile.ckpt"
    if resume:
        checkpoint = Checkpointer.resume(checkpoint_path, every=WORLD["every"])
    else:
        checkpoint = Checkpointer(checkpoint_path, every=WORLD["every"])
    # Small chunks, so a mid-run kill leaves whole round chunks to salvage
    # rather than only the header (a hard kill loses the buffered chunk).
    trace = open_trace_writer(
        outdir / "hostile.jsonl", "jsonl", include_timings=False,
        chunk_rounds=8,
    )
    try:
        stats = convergence_ensemble(
            voter(1),
            Configuration(n=WORLD["n"], z=WORLD["z"], x0=WORLD["x0"]),
            WORLD["max_rounds"],
            make_rng(WORLD["seed"]),
            WORLD["replicas"],
            recorder=trace,
            checkpoint=checkpoint,
            scenario=scenario or WORLD["scenario"],
        )
    finally:
        trace.close()
    return _stats_dict(stats)


def _worker(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("outdir", type=pathlib.Path)
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args(argv)
    stats = _run_hostile(args.outdir, resume=args.resume)
    (args.outdir / "stats.json").write_text(json.dumps(stats, sort_keys=True) + "\n")
    return 0


def _spawn_worker(outdir: pathlib.Path, fault: str = "", resume: bool = False):
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()), "--worker",
        str(outdir),
    ]
    if resume:
        command.append("--resume")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if fault:
        env["REPRO_FAULT"] = fault
    else:
        env.pop("REPRO_FAULT", None)
    env.pop("REPRO_FAULT_STICKY", None)
    return subprocess.run(command, env=env, capture_output=True, text=True)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--worker":
        return _worker(argv[1:])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fault", nargs="?", default=DEFAULT_FAULT,
        help=f"crashpoint spec (default: {DEFAULT_FAULT})",
    )
    parser.add_argument(
        "--workdir", type=pathlib.Path, default=None,
        help="scratch directory (default: a fresh tempdir)",
    )
    args = parser.parse_args(argv)

    if args.workdir is None:
        import tempfile

        scratch = tempfile.TemporaryDirectory(prefix="scenario_smoke_")
        workdir = pathlib.Path(scratch.name)
    else:
        workdir = args.workdir
        workdir.mkdir(parents=True, exist_ok=True)

    label = f"{WORLD['scenario']} fault={args.fault}"

    def fail(message: str) -> int:
        print(f"scenario_smoke[{label}]: FAIL: {message}", file=sys.stderr)
        return 1

    from repro.dynamics.scenarios import make_scenario

    canonical = make_scenario(WORLD["scenario"], WORLD["n"]).spec()

    # 1. Baseline, in-process, uninterrupted.
    baseline_dir = workdir / "baseline"
    baseline_dir.mkdir()
    os.environ.pop("REPRO_FAULT", None)
    baseline = _run_hostile(baseline_dir, resume=False)

    # 2. Faulted run: the subprocess must die at the crashpoint.
    faulted_dir = workdir / "faulted"
    faulted_dir.mkdir()
    faulted = _spawn_worker(faulted_dir, fault=args.fault)
    if faulted.returncode != EXIT_FAULT_INJECTED:
        return fail(
            f"faulted worker exited {faulted.returncode}, expected "
            f"{EXIT_FAULT_INJECTED}\n{faulted.stdout}\n{faulted.stderr}"
        )
    checkpoint_path = faulted_dir / "hostile.ckpt"
    if not checkpoint_path.exists():
        return fail("no checkpoint survived the injected crash")

    # 3. The torn trace must salvage to a valid prefix that already
    #    carries the hostile world's identity.
    torn = faulted_dir / "hostile.jsonl.tmp"
    if not torn.exists():
        return fail("no torn trace left behind by the crash")
    salvaged = validate_trace(torn, salvage=True)
    if not salvaged or salvaged[0].get("kind") != "run_start":
        return fail("torn trace did not salvage to a valid prefix")
    header_spec = salvaged[0].get("params", {}).get("scenario")
    if header_spec != canonical:
        return fail(
            f"salvaged header names scenario {header_spec!r}, "
            f"expected {canonical!r}"
        )

    # 4. Resume: bit-identical stats, bit-identical trace tail, and a
    #    run_end carrying the recovery summary.
    resumed = _spawn_worker(faulted_dir, resume=True)
    if resumed.returncode != 0:
        return fail(
            f"resume worker exited {resumed.returncode}\n"
            f"{resumed.stdout}\n{resumed.stderr}"
        )
    resumed_stats = json.loads((faulted_dir / "stats.json").read_text())
    if resumed_stats != baseline:
        return fail(
            "resumed stats differ from baseline:\n"
            f"  baseline: {json.dumps(baseline, sort_keys=True)}\n"
            f"  resumed:  {json.dumps(resumed_stats, sort_keys=True)}"
        )

    def round_lines(path: pathlib.Path) -> list:
        return [
            line for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "round"
        ]

    baseline_rounds = round_lines(baseline_dir / "hostile.jsonl")
    resumed_rounds = round_lines(faulted_dir / "hostile.jsonl")
    if not resumed_rounds:
        return fail("resumed trace recorded no rounds")
    if resumed_rounds != baseline_rounds[-len(resumed_rounds):]:
        return fail("resumed trace is not a bit-identical tail of the baseline's")

    end = next(
        record
        for record in validate_trace(faulted_dir / "hostile.jsonl")
        if record.get("kind") == "run_end"
    )
    if end.get("scenario") != canonical or "recovered" not in end:
        return fail(
            f"resumed run_end lacks the recovery summary: {json.dumps(end)}"
        )

    # 5. The checkpoint must refuse a different hostile world.
    from repro.execution import CheckpointError

    try:
        _run_hostile(faulted_dir, resume=True, scenario="lossy:rate=0.2")
    except CheckpointError as error:
        if "different run" not in str(error):
            return fail(f"mismatch refusal had the wrong message: {error}")
    else:
        return fail(
            "resuming under a different scenario should refuse, but ran"
        )

    print(
        f"scenario_smoke[{label}]: PASS — killed at the crashpoint, "
        f"salvaged {len(salvaged)} records (header spec {canonical!r}), "
        f"resumed bit-identical ({len(resumed_rounds)}-round trace tail, "
        f"recovered={end['recovered']}, recovery_p90={end.get('recovery_p90')}), "
        f"scenario-mismatch resume refused"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
