#!/usr/bin/env python
"""Kill-and-resume determinism smoke test (fault-injection harness).

For a given crashpoint (see :mod:`repro.execution.faults`), this script:

1. computes baseline ``ConvergenceStats`` for a fixed ensemble, uninterrupted;
2. re-runs the same ensemble in a subprocess with ``REPRO_FAULT=<site>`` so
   the process dies mid-run (``os._exit``, exit code 86 — no cleanup, the
   closest stdlib stand-in for SIGKILL);
3. resumes from the surviving checkpoint in a fresh subprocess;
4. asserts the resumed stats are **bit-identical** to the baseline, that
   the torn trace left behind is salvageable
   (``validate_trace(..., salvage=True)`` — format-sniffing, so the same
   check covers both sinks), and that the resumed run's timing-free trace
   is a **bit-identical tail** of the baseline's — every round record the
   resumed run emits matches the uninterrupted run's record for the same
   round.  With ``--trace-format jsonl`` (the default) the tail check is
   byte-for-byte on the raw lines; with ``--trace-format columnar`` the
   run streams through :class:`ColumnarTraceWriter` (small
   ``chunk_rounds`` so ``trace:mid_write`` tears a mid-run chunk) and the
   tail check compares canonical record encodings, since the container
   frames records in chunks rather than lines.

Every serial leg also composes a :class:`HeartbeatRecorder` with the
trace (interval 0.0 — one write per round, so crashpoint visit counts
stay deterministic).  For ``heartbeat:*`` fault sites the protocol
additionally proves torn-heartbeat salvage: the killed run must leave a
heartbeat file that :func:`read_heartbeat` refuses (returns ``None``
instead of raising), and the resumed run must overwrite it with a valid
``status="done"`` document.

With ``--parallel`` the scenario instead runs through the supervised
worker pool (:mod:`repro.execution.supervisor`): the baseline is computed
in-process at ``workers=1`` and must equal an in-process serial
``convergence_ensemble`` of the same spec (the supervised loss-accounting
fields aside).  Then a subprocess runs the same ensemble at ``workers=2``
with ``REPRO_FAULT`` armed on shard 1 only — the injected kill lands
inside one worker, the supervisor retries that shard from its own
checkpoint, and the subprocess exits 0 with statistics that must be
**bit-identical** to the unfaulted baseline, and so to the serial call
(plus at least one recorded retry, and a merged trace that validates
strictly).

Usage:
    PYTHONPATH=src python scripts/fault_smoke.py ensemble:after_replica:2
    PYTHONPATH=src python scripts/fault_smoke.py checkpoint:after_tmp_write:3
    PYTHONPATH=src python scripts/fault_smoke.py --parallel ensemble:after_round:25
    PYTHONPATH=src python scripts/fault_smoke.py --trace-format columnar trace:mid_write:12

Exit 0 on pass, 1 on any violated invariant.  The CI fault-injection
matrix and ``tests/execution/test_faults.py`` both drive this entry point,
so local pytest and CI exercise one code path.
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
from repro.telemetry.heartbeat import read_heartbeat  # noqa: E402
from repro.telemetry.jsonl import validate_trace  # noqa: E402

# Fixed scenario: small enough to finish in seconds, long enough that every
# supported crashpoint fires well after the first checkpoint write.
SCENARIO = {
    "n": 96,
    "z": 1,
    "max_rounds": 5000,
    "replicas": 8,
    "seed": 7,
    "every": 5,
}

# Columnar fault legs buffer this many rounds per chunk: small enough that
# ``trace:mid_write`` visits a chunk write early and often, large enough
# that a torn chunk really does straddle many records.
FAULT_CHUNK_ROUNDS = 64


def _trace_name(trace_format: str) -> str:
    return "ensemble.jsonl" if trace_format == "jsonl" else "ensemble.ctrace"


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
        "failed_shards": stats.failed_shards,
        "attempted_trials": stats.attempted_trials,
    }


def _run_ensemble(
    outdir: pathlib.Path,
    resume: bool,
    with_trace: bool,
    trace_format: str = "jsonl",
) -> dict:
    """Worker body: run (or resume) the scenario ensemble to completion."""
    from repro.analysis.ensemble import convergence_ensemble
    from repro.dynamics.config import wrong_consensus_configuration
    from repro.dynamics.rng import make_rng
    from repro.protocols import voter
    from repro.telemetry import (
        HeartbeatRecorder,
        compose_recorders,
        open_trace_writer,
    )

    checkpoint_path = outdir / "ensemble.ckpt"
    if resume:
        checkpoint = Checkpointer.resume(checkpoint_path, every=SCENARIO["every"])
    else:
        checkpoint = Checkpointer(checkpoint_path, every=SCENARIO["every"])
    sink_kwargs = (
        {"chunk_rounds": FAULT_CHUNK_ROUNDS} if trace_format == "columnar" else {}
    )
    trace = (
        open_trace_writer(
            outdir / _trace_name(trace_format),
            trace_format,
            include_timings=False,
            **sink_kwargs,
        )
        if with_trace
        else None
    )
    # interval_s=0.0: one heartbeat write per round, so the heartbeat:*
    # crashpoint visit counts are deterministic across runs.
    beat = HeartbeatRecorder(
        outdir / "ensemble.heartbeat.json", role="run", interval_s=0.0
    )
    try:
        stats = convergence_ensemble(
            voter(1),
            wrong_consensus_configuration(SCENARIO["n"], SCENARIO["z"]),
            SCENARIO["max_rounds"],
            make_rng(SCENARIO["seed"]),
            SCENARIO["replicas"],
            recorder=compose_recorders(trace, beat),
            checkpoint=checkpoint,
        )
    finally:
        if trace is not None:
            trace.close()
    return _stats_dict(stats)


def _run_serial_ensemble() -> dict:
    """The scenario as one serial ``convergence_ensemble`` call, in-process."""
    from repro.analysis.ensemble import convergence_ensemble
    from repro.dynamics.config import wrong_consensus_configuration
    from repro.dynamics.rng import make_rng
    from repro.protocols import voter

    return _stats_dict(convergence_ensemble(
        voter(1),
        wrong_consensus_configuration(SCENARIO["n"], SCENARIO["z"]),
        SCENARIO["max_rounds"],
        make_rng(SCENARIO["seed"]),
        SCENARIO["replicas"],
    ))


def _run_parallel_ensemble(outdir: pathlib.Path, workers: int) -> dict:
    """Run the scenario through the supervised pool; return stats + accounting."""
    from repro.dynamics.config import wrong_consensus_configuration
    from repro.dynamics.rng import make_rng
    from repro.execution.supervisor import (
        SupervisorConfig,
        run_supervised_ensemble,
        summarize_supervised,
    )
    from repro.protocols import voter

    result = run_supervised_ensemble(
        voter(1),
        wrong_consensus_configuration(SCENARIO["n"], SCENARIO["z"]),
        SCENARIO["max_rounds"],
        make_rng(SCENARIO["seed"]),
        SCENARIO["replicas"],
        supervisor=SupervisorConfig(
            workers=workers, shards=4, backoff_base_s=0.05
        ),
        checkpoint_base=outdir / "ensemble.ckpt",
        checkpoint_every=SCENARIO["every"],
        trace_path=outdir / "ensemble.jsonl",
    )
    stats = summarize_supervised(result, budget=SCENARIO["max_rounds"])
    return {
        "stats": _stats_dict(stats),
        "supervision": {
            "retries": result.retries,
            "timeouts": result.timeouts,
            "failed_shards": result.failed_shards,
        },
    }


def _worker(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("outdir", type=pathlib.Path)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--parallel", action="store_true")
    parser.add_argument(
        "--trace-format", choices=("jsonl", "columnar"), default="jsonl"
    )
    args = parser.parse_args(argv)
    if args.parallel:
        document = _run_parallel_ensemble(args.outdir, workers=2)
        (args.outdir / "stats.json").write_text(
            json.dumps(document, sort_keys=True) + "\n"
        )
        return 0
    stats = _run_ensemble(
        args.outdir,
        resume=args.resume,
        with_trace=True,
        trace_format=args.trace_format,
    )
    (args.outdir / "stats.json").write_text(json.dumps(stats, sort_keys=True) + "\n")
    return 0


def _spawn_worker(
    outdir: pathlib.Path,
    fault: str = "",
    resume: bool = False,
    parallel: bool = False,
    fault_shard: str = "",
    trace_format: str = "jsonl",
):
    command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--worker",
               str(outdir), "--trace-format", trace_format]
    if resume:
        command.append("--resume")
    if parallel:
        command.append("--parallel")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if fault:
        env["REPRO_FAULT"] = fault
    else:
        env.pop("REPRO_FAULT", None)
    if fault_shard:
        env["REPRO_FAULT_SHARD"] = fault_shard
    else:
        env.pop("REPRO_FAULT_SHARD", None)
    env.pop("REPRO_FAULT_STICKY", None)
    return subprocess.run(command, env=env, capture_output=True, text=True)


def _main_parallel(args, workdir: pathlib.Path) -> int:
    """The --parallel flow: kill one worker's shard, supervisor retries."""

    def fail(message: str) -> int:
        print(
            f"fault_smoke[--parallel {args.fault}]: FAIL: {message}",
            file=sys.stderr,
        )
        return 1

    # 1. Baseline: in-process, workers=1, unfaulted.  It must equal the
    #    serial call field for field, the supervised loss accounting aside.
    #    The faulted run below uses workers=2, so a matching result also
    #    witnesses worker-count invariance.
    baseline_dir = workdir / "baseline"
    baseline_dir.mkdir()
    for var in ("REPRO_FAULT", "REPRO_FAULT_SHARD", "REPRO_FAULT_STICKY"):
        os.environ.pop(var, None)
    baseline = _run_parallel_ensemble(baseline_dir, workers=1)
    if baseline["supervision"] != {"retries": 0, "timeouts": 0, "failed_shards": 0}:
        return fail(f"baseline run was not clean: {baseline['supervision']}")
    def without_loss_accounting(stats: dict) -> dict:
        return {key: value for key, value in stats.items()
                if key not in ("failed_shards", "attempted_trials")}

    serial = without_loss_accounting(_run_serial_ensemble())
    pooled = without_loss_accounting(baseline["stats"])
    if pooled != serial:
        return fail(
            "workers=1 pool stats differ from the serial convergence_ensemble:\n"
            f"  serial: {json.dumps(serial, sort_keys=True)}\n"
            f"  pool:   {json.dumps(pooled, sort_keys=True)}"
        )

    # 2. Faulted: a subprocess runs the pool at workers=2 with the fault
    #    armed on shard 1 only.  The kill lands inside one worker; the
    #    supervisor retries that shard from its own checkpoint, so the
    #    subprocess itself exits 0.
    faulted_dir = workdir / "faulted"
    faulted_dir.mkdir()
    completed = _spawn_worker(
        faulted_dir, fault=args.fault, parallel=True, fault_shard="1"
    )
    if completed.returncode != 0:
        return fail(
            f"supervised worker exited {completed.returncode}; the pool "
            f"should have absorbed the fault\n{completed.stdout}\n"
            f"{completed.stderr}"
        )
    document = json.loads((faulted_dir / "stats.json").read_text())
    supervision = document["supervision"]
    if supervision["retries"] < 1:
        return fail(
            "supervisor recorded no retry — the fault never fired in a worker"
        )
    if supervision["failed_shards"] != 0:
        return fail(
            f"{supervision['failed_shards']} shard(s) quarantined; a "
            "transient fault must recover by retry"
        )

    # 3. The recovered statistics must be bit-identical to the unfaulted
    #    workers=1 baseline (and so to the serial call).
    if document["stats"] != baseline["stats"]:
        return fail(
            "recovered stats differ from the unfaulted baseline:\n"
            f"  baseline: {json.dumps(baseline['stats'], sort_keys=True)}\n"
            f"  faulted:  {json.dumps(document['stats'], sort_keys=True)}"
        )

    # 4. The merged trace (shard 1's part being the resumed tail) must
    #    still validate strictly.
    records = validate_trace(faulted_dir / "ensemble.jsonl")
    shard_rounds = sum(
        1 for r in records if r.get("kind") == "round" and r.get("shard") == 1
    )

    print(
        f"fault_smoke[--parallel {args.fault}]: PASS — worker killed at the "
        f"crashpoint, shard retried ({supervision['retries']} retries), "
        f"stats bit-identical to the workers=1 baseline and the serial "
        f"call, merged trace valid ({len(records)} records, "
        f"{shard_rounds} resumed-shard rounds, "
        f"median={baseline['stats']['median']})"
    )
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--worker":
        return _worker(argv[1:])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fault", help="crashpoint spec, e.g. ensemble:after_replica:2"
    )
    parser.add_argument(
        "--workdir", type=pathlib.Path, default=None,
        help="scratch directory (default: a fresh tempdir)",
    )
    parser.add_argument(
        "--parallel", action="store_true",
        help="run the scenario through the supervised worker pool: kill one "
             "worker's shard, assert the retry recovers bit-identically",
    )
    parser.add_argument(
        "--trace-format", choices=("jsonl", "columnar"), default="jsonl",
        help="trace sink for the serial kill-and-resume legs (the columnar "
             "variant proves chunk-granularity salvage; ignored by --parallel)",
    )
    args = parser.parse_args(argv)

    if args.workdir is None:
        import tempfile

        scratch = tempfile.TemporaryDirectory(prefix="fault_smoke_")
        workdir = pathlib.Path(scratch.name)
    else:
        workdir = args.workdir
        workdir.mkdir(parents=True, exist_ok=True)

    if args.parallel:
        return _main_parallel(args, workdir)

    label = f"{args.fault} trace={args.trace_format}"

    def fail(message: str) -> int:
        print(f"fault_smoke[{label}]: FAIL: {message}", file=sys.stderr)
        return 1

    trace_name = _trace_name(args.trace_format)

    # 1. Baseline, in-process, uninterrupted (checkpointing on: it must not
    #    perturb the random stream).
    baseline_dir = workdir / "baseline"
    baseline_dir.mkdir()
    os.environ.pop("REPRO_FAULT", None)
    baseline = _run_ensemble(
        baseline_dir, resume=False, with_trace=True,
        trace_format=args.trace_format,
    )

    # 2. Faulted run: the subprocess must die at the crashpoint.
    faulted_dir = workdir / "faulted"
    faulted_dir.mkdir()
    faulted = _spawn_worker(
        faulted_dir, fault=args.fault, trace_format=args.trace_format
    )
    if faulted.returncode != EXIT_FAULT_INJECTED:
        return fail(
            f"faulted worker exited {faulted.returncode}, expected "
            f"{EXIT_FAULT_INJECTED}\n{faulted.stdout}\n{faulted.stderr}"
        )
    checkpoint_path = faulted_dir / "ensemble.ckpt"
    if not checkpoint_path.exists():
        return fail("no checkpoint survived the injected crash")

    # 2b. heartbeat:* crashpoints publish half a heartbeat *through the
    #     rename* before dying — the one way a reader can meet a torn
    #     heartbeat.  Prove the reader's salvage tolerance: the file must
    #     exist, and read_heartbeat must refuse it (None, not a raise).
    heartbeat_file = faulted_dir / "ensemble.heartbeat.json"
    if args.fault.startswith("heartbeat:"):
        if not heartbeat_file.exists():
            return fail("heartbeat crashpoint fired but left no heartbeat file")
        if read_heartbeat(heartbeat_file) is not None:
            return fail(
                "heartbeat crashpoint should have left a torn heartbeat "
                "that read_heartbeat refuses"
            )

    # 3. The torn trace (still at its .tmp name — the rename never ran) must
    #    salvage to a non-empty valid prefix.  validate_trace sniffs the
    #    format, so the same call covers a torn JSONL line and a torn
    #    columnar chunk.
    torn = faulted_dir / (trace_name + ".tmp")
    if not torn.exists():
        return fail("no torn trace left behind by the crash")
    salvaged = validate_trace(torn, salvage=True)
    if not salvaged or salvaged[0].get("kind") != "run_start":
        return fail("torn trace did not salvage to a valid prefix")

    # 4. Resume from the surviving checkpoint; stats must be bit-identical.
    resumed = _spawn_worker(
        faulted_dir, resume=True, trace_format=args.trace_format
    )
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

    # 4b. The resumed run must have replaced whatever the crash left (a
    #     stale "running" heartbeat, or the torn file from 2b) with a
    #     parsable terminal one.
    final_beat = read_heartbeat(heartbeat_file)
    if final_beat is None or final_beat.status != "done":
        status = None if final_beat is None else final_beat.status
        return fail(
            "resumed run did not publish a terminal heartbeat "
            f"(read back: {status!r}, expected 'done')"
        )

    # 5. The resumed run's timing-free trace must be a bit-identical tail
    #    of the baseline's: same rounds => same records.  JSONL is compared
    #    on the raw line bytes; the columnar container frames records in
    #    chunks (whose boundaries legitimately differ after a resume), so
    #    it is compared on canonical record encodings instead.
    def round_lines(path: pathlib.Path) -> list:
        if args.trace_format == "jsonl":
            return [
                line for line in path.read_text().splitlines()
                if json.loads(line).get("kind") == "round"
            ]
        return [
            json.dumps(record, sort_keys=True)
            for record in validate_trace(path)
            if record.get("kind") == "round"
        ]

    baseline_rounds = round_lines(baseline_dir / trace_name)
    resumed_rounds = round_lines(faulted_dir / trace_name)
    if not resumed_rounds:
        return fail("resumed trace recorded no rounds")
    if resumed_rounds != baseline_rounds[-len(resumed_rounds):]:
        return fail("resumed trace is not a bit-identical tail of the baseline's")

    print(
        f"fault_smoke[{label}]: PASS — killed at the crashpoint, "
        f"salvaged {len(salvaged)} trace records, resumed bit-identical "
        f"({len(resumed_rounds)}-round bit-identical trace tail, "
        f"terminal heartbeat {final_beat.status!r}, "
        f"median={baseline['median']}, censored={baseline['censored']})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
