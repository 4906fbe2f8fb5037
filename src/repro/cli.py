"""Command-line interface: audit, simulate, and sweep protocols.

Usage (installed as ``python -m repro``):

    python -m repro list
    python -m repro audit minority-3 --n 4096
    python -m repro audit table:0,0.2,0.8,1 --n 1024
    python -m repro run voter --n 1000 --z 1 --x0 1 --rounds 100000
    python -m repro run voter --n 100000 --checkpoint run.ckpt --checkpoint-every 500
    python -m repro resume run.ckpt
    python -m repro trace validate results/run.jsonl --salvage
    python -m repro run voter --trace run.ctrace --trace-format columnar
    python -m repro trace convert results/run.jsonl results/run.ctrace
    python -m repro trace index results/
    python -m repro sweep voter --sizes 128,256,512,1024 --replicas 10
    python -m repro landscape minority-3
    python -m repro bench --smoke --timeout 60
    python -m repro report results/ --strict
    python -m repro run voter --replicas 64 --workers 4 --checkpoint run.ckpt \\
        --metrics-port 0
    python -m repro run voter --replicas 64 --scenario churn:period=16 \\
        --scenario lossy:rate=0.1
    python -m repro scenarios list
    python -m repro watch run.ckpt

Protocols are resolved from the registry (:mod:`repro.protocols.registry`)
or given inline as ``table:<g0 entries>[;<g1 entries>]`` — comma-separated
response probabilities, length ``ell + 1``.

Output hygiene: stdout carries the command's machine-parseable result
(key=value lines, CSV tables, or ``--json`` documents); progress notes,
telemetry summaries, and ASCII plots go to stderr.

Exit codes are per failure class (:mod:`repro.execution.shutdown`): 0 ok,
1 usage/operational error, 2 run did not converge, 3 invalid trace,
4 benchmark regression (``report --strict``), 5 interrupted with a
checkpoint saved, 6 benchmark timeout (``bench --timeout``), 7 partial
ensemble results (``run --workers``: shards lost past their retry budget),
86 fault injected (``REPRO_FAULT`` crashpoint reached — the fault-smoke
harness's deterministic kill).  The authoritative table is generated into
docs/API.md ("Exit codes") from :data:`repro.execution.shutdown.EXIT_CODES`.

Live observability (``--metrics-port`` / ``--metrics-textfile`` /
``--profile`` and the ``watch`` subcommand) is wired here and only here:
the runners stay observability-free, the supervisor takes opt-in
heartbeat/profile paths, and :mod:`repro.telemetry.prometheus` /
:mod:`repro.telemetry.profiling` are demand-imported so plain runs never
pay for them.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
import tempfile
from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.scaling import fit_power_law
from repro.analysis.series import Series, Table, ascii_plot
from repro.core.bias import bias_value
from repro.core.lower_bound import lower_bound_certificate, verify_escape_assumptions
from repro.core.protocol import Protocol
from repro.core.roots import is_zero_bias, sign_profile
from repro.dynamics.batched import ENGINES
from repro.dynamics.config import Configuration, wrong_consensus_configuration
from repro.dynamics.rng import make_rng
from repro.dynamics.run import simulate, simulate_ensemble
from repro.execution import (
    DEFAULT_CHECKPOINT_EVERY,
    EXIT_BENCH_TIMEOUT,
    EXIT_ERROR,
    EXIT_INTERRUPTED,
    EXIT_INVALID_TRACE,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_PERF_REGRESSION,
    EXIT_SHARDS_LOST,
    CheckpointError,
    Checkpointer,
    GracefulExit,
    ShutdownGuard,
    load_checkpoint,
)
from repro.protocols import available_protocols, get_family, table_protocol
from repro.telemetry import (
    TRACE_FORMATS,
    MetricsRecorder,
    compose_recorders,
    open_trace_writer,
)

__all__ = ["main", "resolve_protocol"]


def resolve_protocol(spec: str, n: int) -> Protocol:
    """Resolve a protocol spec: a registry name or ``table:...`` literal."""
    if spec.startswith("table:"):
        body = spec[len("table:"):]
        parts = body.split(";")
        g0 = [float(v) for v in parts[0].split(",") if v.strip()]
        g1 = (
            [float(v) for v in parts[1].split(",") if v.strip()]
            if len(parts) > 1
            else None
        )
        return table_protocol(g0, g1, name=spec)
    return get_family(spec).at(n)


def _cmd_list(_: argparse.Namespace) -> int:
    for name in available_protocols():
        print(name)
    return 0


def _cmd_scenarios_list(_: argparse.Namespace) -> int:
    """Print the scenario registry with parameter schemas (machine-greppable).

    One ``name: summary`` line per scenario, then one indented
    ``  key (kind, default=...): doc`` line per parameter — the same
    spec grammar ``--scenario NAME[:k=v,...]`` accepts.
    """
    from repro.dynamics.scenarios import available_scenarios, get_scenario_family

    for name in available_scenarios():
        family = get_scenario_family(name)
        print(f"{name}: {family.summary}")
        for param in family.params:
            print(
                f"  {param.name} ({param.kind}, default={param.default}): "
                f"{param.doc}"
            )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    protocol = resolve_protocol(args.protocol, args.n)
    print(f"protocol: {protocol!r}")
    if not protocol.satisfies_boundary_conditions():
        print("Proposition 3 VIOLATED: g[0](0) > 0 or g[1](ell) < 1.")
        print("This protocol cannot solve bit-dissemination (tau = +inf).")
        return 1
    print("Proposition 3: ok (consensus absorbing)")
    if is_zero_bias(protocol):
        print("bias: F = 0 identically (Lemma-11 / Voter-like)")
    else:
        profile = sign_profile(protocol)
        print(f"roots of F: {np.round(profile.roots, 6).tolist()}")
        print(f"signs between roots: {list(profile.signs)}")
    certificate = lower_bound_certificate(protocol)
    print(certificate.describe())
    report = verify_escape_assumptions(certificate, args.n, epsilon=args.epsilon)
    print(
        f"assumptions at n={args.n}: drift_ok={report.drift_ok} "
        f"(margin {report.worst_drift_margin:.3f}), "
        f"jump tail {report.jump_tail_bound:.3e}, "
        f"concentration tail {report.concentration_tail_bound:.3e}"
    )
    witness = certificate.witness_configuration(args.n)
    print(
        f"witness: z={witness.z}, x0={witness.x0}; lower bound: "
        f">= {report.predicted_rounds:.0f} rounds (eps={args.epsilon})"
    )
    return 0


def _metrics_collector(metrics, heartbeat_base):
    """Build the ``/metrics`` payload closure for a (possibly live) run.

    Re-reads heartbeat files on every call, so a scrape mid-run reflects
    the workers' latest atomic writes; the recorder snapshot is whatever
    aggregates the parent process holds at that instant.
    """
    from repro.telemetry.heartbeat import discover_heartbeats
    from repro.telemetry.prometheus import render_metrics

    def collect() -> str:
        beats = []
        if heartbeat_base is not None:
            beats = [
                beat
                for _, beat in discover_heartbeats(heartbeat_base)
                if beat is not None
            ]
        return render_metrics(
            metrics.metrics() if metrics is not None else None, beats
        )

    return collect


def _start_metrics_server(port: int, collect):
    """Start the exporter thread and announce its URL on stderr."""
    from repro.telemetry.prometheus import MetricsServer

    server = MetricsServer(collect, port=port).start()
    # Parsed by scripts/metrics_smoke.py — keep the "metrics: serving "
    # prefix stable, and flush so a mid-run scraper sees it immediately.
    print(f"metrics: serving {server.url}", file=sys.stderr, flush=True)
    return server


def _export_span_profile(metrics, profile_dir, name: str) -> None:
    """Write the run's span aggregates as a speedscope flamegraph."""
    from repro.telemetry.profiling import spans_to_speedscope, write_speedscope

    target = pathlib.Path(profile_dir) / "spans.speedscope.json"
    write_speedscope(target, spans_to_speedscope(metrics.metrics().spans, name))
    print(f"profile: wrote {target}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    protocol = resolve_protocol(args.protocol, args.n)
    low, high = Configuration.count_bounds(args.n, args.z)
    x0 = args.x0 if args.x0 is not None else wrong_consensus_configuration(args.n, args.z).x0
    config = Configuration(n=args.n, z=args.z, x0=min(max(x0, low), high))
    if (
        args.replicas > 1
        or args.workers is not None
        or args.shards is not None
        or args.scenario
    ):
        # Scenarios hook the ensemble engines (docs/SCENARIOS.md), so a
        # --scenario run is an ensemble run even at --replicas 1.
        return _run_ensemble(args, protocol, config)
    # The argv-level inputs travel in the checkpoint's meta block so that
    # `repro resume <path>` can rebuild this exact run with no other flags.
    meta = {
        "command": "run",
        "protocol": args.protocol,
        "n": args.n,
        "z": args.z,
        "x0": config.x0,
        "rounds": args.rounds,
        "seed": args.seed,
        "record": bool(args.record),
        "checkpoint_every": args.checkpoint_every,
    }
    return _run_simulation(
        protocol, config,
        rounds=args.rounds, seed=args.seed, record=args.record,
        want_metrics=args.metrics, trace_path=args.trace,
        trace_format=args.trace_format,
        checkpoint_path=args.checkpoint, checkpoint_every=args.checkpoint_every,
        meta=meta, resume=False, show_plot=args.record,
        metrics_port=args.metrics_port,
        metrics_textfile=args.metrics_textfile,
        profile_dir=args.profile,
    )


def _run_simulation(
    protocol: Protocol,
    config: Configuration,
    *,
    rounds: int,
    seed: int,
    record: bool,
    want_metrics: bool,
    trace_path: Optional[str],
    trace_format: str = "jsonl",
    checkpoint_path: Optional[str],
    checkpoint_every: int,
    meta: Dict[str, Any],
    resume: bool,
    show_plot: bool,
    metrics_port: Optional[int] = None,
    metrics_textfile: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> int:
    """Shared body of ``repro run`` and ``repro resume``."""
    observing = (
        metrics_port is not None
        or metrics_textfile is not None
        or profile_dir is not None
    )
    # Observability rides on MetricsRecorder aggregates, so any of the
    # flags forces it on (telemetry *printing* still follows --metrics).
    metrics = MetricsRecorder() if (want_metrics or observing) else None
    trace = (
        open_trace_writer(trace_path, trace_format) if trace_path else None
    )
    interrupted: Optional[GracefulExit] = None
    checkpoint: Optional[Checkpointer] = None
    with contextlib.ExitStack() as stack:
        beat = None
        if observing:
            from repro.telemetry.heartbeat import HeartbeatRecorder, heartbeat_path

            hb_base = checkpoint_path
            if hb_base is None:
                scratch = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro_observe_")
                )
                hb_base = str(pathlib.Path(scratch) / "run")
            beat = HeartbeatRecorder(heartbeat_path(hb_base))
            if metrics_port is not None:
                server = _start_metrics_server(
                    metrics_port, _metrics_collector(metrics, hb_base)
                )
                stack.callback(server.stop)
        recorder = compose_recorders(metrics, trace, beat)
        if checkpoint_path is not None:
            guard = stack.enter_context(ShutdownGuard())
            if trace is not None:
                guard.register(trace)
            if resume:
                checkpoint = Checkpointer.resume(
                    checkpoint_path, every=checkpoint_every, guard=guard
                )
            else:
                checkpoint = Checkpointer(
                    checkpoint_path, every=checkpoint_every, guard=guard, meta=meta
                )
        if profile_dir is not None:
            from repro.telemetry.profiling import maybe_cprofile

            profiled = maybe_cprofile(pathlib.Path(profile_dir) / "run.prof")
        else:
            profiled = contextlib.nullcontext()
        try:
            with profiled:
                result = simulate(
                    protocol, config, rounds, make_rng(seed),
                    record=record, recorder=recorder, checkpoint=checkpoint,
                )
        except GracefulExit as stop:
            interrupted = stop
        finally:
            if trace is not None:
                trace.close()
        # Published inside the stack: the final payload must still see the
        # heartbeat files when they live in the scratch directory.
        if metrics_textfile is not None and interrupted is None:
            from repro.telemetry.prometheus import write_textfile

            write_textfile(
                metrics_textfile, _metrics_collector(metrics, hb_base)()
            )
            print(f"metrics: wrote {metrics_textfile}", file=sys.stderr)
    if profile_dir is not None and interrupted is None:
        _export_span_profile(metrics, profile_dir, f"repro run {protocol.name}")
    if interrupted is not None:
        print(
            f"interrupted by {interrupted.signal_name}; checkpoint saved to "
            f"{interrupted.checkpoint_path}",
            file=sys.stderr,
        )
        print(
            f"resume with: python -m repro resume {interrupted.checkpoint_path}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    print(
        f"{protocol.name} on n={config.n}, z={config.z}, x0={config.x0}: "
        f"converged={result.converged}, rounds={result.rounds}, "
        f"final count={result.final_count}"
    )
    if metrics is not None and want_metrics:
        m = metrics.metrics()
        print(
            f"telemetry: rounds={m.rounds} wall={m.wall_clock_s:.4f}s "
            f"rounds/sec={m.rounds_per_second:,.0f} "
            f"mean |drift|={m.mean_abs_drift:.3f}",
            file=sys.stderr,
        )
        for path, agg in sorted(m.spans.items()):
            print(
                f"telemetry: span {path}: calls={agg.calls} "
                f"wall={agg.wall_s:.4f}s",
                file=sys.stderr,
            )
    if trace is not None:
        print(
            f"trace: wrote {trace.records_written} records to {trace_path}",
            file=sys.stderr,
        )
    if checkpoint is not None:
        print(
            f"checkpoint: {checkpoint.writes} writes to {checkpoint.path}",
            file=sys.stderr,
        )
    if show_plot and result.trajectory is not None:
        series = Series(
            "count", np.arange(len(result.trajectory), dtype=float),
            result.trajectory.astype(float),
        )
        print(ascii_plot([series], width=64, height=12), file=sys.stderr)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _run_ensemble(
    args: argparse.Namespace, protocol: Protocol, config: Configuration
) -> int:
    """Body of ``repro run`` for ensembles (``--replicas``/``--workers``).

    Runs the supervised executor, even at ``--workers 1`` (one shard by
    default); each shard runs its range of the serial stream, so the
    statistics do not depend on ``--workers`` or
    ``--shards``.  With ``--checkpoint`` each shard checkpoints to
    ``PATH.shard<k>``; re-invoking the *same* command after a crash or
    Ctrl-C resumes every shard from its own file (``repro resume`` stays
    single-run-only), and shard files from another seed or shard layout
    are refused.  Exit codes: 0 all shards survived and every trial
    converged, 2 some trials were censored, 7 shards were lost past their
    retry budget (partial results), 5 interrupted.
    """
    from repro.execution.supervisor import (
        SupervisorConfig,
        run_supervised_ensemble,
        summarize_supervised,
    )

    scenario = None
    if args.scenario:
        from repro.dynamics.scenarios import make_scenario

        try:
            scenario = make_scenario("+".join(args.scenario), config.n)
        except (KeyError, ValueError) as error:
            # KeyError's str() wraps the message in quotes; unwrap it.
            message = error.args[0] if error.args else str(error)
            print(f"repro: {message}", file=sys.stderr)
            return EXIT_ERROR

    observing = (
        args.metrics_port is not None
        or args.metrics_textfile is not None
        or args.profile is not None
    )
    metrics = MetricsRecorder() if (args.metrics or observing) else None
    recorder = compose_recorders(metrics)
    supervisor = SupervisorConfig(
        workers=args.workers if args.workers is not None else 1,
        shards=args.shards,
        timeout_s=args.shard_timeout,
        max_retries=args.max_retries,
        trace_format=args.trace_format,
    )
    with contextlib.ExitStack() as stack:
        guard = None
        if args.checkpoint is not None:
            guard = stack.enter_context(ShutdownGuard())
        hb_base = args.checkpoint
        if hb_base is None and observing:
            scratch = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro_observe_")
            )
            hb_base = str(pathlib.Path(scratch) / "run")
        if args.metrics_port is not None:
            server = _start_metrics_server(
                args.metrics_port, _metrics_collector(metrics, hb_base)
            )
            stack.callback(server.stop)
        try:
            result = run_supervised_ensemble(
                protocol, config, args.rounds, make_rng(args.seed),
                args.replicas,
                supervisor=supervisor,
                recorder=recorder,
                checkpoint_base=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                trace_path=args.trace,
                guard=guard,
                engine=args.engine,
                heartbeat_base=hb_base,
                heartbeat_every_s=0.5 if observing else 1.0,
                profile_dir=args.profile,
                scenario=scenario,
            )
        except GracefulExit as stop:
            print(
                f"interrupted by {stop.signal_name}; shard checkpoints at "
                f"{args.checkpoint}.shard<k> — re-run the same command to "
                "resume them",
                file=sys.stderr,
            )
            return EXIT_INTERRUPTED
        if args.metrics_textfile is not None:
            from repro.telemetry.prometheus import write_textfile

            write_textfile(
                args.metrics_textfile, _metrics_collector(metrics, hb_base)()
            )
            print(f"metrics: wrote {args.metrics_textfile}", file=sys.stderr)
    if args.profile is not None:
        _export_span_profile(
            metrics, args.profile, f"repro run {protocol.name} (supervised)"
        )
    if result.times.size == 0:
        print(
            f"repro: all {len(result.shard_sizes)} shards failed "
            f"({result.retries} retries, {result.timeouts} timeouts); "
            "no surviving trials",
            file=sys.stderr,
        )
        return EXIT_SHARDS_LOST
    stats = summarize_supervised(result, budget=args.rounds)
    print(
        f"{protocol.name} on n={config.n}, z={config.z}, x0={config.x0}: "
        f"ensemble of {stats.attempted_trials} "
        f"(shards={len(result.shard_sizes)}, workers={supervisor.workers})"
    )
    print(f"trials={stats.trials}")
    print(f"censored={stats.censored}")
    print(f"failed_shards={stats.failed_shards}")
    print(f"attempted_trials={stats.attempted_trials}")
    print(f"median={stats.median}")
    print(f"q10={stats.q10}")
    print(f"q90={stats.q90}")
    print(f"mean_converged={stats.mean_converged}")
    if scenario is not None:
        from repro.analysis.ensemble import summarize_recovery

        settle = scenario.settle_round(args.rounds)
        recovery = summarize_recovery(
            result.times, settle, budget=args.rounds,
            failed_shards=result.failed_shards,
            attempted_trials=result.attempted_trials,
        )
        print(f"scenario={scenario.spec()}")
        print(f"settle_round={settle}")
        print(f"recovery_median={recovery.median}")
        print(f"recovery_q90={recovery.q90}")
        print(f"recovery_mean_converged={recovery.mean_converged}")
    if result.retries or result.timeouts:
        print(
            f"supervision: retries={result.retries} timeouts={result.timeouts}",
            file=sys.stderr,
        )
    if metrics is not None and args.metrics:
        m = metrics.metrics()
        for path, agg in sorted(m.spans.items()):
            print(
                f"telemetry: span {path}: calls={agg.calls} "
                f"wall={agg.wall_s:.4f}s",
                file=sys.stderr,
            )
    if args.trace:
        print(f"trace: merged shard traces into {args.trace}", file=sys.stderr)
    if stats.failed_shards:
        print(
            f"repro: {stats.failed_shards} shard(s) lost past the retry "
            f"budget; statistics cover {stats.trials} of "
            f"{stats.attempted_trials} trials",
            file=sys.stderr,
        )
        return EXIT_SHARDS_LOST
    return EXIT_OK if stats.censored == 0 else EXIT_NOT_CONVERGED


def _cmd_watch(args: argparse.Namespace) -> int:
    """Live (or post-mortem) dashboard over a run's heartbeat files."""
    from repro.analysis.watch import watch

    return watch(
        args.path,
        interval=args.interval,
        once=args.once,
        stale_after=args.stale_after,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived simulation service (docs/SERVICE.md)."""
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        workers=args.workers,
        poll_s=args.poll,
        stale_after_s=args.stale_after,
        backoff_base_s=args.backoff_base,
        backoff_cap_s=args.backoff_cap,
        default_max_retries=args.max_retries,
    )
    with ShutdownGuard() as guard:
        return serve(
            args.root,
            host=args.host,
            port=args.port,
            config=config,
            guard=guard,
        )


def _cmd_resume(args: argparse.Namespace) -> int:
    """Rebuild and continue a run from its checkpoint's meta block."""
    try:
        state = load_checkpoint(args.checkpoint)
    except CheckpointError as error:
        print(f"repro: {error}", file=sys.stderr)
        return EXIT_ERROR
    meta = state.meta
    if meta.get("command") != "run":
        print(
            f"repro: checkpoint {args.checkpoint} carries no CLI metadata "
            "(written through the library API?); resume it by calling the "
            "runner with Checkpointer.resume(...) and the original inputs",
            file=sys.stderr,
        )
        return EXIT_ERROR
    protocol = resolve_protocol(meta["protocol"], int(meta["n"]))
    config = Configuration(n=int(meta["n"]), z=int(meta["z"]), x0=int(meta["x0"]))
    if state.complete:
        print("checkpoint is complete; replaying the stored result", file=sys.stderr)
    else:
        print(f"resuming from round {state.round}", file=sys.stderr)
    return _run_simulation(
        protocol, config,
        rounds=int(meta["rounds"]), seed=int(meta["seed"]),
        record=bool(meta.get("record", False)),
        want_metrics=args.metrics, trace_path=args.trace,
        trace_format=args.trace_format,
        checkpoint_path=args.checkpoint,
        checkpoint_every=int(meta.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY)),
        meta=meta, resume=True, show_plot=False,
    )


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    """Schema-check a trace; with --salvage, recover its valid prefix."""
    import collections

    from repro.telemetry.columnar import write_trace_records
    from repro.telemetry.jsonl import validate_trace

    try:
        records = validate_trace(args.path, salvage=args.salvage)
    except ValueError as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return EXIT_INVALID_TRACE
    kinds = collections.Counter(record.get("kind") for record in records)
    print(f"mode={'salvage' if args.salvage else 'strict'}")
    print(f"records={len(records)}")
    for kind in sorted(kinds):
        print(f"{kind}={kinds[kind]}")
    print(f"complete={str(kinds.get('run_end', 0) == 1).lower()}")
    if args.output:
        write_trace_records(args.output, records)
        print(f"wrote {len(records)} records to {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    """Losslessly convert a trace between JSONL and columnar containers.

    The direction comes from the *source's* sniffed format: JSONL sources
    become columnar targets and vice versa.  Conversion validates first, so
    an invalid trace exits 3 without writing anything; ``--salvage``
    converts the recoverable prefix of a torn trace instead.
    """
    from repro.telemetry.columnar import columnar_to_jsonl, jsonl_to_columnar
    from repro.telemetry.jsonl import detect_trace_format

    try:
        source_format = detect_trace_format(args.source)
        if source_format == "jsonl":
            chunking = (
                {"chunk_rounds": args.chunk_rounds} if args.chunk_rounds else {}
            )
            count = jsonl_to_columnar(
                args.source, args.target, salvage=args.salvage, **chunking
            )
            target_format = "columnar"
        else:
            count = columnar_to_jsonl(
                args.source, args.target, salvage=args.salvage
            )
            target_format = "jsonl"
    except OSError as error:
        print(f"repro: {error}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return EXIT_INVALID_TRACE
    print(f"source_format={source_format}")
    print(f"target_format={target_format}")
    print(f"records={count}")
    print(f"wrote {args.target}", file=sys.stderr)
    return EXIT_OK


def _cmd_trace_index(args: argparse.Namespace) -> int:
    """Refresh (or rebuild) a trace directory's persistent query index."""
    from repro.analysis.index import index_path, refresh_trace_index

    directory = pathlib.Path(args.directory)
    if not directory.is_dir():
        print(f"repro: no directory at {directory}", file=sys.stderr)
        return EXIT_ERROR
    try:
        index = refresh_trace_index(directory, rebuild=args.rebuild)
    except ValueError as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return EXIT_INVALID_TRACE
    print(f"index={index_path(directory)}")
    print(f"traces={len(index['entries'])}")
    print(f"refreshed={index['refreshed']}")
    for name in sorted(index["entries"]):
        entry = index["entries"][name]
        rounds = entry.get("counts", {}).get("rounds")
        print(f"{name}: format={entry.get('format')} rounds={rounds}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    sizes = [int(v) for v in args.sizes.split(",")]
    table = Table(
        f"tau vs n for {args.protocol} (z={args.z}, all-wrong start, "
        f"{args.replicas} replicas, budget {args.budget_factor}x bound)",
        ["n", "budget", "median tau", "censored"],
    )
    medians = []
    fitted_sizes = []
    for n in sizes:
        protocol = resolve_protocol(args.protocol, n)
        config = wrong_consensus_configuration(n, args.z)
        budget = int(args.budget_factor * 2 * n * max(1.0, np.log(n)))
        times = simulate_ensemble(
            protocol, config, budget, make_rng(args.seed + n), args.replicas
        )
        censored = int(np.isnan(times).sum())
        finite = times[~np.isnan(times)]
        median = float(np.median(finite)) if len(finite) else float("inf")
        table.add_row(n, budget, median, censored)
        if np.isfinite(median):
            medians.append(median)
            fitted_sizes.append(n)
    print(table.render())
    if len(medians) >= 2:
        fit = fit_power_law(fitted_sizes, medians)
        print(f"\nfit: tau ~ {fit.prefactor:.3g} * n^{fit.exponent:.3f} "
              f"(r^2 = {fit.r_squared:.3f})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Trace analytics + benchmark-regression table for a results directory."""
    import json
    import pathlib

    from repro.analysis.report import build_report, render_report

    results_dir = pathlib.Path(args.results_dir)
    if not results_dir.is_dir():
        print(
            f"no results directory at {results_dir}; run "
            "`python -m repro bench` or archive traces there first",
            file=sys.stderr,
        )
        return 1
    report = build_report(
        results_dir,
        baseline_path=args.baseline,
        min_rel_slowdown=args.min_rel_slowdown,
        noise_sigmas=args.noise_sigmas,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    if args.strict and (
        report["regressions"] or report.get("failed") or report.get("degraded")
    ):
        return EXIT_PERF_REGRESSION
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the benchmark suite (optionally smoke-sized) to refresh the ledger."""
    import os
    import pathlib
    import subprocess
    import time

    if args.workers is not None and args.workers < 1:
        print("bench: --workers must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    repo_root = pathlib.Path(__file__).resolve().parents[2]
    bench_dir = (
        pathlib.Path(args.bench_dir) if args.bench_dir else repo_root / "benchmarks"
    )
    modules = sorted(path.stem for path in bench_dir.glob("bench_*.py"))
    if args.list:
        for name in modules:
            print(name)
        return EXIT_OK
    command = [
        sys.executable, "-m", "pytest", str(bench_dir),
        "--benchmark-only", "-q",
    ]
    if args.only:
        command += ["-k", args.only]
    env = dict(os.environ)
    if args.smoke:
        env["REPRO_SMOKE"] = "1"
    if args.timeout is not None:
        if args.timeout <= 0:
            print("bench: --timeout must be positive", file=sys.stderr)
            return EXIT_ERROR
        # The SIGALRM this arms only fires in the benchmark's main process;
        # the ensemble supervisor folds the same budget into its per-shard
        # timeout (the tighter of the two wins), so hung workers cannot
        # outlive it.  See docs/OBSERVABILITY.md.
        env["REPRO_BENCH_TIMEOUT"] = str(args.timeout)
    if args.workers is not None:
        env["REPRO_BENCH_WORKERS"] = str(args.workers)
    if args.scenario is not None:
        env["REPRO_BENCH_SCENARIO"] = args.scenario
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo_root / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    results_dir = pathlib.Path(env.get("REPRO_RESULTS_DIR") or repo_root / "results")
    sizing = "smoke" if args.smoke else "full"
    print(f"bench: {sizing} sizing: {' '.join(command)}", file=sys.stderr)
    started = time.time()
    completed = subprocess.run(
        command, cwd=repo_root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    # pytest chatter is progress, not a result: keep stdout machine-clean.
    sys.stderr.write(completed.stdout)
    if args.timeout is not None:
        timed_out = _timed_out_bench_records(results_dir, since=started)
        if timed_out:
            for experiment in timed_out:
                print(
                    f"bench: {experiment} exceeded the {args.timeout:g}s budget",
                    file=sys.stderr,
                )
            return EXIT_BENCH_TIMEOUT
    if completed.returncode == 0:
        print(
            f"bench: records archived under {results_dir} "
            "(BENCH_*.json); see `python -m repro report results/`",
            file=sys.stderr,
        )
    return completed.returncode


def _timed_out_bench_records(results_dir, since: float) -> List[str]:
    """Experiments whose ledger record from this run reports a timeout."""
    import json

    names = []
    if not results_dir.is_dir():
        return names
    for path in sorted(results_dir.glob("BENCH_*.json")):
        if path.stat().st_mtime < since - 1.0:
            continue  # stale record from an earlier run
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        error = record.get("error") or {}
        if record.get("status") == "failed" and error.get("kind") == "timeout":
            names.append(record.get("experiment", path.stem))
    return names


def _cmd_assemble(args: argparse.Namespace) -> int:
    """Assemble results/E*.txt into a single REPORT.md."""
    import pathlib

    results_dir = pathlib.Path(args.results_dir)
    if not results_dir.is_dir():
        print(
            f"no results directory at {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 1
    files = sorted(
        results_dir.glob("E*.txt"),
        key=lambda path: (len(path.stem.split("_")[0]), path.stem),
    )
    if not files:
        print(f"no experiment outputs under {results_dir}", file=sys.stderr)
        return 1
    sections = ["# Experiment report\n"]
    sections.append(
        "Assembled from the most recent `pytest benchmarks/ --benchmark-only` "
        f"run ({len(files)} experiments).\n"
    )
    for path in files:
        sections.append(f"\n## {path.stem}\n")
        sections.append("```")
        sections.append(path.read_text().strip())
        sections.append("```")
    output = pathlib.Path(args.output)
    output.write_text("\n".join(sections) + "\n")
    print(f"wrote {output} ({len(files)} experiments)", file=sys.stderr)
    return 0


def _cmd_worst(args: argparse.Namespace) -> int:
    from repro.dynamics.adversary import exact_worst_start

    protocol = resolve_protocol(args.protocol, args.n)
    worst = exact_worst_start(protocol, args.n, args.z)
    print(
        f"{protocol.name}, n={args.n}, z={args.z}: worst start x0="
        f"{worst.config.x0} with exact E[tau] = {worst.expected_rounds:.6g}"
    )
    if args.profile:
        series = Series(
            "exact E[tau] by start (log10)",
            worst.probed_counts.astype(float),
            np.log10(np.maximum(worst.profile, 1.0)),
        )
        print(ascii_plot([series], width=64, height=12))
    return 0


def _cmd_meanfield(args: argparse.Namespace) -> int:
    from repro.core.mean_field import fixed_points, iterate_mean_field
    from repro.core.roots import is_zero_bias

    protocol = resolve_protocol(args.protocol, args.n)
    if is_zero_bias(protocol):
        print(f"{protocol.name}: zero bias — the mean-field map is the identity")
        return 0
    print(f"fixed points of phi(p) = p + F(p) for {protocol.name}:")
    for point in fixed_points(protocol):
        oscillatory = " (oscillatory)" if point.is_oscillatory else ""
        print(
            f"  p* = {point.location:.6f}  phi' = {point.multiplier:+.4f}  "
            f"{point.stability}{oscillatory}"
        )
    trajectory = iterate_mean_field(protocol, args.p0, args.rounds)
    series = Series(
        f"mean-field from p0={args.p0:g}",
        np.arange(len(trajectory), dtype=float),
        trajectory,
    )
    print(ascii_plot([series], width=64, height=12, y_min=0.0, y_max=1.0))
    return 0


def _cmd_landscape(args: argparse.Namespace) -> int:
    protocol = resolve_protocol(args.protocol, args.n)
    grid = np.linspace(0.0, 1.0, args.points)
    series = Series(f"F(p) for {protocol.name}", grid, bias_value(protocol, grid))
    print(ascii_plot([series], width=66, height=14))
    if args.csv:
        print()
        print(series.to_csv(x_label="p"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory-less bit-dissemination: simulate and audit protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered protocols").set_defaults(
        handler=_cmd_list
    )

    audit = sub.add_parser("audit", help="run the Theorem-12 pipeline on a protocol")
    audit.add_argument("protocol", help="registry name or table:<g0>[;<g1>]")
    audit.add_argument("--n", type=int, default=4096)
    audit.add_argument("--epsilon", type=float, default=0.25)
    audit.set_defaults(handler=_cmd_audit)

    run = sub.add_parser("run", help="simulate one run of the count chain")
    run.add_argument("protocol")
    run.add_argument("--n", type=int, default=1000)
    run.add_argument("--z", type=int, default=1, choices=(0, 1))
    run.add_argument("--x0", type=int, default=None, help="default: all wrong")
    run.add_argument("--rounds", type=int, default=100_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--record", action="store_true", help="plot the trajectory")
    run.add_argument(
        "--trace", metavar="PATH", default=None,
        help="stream a telemetry trace to PATH (see docs/OBSERVABILITY.md)",
    )
    run.add_argument(
        "--trace-format", choices=TRACE_FORMATS, default="jsonl",
        help="trace format published at close: jsonl (text) or columnar "
             "(chunked binary, fast analytics); both stream as columnar",
    )
    run.add_argument(
        "--metrics", action="store_true",
        help="print run telemetry (rounds, wall-clock, rounds/sec)",
    )
    run.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="write atomic checkpoints to PATH; SIGINT/SIGTERM then exit 5 "
             "with a final checkpoint instead of losing the run",
    )
    run.add_argument(
        "--checkpoint-every", metavar="N", type=int,
        default=DEFAULT_CHECKPOINT_EVERY,
        help=f"rounds between checkpoint writes (default {DEFAULT_CHECKPOINT_EVERY})",
    )
    run.add_argument(
        "--replicas", type=int, default=1,
        help="independent chains; >1 runs a supervised ensemble and prints "
             "convergence statistics instead of one trajectory",
    )
    run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for the ensemble (changes wall clock only; "
             "default 1)",
    )
    run.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="contiguous replica ranges the ensemble is cut into, the unit "
             "of retries, checkpoints and traces (changes wall clock only; "
             "default min(replicas, workers))",
    )
    run.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard-attempt wall-clock budget; overrunning workers are "
             "killed and retried",
    )
    run.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per shard before it is quarantined (exit 7 reports "
             "the partial results)",
    )
    run.add_argument(
        "--engine", default=None, metavar="NAME",
        choices=ENGINES,
        help="ensemble stepping backend (default: batched; see "
             "docs/ENGINES.md for the backend contract)",
    )
    run.add_argument(
        "--scenario", action="append", default=None, metavar="NAME[:k=v,...]",
        help="run the ensemble in a hostile world (repeatable; repeats "
             "compose left-to-right, e.g. --scenario churn:period=16 "
             "--scenario lossy:rate=0.1); see `repro scenarios list` and "
             "docs/SCENARIOS.md",
    )
    run.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve GET /metrics (Prometheus text exposition) from a "
             "background thread; 0 binds an ephemeral port, announced on "
             "stderr as 'metrics: serving <url>'",
    )
    run.add_argument(
        "--metrics-textfile", metavar="PATH", default=None,
        help="atomically write the final exposition payload to PATH "
             "(node-exporter textfile collector convention)",
    )
    run.add_argument(
        "--profile", metavar="DIR", default=None,
        help="cProfile the run into DIR (per shard for ensembles: "
             "shard<k>.prof) and export span aggregates as "
             "DIR/spans.speedscope.json",
    )
    run.set_defaults(handler=_cmd_run)

    watch = sub.add_parser(
        "watch",
        help="live dashboard over a run's heartbeat files (works post-mortem)",
    )
    watch.add_argument(
        "path",
        help="run/checkpoint base path (as given to --checkpoint) or a "
             "directory of heartbeat files",
    )
    watch.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="redraw interval (default 1.0)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (post-mortem inspection)",
    )
    watch.add_argument(
        "--stale-after", type=float, default=5.0, metavar="SECONDS",
        help="flag a non-terminal heartbeat older than this as stale "
             "(default 5.0)",
    )
    watch.set_defaults(handler=_cmd_watch)

    serve = sub.add_parser(
        "serve",
        help="run the crash-safe simulation service (HTTP job API; "
             "docs/SERVICE.md)",
    )
    serve.add_argument(
        "root",
        help="service directory: holds the job journal, snapshot, and "
             "per-job checkpoints/heartbeats/traces",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="API port (default 0: ephemeral; the chosen URL is printed "
             "to stderr)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="K",
        help="concurrent job worker processes (default 1)",
    )
    serve.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="default per-job failure budget before `failed` (default 2)",
    )
    serve.add_argument(
        "--stale-after", type=float, default=30.0, metavar="SECONDS",
        help="heartbeat age past which a worker is presumed stuck and "
             "killed (default 30)",
    )
    serve.add_argument(
        "--backoff-base", type=float, default=0.5, metavar="SECONDS",
        help="base requeue delay; doubles per failure with seeded jitter "
             "(default 0.5)",
    )
    serve.add_argument(
        "--backoff-cap", type=float, default=30.0, metavar="SECONDS",
        help="upper bound on the requeue delay (default 30)",
    )
    serve.add_argument(
        "--poll", type=float, default=0.05, metavar="SECONDS",
        help="dispatch loop wakeup interval (default 0.05)",
    )
    serve.set_defaults(handler=_cmd_serve)

    resume = sub.add_parser(
        "resume", help="continue an interrupted run from its checkpoint"
    )
    resume.add_argument(
        "checkpoint", help="checkpoint written by `repro run --checkpoint`"
    )
    resume.add_argument(
        "--trace", metavar="PATH", default=None,
        help="stream a telemetry trace of the resumed leg to PATH",
    )
    resume.add_argument(
        "--trace-format", choices=TRACE_FORMATS, default="jsonl",
        help="trace format the resumed leg publishes (default jsonl)",
    )
    resume.add_argument(
        "--metrics", action="store_true",
        help="print run telemetry (rounds, wall-clock, rounds/sec)",
    )
    resume.set_defaults(handler=_cmd_resume)

    trace = sub.add_parser(
        "trace",
        help="inspect, validate, convert, and index telemetry traces",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    validate = trace_sub.add_parser(
        "validate",
        help="schema-check a trace, either format (exit 3 when invalid)",
    )
    validate.add_argument("path", help="trace file (JSONL or columnar)")
    validate.add_argument(
        "--salvage", action="store_true",
        help="recover the valid prefix of a truncated trace instead of failing",
    )
    validate.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the validated (or salvaged) records to PATH as JSONL",
    )
    validate.set_defaults(handler=_cmd_trace_validate)
    convert = trace_sub.add_parser(
        "convert",
        help="convert a trace to the other container (jsonl <-> columnar), "
             "losslessly",
    )
    convert.add_argument("source", help="trace file; its format is sniffed")
    convert.add_argument("target", help="output path (the opposite format)")
    convert.add_argument(
        "--salvage", action="store_true",
        help="convert the recoverable prefix of a torn trace instead of failing",
    )
    convert.add_argument(
        "--chunk-rounds", metavar="N", type=int, default=None,
        help="rounds per column chunk when writing columnar "
             "(default 4096)",
    )
    convert.set_defaults(handler=_cmd_trace_convert)
    index = trace_sub.add_parser(
        "index",
        help="refresh the persistent TRACE_INDEX.json of a trace directory",
    )
    index.add_argument("directory", help="directory of trace files")
    index.add_argument(
        "--rebuild", action="store_true",
        help="ignore the existing index and re-summarize every trace",
    )
    index.set_defaults(handler=_cmd_trace_index)

    sweep = sub.add_parser("sweep", help="tau vs n with a power-law fit")
    sweep.add_argument("protocol")
    sweep.add_argument("--sizes", default="128,256,512,1024")
    sweep.add_argument("--z", type=int, default=1, choices=(0, 1))
    sweep.add_argument("--replicas", type=int, default=10)
    sweep.add_argument("--budget-factor", type=float, default=1.0)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(handler=_cmd_sweep)

    report = sub.add_parser(
        "report",
        help="trace analytics + benchmark ledger for a results directory",
    )
    report.add_argument(
        "results_dir", nargs="?", default="results",
        help="directory of *.jsonl traces and BENCH_*.json records",
    )
    report.add_argument(
        "--baseline", default=None,
        help="baseline snapshot (default: <results_dir>/BASELINE.json)",
    )
    report.add_argument(
        "--json", action="store_true", help="emit the report as JSON on stdout"
    )
    report.add_argument(
        "--strict", action="store_true",
        help="exit 4 when the ledger flags a regression, failed experiment, "
             "or a record built from a degraded (shards-lost) ensemble",
    )
    report.add_argument(
        "--min-rel-slowdown", type=float, default=0.30,
        help="relative slowdown below which a timing delta is noise (default 0.30)",
    )
    report.add_argument(
        "--noise-sigmas", type=float, default=3.0,
        help="standard deviations a delta must clear to flag (default 3.0)",
    )
    report.set_defaults(handler=_cmd_report)

    bench = sub.add_parser(
        "bench", help="run the benchmark suite and archive BENCH_*.json records"
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="shrink benchmark sizing (REPRO_SMOKE=1); shape asserts become xfails",
    )
    bench.add_argument(
        "--only", metavar="EXPR", default=None,
        help="pytest -k expression selecting a subset of benchmarks",
    )
    bench.add_argument(
        "--list", action="store_true", help="list benchmark modules and exit"
    )
    bench.add_argument(
        "--timeout", metavar="SECONDS", type=float, default=None,
        help="per-experiment wall-clock budget; a breach records a failed "
             "ledger entry and the command exits 6",
    )
    bench.add_argument(
        "--bench-dir", metavar="DIR", default=None,
        help="benchmark directory to run (default: the repo's benchmarks/)",
    )
    bench.add_argument(
        "--workers", metavar="N", type=int, default=None,
        help="worker processes for ensemble benchmarks (REPRO_BENCH_WORKERS)",
    )
    bench.add_argument(
        "--scenario", metavar="SPEC", default=None,
        help="scenario spec for the scenario-overhead benchmarks "
             "(REPRO_BENCH_SCENARIO; default: their built-in composite)",
    )
    bench.set_defaults(handler=_cmd_bench)

    scenarios = sub.add_parser(
        "scenarios",
        help="inspect the hostile-world scenario registry",
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scenarios_list = scenarios_sub.add_parser(
        "list",
        help="list registered scenarios with their parameter schemas",
    )
    scenarios_list.set_defaults(handler=_cmd_scenarios_list)

    assemble = sub.add_parser(
        "assemble", help="assemble results/E*.txt into REPORT.md"
    )
    assemble.add_argument("--results-dir", default="results")
    assemble.add_argument("--output", default="REPORT.md")
    assemble.set_defaults(handler=_cmd_assemble)

    worst = sub.add_parser(
        "worst", help="exact adversarial starting configuration (small n)"
    )
    worst.add_argument("protocol")
    worst.add_argument("--n", type=int, default=48)
    worst.add_argument("--z", type=int, default=1, choices=(0, 1))
    worst.add_argument("--profile", action="store_true", help="plot E[tau] by start")
    worst.set_defaults(handler=_cmd_worst)

    meanfield = sub.add_parser(
        "meanfield", help="fixed points and deterministic trajectory"
    )
    meanfield.add_argument("protocol")
    meanfield.add_argument("--n", type=int, default=1024)
    meanfield.add_argument("--p0", type=float, default=0.1)
    meanfield.add_argument("--rounds", type=int, default=30)
    meanfield.set_defaults(handler=_cmd_meanfield)

    landscape = sub.add_parser("landscape", help="ASCII plot of the bias polynomial")
    landscape.add_argument("protocol")
    landscape.add_argument("--n", type=int, default=1024)
    landscape.add_argument("--points", type=int, default=101)
    landscape.add_argument("--csv", action="store_true")
    landscape.set_defaults(handler=_cmd_landscape)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except GracefulExit as stop:
        # Backstop for runners that raise outside _run_simulation's handler.
        message = f"repro: interrupted by {stop.signal_name}"
        if stop.checkpoint_path is not None:
            message += f"; checkpoint saved to {stop.checkpoint_path}"
        print(message, file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
