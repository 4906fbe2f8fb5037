"""E13 — engine micro-benchmarks (the conventional pytest-benchmark use).

Timing of the hot paths the experiments lean on: the O(1)-per-round
count-level step at large ``n``, the batched replica step, the agent-level
ground truth (for the n-scaling contrast), and the exact-chain row builder.
These guard against performance regressions that would silently shrink the
reachable experiment sizes.

Also home of the supervised-ensemble scaling check: the same sharded
ensemble timed at ``workers=1`` and at the pool size (``repro bench
--workers N``), with the speedup ratio archived in the ledger record.  On
a single-core runner the ratio hovers near 1 (process overhead can push it
below), so the record is evidence, not an assertion — the hard assertion
is worker-count *invariance* of the results.
"""

from __future__ import annotations

import time

import numpy as np

from _harness import (
    bench_workers,
    emit,
    note_ensemble,
    note_field,
    note_rounds,
    pick,
    run_once,
)
from repro.analysis.series import Table
from repro.dynamics.agentwise import initial_opinions, step_opinions
from repro.dynamics.config import Configuration
from repro.dynamics.engine import step_count, step_counts_batch
from repro.dynamics.rng import make_rng
from repro.markov.exact import transition_row
from repro.protocols import minority, voter


def test_count_step_large_n(benchmark):
    protocol = minority(3)
    rng = make_rng(0)
    n = 10**7

    def run():
        return step_count(protocol, n, 1, n // 2, rng)

    result = benchmark(run)
    assert 1 <= result <= n


def test_batched_step_1000_replicas(benchmark):
    protocol = minority(3)
    rng = make_rng(1)
    n = 10**5
    counts = np.full(1000, n // 2, dtype=np.int64)

    def run():
        return step_counts_batch(protocol, n, 1, counts, rng)

    result = benchmark(run)
    assert result.shape == (1000,)


def test_agentwise_step_n4096(benchmark):
    protocol = minority(3)
    rng = make_rng(2)
    config = Configuration(n=4096, z=1, x0=2048)
    opinions = initial_opinions(config, rng)

    def run():
        return step_opinions(protocol, 1, opinions, rng)

    result = benchmark(run)
    assert len(result) == 4096


def test_exact_transition_row_n512(benchmark):
    protocol = minority(3)

    def run():
        return transition_row(protocol, 512, 1, 300)

    row = benchmark(run)
    assert abs(row.sum() - 1.0) < 1e-9


def test_supervised_ensemble_workers(benchmark):
    """E13b — ensemble wall clock at workers=1 vs the supervised pool.

    The workload is deliberately censored (voter from a balanced start,
    budget far below the ~n log n convergence scale) so every shard
    executes exactly ``ROUNDS`` rounds — fixed work, comparable timings.
    """
    from repro.execution.supervisor import (
        SupervisorConfig,
        run_supervised_ensemble,
        summarize_supervised,
    )

    protocol = voter(1)
    n = pick(10**5, 10**4)
    rounds = pick(1500, 150)
    replicas, shards = 8, 4
    config = Configuration(n=n, z=1, x0=n // 2)
    workers = bench_workers(4)

    def run(worker_count):
        return run_supervised_ensemble(
            protocol, config, rounds, make_rng(13), replicas,
            supervisor=SupervisorConfig(workers=worker_count, shards=shards),
        )

    serial_start = time.perf_counter()
    serial = run(1)
    serial_s = time.perf_counter() - serial_start

    pooled_start = time.perf_counter()
    result = run_once(
        benchmark, run, workers, experiment="E13_supervised_ensemble"
    )
    pooled_s = time.perf_counter() - pooled_start

    stats = summarize_supervised(result, budget=rounds)
    speedup = serial_s / pooled_s if pooled_s > 0 else float("nan")
    note_rounds(rounds * replicas)
    note_field("workers", workers)
    note_field("serial_wall_clock_s", round(serial_s, 6))
    note_field("speedup", round(speedup, 4))
    note_ensemble(stats)
    table = Table(
        f"supervised ensemble: {replicas} replicas in {shards} shards, "
        f"{rounds} rounds at n={n}",
        ["workers", "wall s", "speedup", "failed shards"],
    )
    table.add_row(1, round(serial_s, 4), 1.0, serial.failed_shards)
    table.add_row(workers, round(pooled_s, 4), round(speedup, 4), result.failed_shards)
    emit("E13_supervised_ensemble", table)

    # The hard guarantee: the worker count changes wall clock only.
    assert np.array_equal(serial.times, result.times, equal_nan=True)
    assert result.failed_shards == 0
    # Soft scaling expectation; single-core runners legitimately sit at ~1.
    assert speedup > 0.2


def test_engine_throughput_loop_vs_batched(benchmark):
    """E13c — replicas/sec of the ``engine=`` backends (docs/ENGINES.md).

    The same censored ensemble (voter from a balanced start, budget far
    below the convergence scale, so every replica executes exactly
    ``ROUNDS`` rounds) run three ways: the ``loop`` reference engine, the
    vectorized ``batched`` engine, and ``batched`` composed with the PR-5
    supervisor pool.  The ledger archives replica-rounds/sec per backend
    and the speedup ratios; the headline claim — batched at least
    10x the loop engine at R=1000 — is asserted, because that is the
    whole reason the batched engine exists.
    """
    from repro.dynamics.run import simulate_ensemble
    from repro.execution.supervisor import SupervisorConfig, run_supervised_ensemble

    protocol = voter(1)
    n = pick(10**5, 10**4)
    rounds = pick(60, 15)
    replicas = 1000
    config = Configuration(n=n, z=1, x0=n // 2)
    workers = bench_workers(4)
    replica_rounds = rounds * replicas

    def run_serial(engine):
        return simulate_ensemble(
            protocol, config, rounds, make_rng(17), replicas, engine=engine
        )

    loop_start = time.perf_counter()
    loop_times = run_serial("loop")
    loop_s = time.perf_counter() - loop_start

    batched_times = run_once(
        benchmark, run_serial, "batched", experiment="E13c_engine_throughput"
    )
    # run_once keeps its own wall clock for the ledger; re-measure here for
    # the table so the three backends are timed the same way.
    batched_start = time.perf_counter()
    run_serial("batched")
    batched_s = time.perf_counter() - batched_start

    pooled_start = time.perf_counter()
    pooled = run_supervised_ensemble(
        protocol, config, rounds, make_rng(17), replicas,
        supervisor=SupervisorConfig(workers=workers, shards=4),
        engine="batched",
    )
    pooled_s = time.perf_counter() - pooled_start

    loop_rps = replica_rounds / loop_s
    batched_rps = replica_rounds / batched_s
    pooled_rps = replica_rounds / pooled_s
    speedup_batched = loop_s / batched_s
    speedup_pooled = loop_s / pooled_s
    note_rounds(replica_rounds)
    note_field("replicas", replicas)
    note_field("loop_wall_clock_s", round(loop_s, 6))
    note_field("loop_replica_rounds_per_sec", round(loop_rps, 1))
    note_field("batched_replica_rounds_per_sec", round(batched_rps, 1))
    note_field("pooled_replica_rounds_per_sec", round(pooled_rps, 1))
    note_field("speedup_batched_vs_loop", round(speedup_batched, 2))
    note_field("speedup_pooled_vs_loop", round(speedup_pooled, 2))
    table = Table(
        f"engine throughput: {replicas} replicas, {rounds} rounds at n={n} "
        f"(pool: {workers} workers, 4 shards)",
        ["engine", "wall s", "replica-rounds/s", "speedup vs loop"],
    )
    table.add_row("loop", round(loop_s, 4), round(loop_rps), 1.0)
    table.add_row("batched", round(batched_s, 4), round(batched_rps), round(speedup_batched, 1))
    table.add_row("batched+pool", round(pooled_s, 4), round(pooled_rps), round(speedup_pooled, 1))
    emit("E13c_engine_throughput", table)

    # Correctness rails: same censoring pattern everywhere (fixed work), and
    # loop-vs-batched bit-identity per the ENGINES.md contract.
    assert np.array_equal(loop_times, batched_times, equal_nan=True)
    assert pooled.failed_shards == 0
    # The acceptance bar: vectorization must buy >= 10x over the Python loop.
    assert speedup_batched >= 10.0
