"""Reproducibility: everything stochastic is a pure function of its seed."""

from __future__ import annotations

import numpy as np

from repro.dual.coalescing import dual_absorption_times
from repro.dynamics.config import Configuration
from repro.dynamics.rng import make_rng, spawn_rngs
from repro.dynamics.run import simulate, simulate_ensemble
from repro.dynamics.sequential import simulate_sequential
from repro.protocols import minority, voter


class TestSeedDeterminism:
    def test_simulate_is_seed_deterministic(self):
        config = Configuration(n=200, z=1, x0=100)
        a = simulate(voter(1), config, 50_000, make_rng(99), record=True)
        b = simulate(voter(1), config, 50_000, make_rng(99), record=True)
        assert a.rounds == b.rounds
        np.testing.assert_array_equal(a.trajectory, b.trajectory)

    def test_ensemble_is_seed_deterministic(self):
        config = Configuration(n=150, z=1, x0=75)
        a = simulate_ensemble(minority(3), config, 100, make_rng(5), replicas=20)
        b = simulate_ensemble(minority(3), config, 100, make_rng(5), replicas=20)
        np.testing.assert_array_equal(np.nan_to_num(a, nan=-1), np.nan_to_num(b, nan=-1))

    def test_sequential_is_seed_deterministic(self):
        config = Configuration(n=40, z=1, x0=20)
        a = simulate_sequential(voter(1), config, 10**7, make_rng(3))
        b = simulate_sequential(voter(1), config, 10**7, make_rng(3))
        assert a.activations == b.activations

    def test_dual_is_seed_deterministic(self):
        a = dual_absorption_times(80, 5000, make_rng(11))
        b = dual_absorption_times(80, 5000, make_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        config = Configuration(n=200, z=1, x0=100)
        a = simulate(voter(1), config, 50_000, make_rng(1), record=True)
        b = simulate(voter(1), config, 50_000, make_rng(2), record=True)
        assert a.rounds != b.rounds or not np.array_equal(a.trajectory, b.trajectory)


class TestTraceDeterminism:
    """Equal seeds produce byte-identical traces (timings excluded)."""

    @staticmethod
    def _trace_bytes(path, seed):
        from repro.telemetry import open_trace_writer

        config = Configuration(n=120, z=1, x0=60)
        with open_trace_writer(path, "jsonl", include_timings=False) as writer:
            simulate(voter(1), config, 50_000, make_rng(seed), recorder=writer)
        return path.read_bytes()

    def test_equal_seed_traces_are_byte_identical(self, tmp_path):
        a = self._trace_bytes(tmp_path / "a.jsonl", seed=42)
        b = self._trace_bytes(tmp_path / "b.jsonl", seed=42)
        assert a == b

    def test_different_seed_traces_differ(self, tmp_path):
        a = self._trace_bytes(tmp_path / "a.jsonl", seed=42)
        b = self._trace_bytes(tmp_path / "b.jsonl", seed=43)
        assert a != b

    def test_recorder_does_not_consume_randomness(self):
        from repro.telemetry import MetricsRecorder

        config = Configuration(n=200, z=1, x0=100)
        bare = simulate(voter(1), config, 50_000, make_rng(7), record=True)
        recorded = simulate(
            voter(1), config, 50_000, make_rng(7), record=True,
            recorder=MetricsRecorder(),
        )
        np.testing.assert_array_equal(bare.trajectory, recorded.trajectory)

    def test_timed_traces_still_structurally_equal(self, tmp_path):
        from repro.telemetry import open_trace_writer, read_trace

        config = Configuration(n=120, z=1, x0=60)
        traces = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            with open_trace_writer(path, "jsonl") as writer:
                simulate(voter(1), config, 50_000, make_rng(9), recorder=writer)
            traces.append(read_trace(path))
        wall_keys = {"wall_s", "wall_clock_s", "rounds_per_second"}
        stripped = [
            [{k: v for k, v in record.items() if k not in wall_keys}
             for record in trace]
            for trace in traces
        ]
        assert stripped[0] == stripped[1]


class TestSpawnedStreams:
    def test_spawned_streams_are_deterministic(self):
        a = [rng.integers(0, 10**9) for rng in spawn_rngs(7, 5)]
        b = [rng.integers(0, 10**9) for rng in spawn_rngs(7, 5)]
        assert a == b

    def test_spawned_streams_are_distinct(self):
        values = [rng.integers(0, 10**9) for rng in spawn_rngs(7, 5)]
        assert len(set(values)) == 5

    def test_spawn_count_validated(self):
        import pytest

        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
