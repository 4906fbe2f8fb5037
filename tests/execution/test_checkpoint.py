"""Tests for atomic checkpoint/resume and its bit-identical guarantee."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.ensemble import convergence_ensemble
from repro.dynamics.config import Configuration, wrong_consensus_configuration
from repro.dynamics.rng import make_rng
from repro.dynamics.run import simulate, simulate_ensemble
from repro.execution import (
    CheckpointError,
    Checkpointer,
    CheckpointState,
    decode_times,
    encode_times,
    load_checkpoint,
    run_signature,
    save_checkpoint,
)
from repro.protocols import minority, voter


class TestCheckpointDocuments:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(3)
        rng.integers(0, 10, size=100)  # advance the stream off its seed state
        state = CheckpointState(
            runner="simulate_ensemble",
            round=40,
            rng_state=rng.bit_generator.state,
            payload={
                "counts": np.array([3, 5], dtype=np.int64),
                "times": [None, 12.0],
            },
            signature="sha256:0123456789abcdef",
            meta={"command": "run", "seed": 3},
        )
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded.runner == state.runner
        assert loaded.round == 40
        assert loaded.signature == state.signature
        assert loaded.complete is False
        assert loaded.meta == {"command": "run", "seed": 3}
        np.testing.assert_array_equal(
            loaded.payload["counts"], np.array([3, 5], dtype=np.int64)
        )
        assert loaded.payload["times"] == [None, 12.0]
        # Restoring the stored state replays the identical stream.
        fresh = make_rng(99)
        fresh.bit_generator.state = loaded.rng_state
        assert fresh.integers(0, 1 << 30) == rng.integers(0, 1 << 30)

    def test_save_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        state = CheckpointState(
            runner="simulate", round=1, rng_state=make_rng(0).bit_generator.state,
            payload={"x": 1}, signature="sha256:aa",
        )
        save_checkpoint(path, state)
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(path)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text('{"schema": 999}')
        with pytest.raises(CheckpointError, match="unsupported checkpoint schema"):
            load_checkpoint(path)

    def test_times_encoding_roundtrip(self):
        times = np.array([1.0, np.nan, 250.0, np.nan])
        decoded = decode_times(encode_times(times))
        np.testing.assert_array_equal(np.isnan(decoded), np.isnan(times))
        np.testing.assert_array_equal(decoded[~np.isnan(decoded)], [1.0, 250.0])


class TestRunSignature:
    def test_stable_for_identical_inputs(self):
        a = run_signature("simulate", voter(1), make_rng(0), n=100, z=1)
        b = run_signature("simulate", voter(1), make_rng(7), n=100, z=1)
        assert a == b  # the generator's *state* must not enter the signature

    def test_differs_by_params_protocol_and_runner(self):
        base = run_signature("simulate", voter(1), make_rng(0), n=100, z=1)
        assert run_signature("simulate", voter(1), make_rng(0), n=101, z=1) != base
        assert run_signature("simulate", minority(3), make_rng(0), n=100, z=1) != base
        assert run_signature("other", voter(1), make_rng(0), n=100, z=1) != base


class TestCheckpointer:
    def test_cadence(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "c.ckpt", every=50)
        assert checkpointer.due(50)
        assert checkpointer.due(100)
        assert not checkpointer.due(51)

    def test_cadence_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="cadence"):
            Checkpointer(tmp_path / "c.ckpt", every=0)

    def test_save_before_begin_rejected(self, tmp_path):
        checkpointer = Checkpointer(tmp_path / "c.ckpt")
        with pytest.raises(CheckpointError, match="before begin"):
            checkpointer.save("simulate", 1, make_rng(0), {})

    def test_runner_mismatch_refused(self, tmp_path):
        path = tmp_path / "run.ckpt"
        simulate(
            voter(1), Configuration(n=60, z=1, x0=30), 50_000, make_rng(1),
            checkpoint=Checkpointer(path, every=10),
        )
        resumed = Checkpointer.resume(path)
        with pytest.raises(CheckpointError, match="cannot resume"):
            resumed.begin("simulate_ensemble", "sha256:whatever")

    def test_signature_mismatch_refused(self, tmp_path):
        path = tmp_path / "run.ckpt"
        config = Configuration(n=60, z=1, x0=30)
        simulate(
            voter(1), config, 50_000, make_rng(1),
            checkpoint=Checkpointer(path, every=10),
        )
        with pytest.raises(CheckpointError, match="different run"):
            # Different seedless params (n) => different signature.
            simulate(
                voter(1), Configuration(n=61, z=1, x0=30), 50_000, make_rng(1),
                checkpoint=Checkpointer.resume(path),
            )

    def test_resume_under_another_seed_refused(self, tmp_path):
        config = wrong_consensus_configuration(64, 1)
        ensemble_path, run_path = tmp_path / "e.ckpt", tmp_path / "s.ckpt"
        simulate_ensemble(
            voter(1), config, 3000, make_rng(1), 8,
            checkpoint=Checkpointer(ensemble_path, every=5),
        )
        simulate(
            voter(1), config, 3000, make_rng(1),
            checkpoint=Checkpointer(run_path, every=5),
        )
        # Complete checkpoints of seed 1 must not replay as seed 2's result.
        with pytest.raises(CheckpointError, match="different run"):
            simulate_ensemble(
                voter(1), config, 3000, make_rng(2), 8,
                checkpoint=Checkpointer.resume(ensemble_path, every=5),
            )
        with pytest.raises(CheckpointError, match="different run"):
            simulate(
                voter(1), config, 3000, make_rng(2),
                checkpoint=Checkpointer.resume(run_path, every=5),
            )


class _StopAfterPolls:
    """Guard stand-in whose stop request fires after N should_stop polls."""

    def __init__(self, polls: int) -> None:
        self.remaining = polls
        self.signum = 15
        self.flushed = False

    @property
    def requested(self) -> bool:
        self.remaining -= 1
        return self.remaining <= 0

    def flush_registered(self) -> None:
        self.flushed = True


class TestBitIdenticalResume:
    N, Z = 96, 1
    BUDGET = 5000
    REPLICAS = 8
    SEED = 7

    def _config(self) -> Configuration:
        return wrong_consensus_configuration(self.N, self.Z)

    def _baseline_times(self) -> np.ndarray:
        return simulate_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS,
        )

    def test_checkpointing_does_not_perturb_the_stream(self, tmp_path):
        times = simulate_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS,
            checkpoint=Checkpointer(tmp_path / "e.ckpt", every=5),
        )
        np.testing.assert_array_equal(times, self._baseline_times())

    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        from repro.execution import GracefulExit

        path = tmp_path / "e.ckpt"
        guard = _StopAfterPolls(polls=37)
        with pytest.raises(GracefulExit):
            simulate_ensemble(
                voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
                self.REPLICAS,
                checkpoint=Checkpointer(path, every=5, guard=guard),
            )
        assert guard.flushed
        interrupted_at = load_checkpoint(path)
        assert not interrupted_at.complete
        assert 0 < interrupted_at.round < self.BUDGET
        times = simulate_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS,
            checkpoint=Checkpointer.resume(path, every=5),
        )
        np.testing.assert_array_equal(times, self._baseline_times())

    def test_complete_checkpoint_replays_without_resimulating(self, tmp_path):
        path = tmp_path / "e.ckpt"
        first = simulate_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS, checkpoint=Checkpointer(path, every=5),
        )
        assert load_checkpoint(path).complete
        replayer = Checkpointer.resume(path, every=5)
        replayed = simulate_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS, checkpoint=replayer,
        )
        np.testing.assert_array_equal(replayed, first)
        assert replayer.writes == 0  # nothing re-ran, nothing re-saved

    def test_convergence_stats_bit_identical_after_resume(self, tmp_path):
        from repro.execution import GracefulExit

        baseline = convergence_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS,
        )
        path = tmp_path / "e.ckpt"
        with pytest.raises(GracefulExit):
            convergence_ensemble(
                voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
                self.REPLICAS,
                checkpoint=Checkpointer(path, every=5, guard=_StopAfterPolls(11)),
            )
        resumed = convergence_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS, checkpoint=Checkpointer.resume(path, every=5),
        )
        assert resumed == baseline  # frozen dataclass: field-wise exact

    def test_simulate_resume_is_bit_identical(self, tmp_path):
        from repro.execution import GracefulExit

        config = Configuration(n=80, z=1, x0=1)
        baseline = simulate(voter(1), config, 50_000, make_rng(5), record=True)
        path = tmp_path / "s.ckpt"
        with pytest.raises(GracefulExit):
            simulate(
                voter(1), config, 50_000, make_rng(5), record=True,
                checkpoint=Checkpointer(path, every=3, guard=_StopAfterPolls(20)),
            )
        resumed = simulate(
            voter(1), config, 50_000, make_rng(5), record=True,
            checkpoint=Checkpointer.resume(path, every=3),
        )
        assert resumed.converged == baseline.converged
        assert resumed.rounds == baseline.rounds
        assert resumed.final_count == baseline.final_count
        np.testing.assert_array_equal(resumed.trajectory, baseline.trajectory)
