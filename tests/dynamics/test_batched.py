"""Tests for the batched engine: the docs/ENGINES.md contract, enforced.

Three tiers, mirroring the backend contract:

* **bit-identity** where it is promised — ``loop`` vs ``batched`` (and the
  supervised composition of either) must agree to the bit;
* **statistical equivalence** where only that is promised — ``batched`` vs
  ``lockstep`` share a distribution, not a stream, so a KS test is the
  right comparison;
* **batch-membership independence** — replica ``j``'s trajectory is a
  function of the seed and ``j``, never of how many replicas ride along.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import binom, ks_2samp

from repro.analysis.ensemble import convergence_ensemble
from repro.core.protocol import Protocol
from repro.dynamics.batched import (
    DEFAULT_ENGINE,
    ENGINES,
    HAVE_NUMBA,
    binomial_icdf,
    counter_uniforms,
    engine_family,
    replica_keys,
    resolve_engine,
    step_count_keyed,
    step_counts_keyed,
)
from repro.dynamics.config import Configuration, wrong_consensus_configuration
from repro.dynamics.rng import make_rng, spawn_seed_sequences
from repro.dynamics.run import simulate_ensemble
from repro.dynamics.scenarios import (
    hypergeometric_icdf,
    make_scenario,
    scenario_step_counts,
)
from repro.protocols import minority, voter


class TestEngineRegistry:
    def test_default_is_batched(self):
        assert DEFAULT_ENGINE == "batched"
        assert resolve_engine(None) == "batched"

    def test_every_listed_engine_resolves(self):
        for name in ENGINES:
            assert resolve_engine(name) in ENGINES

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("warp")
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_ensemble(
                voter(1), Configuration(n=20, z=1, x0=10), 5, make_rng(0), 3,
                engine="warp",
            )

    def test_numba_falls_back_to_batched_when_absent(self):
        resolved = resolve_engine("batched+numba")
        if HAVE_NUMBA:
            assert resolved == "batched+numba"
        else:
            assert resolved == "batched"
        # Either way the stream identity is the batched family.
        assert engine_family(resolved) == "batched"

    def test_numba_request_runs_and_matches_batched(self):
        config = wrong_consensus_configuration(64, 1)
        a = simulate_ensemble(
            voter(1), config, 2000, make_rng(5), 6, engine="batched+numba"
        )
        b = simulate_ensemble(voter(1), config, 2000, make_rng(5), 6, engine="batched")
        np.testing.assert_array_equal(a, b)


class TestReplicaKeys:
    def test_batch_size_independent(self):
        assert np.array_equal(replica_keys(123, 4), replica_keys(123, 16)[:4])

    def test_matches_spawn_tree(self):
        children = spawn_seed_sequences(123, 3)
        expected = [child.generate_state(1, np.uint64)[0] for child in children]
        assert replica_keys(123, 3).tolist() == expected

    @staticmethod
    def _reference(seed, count):
        """One ``SeedSequence`` child per key, as the spawn tree defines them."""
        return [c.generate_state(1, np.uint64)[0] for c in spawn_seed_sequences(seed, count)]

    def test_matches_spawn_tree_on_many_roots(self):
        picks = np.random.default_rng(2024)
        for _ in range(100):  # fresh OS-entropy roots
            root = np.random.SeedSequence()
            assert replica_keys(root, 40).tolist() == self._reference(root, 40)
        for index in range(30):  # spawned roots with earlier children
            root = np.random.SeedSequence(
                int(picks.integers(0, 2**62)),
                spawn_key=tuple(int(w) for w in picks.integers(0, 2**40, size=index % 4)),
            )
            root.spawn(int(picks.integers(0, 50)))
            assert replica_keys(root, 40).tolist() == self._reference(root, 40)
        for seed in range(30):  # Generator seeds, consumed identically
            ours, theirs = make_rng(seed), make_rng(seed)
            assert replica_keys(ours, 40).tolist() == self._reference(theirs, 40)
            assert ours.bit_generator.state == theirs.bit_generator.state
        for entropy in (0, 2**32, 2**64 + 5, [1, 2, 3, 4, 5, 6],
                        np.arange(7, dtype=np.uint32)):
            root = np.random.SeedSequence(entropy)
            assert replica_keys(root, 40).tolist() == self._reference(root, 40)
        root = np.random.SeedSequence(123, pool_size=8)
        assert replica_keys(root, 40).tolist() == self._reference(root, 40)

    def test_seed_sequence_is_not_advanced(self):
        root = np.random.SeedSequence(5)
        root.spawn(3)
        first = replica_keys(root, 4)
        assert root.n_children_spawned == 3
        assert np.array_equal(replica_keys(root, 4), first)
        assert first.tolist() == self._reference(root, 4)  # children 3..6

    def test_generator_seed_is_deterministic(self):
        assert np.array_equal(
            replica_keys(make_rng(9), 5), replica_keys(make_rng(9), 5)
        )

    def test_distinct_keys(self):
        keys = replica_keys(0, 1000)
        assert len(np.unique(keys)) == 1000


class TestCounterUniforms:
    def test_range_and_determinism(self):
        keys = replica_keys(1, 256)
        u = counter_uniforms(keys, 7, 0)
        assert ((0.0 <= u) & (u < 1.0)).all()
        assert np.array_equal(u, counter_uniforms(keys, 7, 0))

    def test_rounds_and_draws_decorrelated(self):
        keys = replica_keys(1, 256)
        assert not np.array_equal(counter_uniforms(keys, 7, 0), counter_uniforms(keys, 8, 0))
        assert not np.array_equal(counter_uniforms(keys, 7, 0), counter_uniforms(keys, 7, 1))

    def test_elementwise(self):
        keys = replica_keys(2, 64)
        full = counter_uniforms(keys, 3, 1)
        assert np.array_equal(counter_uniforms(keys[10:20], 3, 1), full[10:20])

    def test_draw_sequence_rows_match_single_draws(self):
        keys = replica_keys(4, 33)
        rows = counter_uniforms(keys, 5, (0, 1, 2, 3))
        assert rows.shape == (4, 33)
        for draw in range(4):
            assert np.array_equal(rows[draw], counter_uniforms(keys, 5, draw))

    def test_marginally_uniform(self):
        # One value per key: across many keys the marginal must be U[0,1).
        keys = replica_keys(3, 20_000)
        u = counter_uniforms(keys, 1, 0)
        from scipy.stats import kstest

        assert kstest(u, "uniform").pvalue > 1e-4


class TestBinomialICDF:
    def test_matches_scipy_on_interior_u(self):
        rng = np.random.default_rng(42)
        for _ in range(4):
            m = rng.integers(0, 10**6, 2000)
            p = rng.random(2000)
            u = rng.uniform(1e-12, 1.0 - 1e-12, 2000)
            k = binomial_icdf(u, m, p)
            np.testing.assert_array_equal(k, binom.ppf(u, m, p).astype(np.int64))

    def test_is_minimal_inverse(self):
        # Directly assert min {k : CDF(k) >= u}, including extreme u where
        # scipy's own search loosens: CDF(k) >= u and CDF(k-1) < u.
        from scipy import special

        rng = np.random.default_rng(7)
        m = rng.integers(1, 10**5, 500)
        p = rng.uniform(1e-6, 1 - 1e-6, 500)
        u = np.concatenate([rng.random(496), [1e-300, 2**-53, 1 - 2**-53, 0.5]])
        k = binomial_icdf(u, m, p)
        assert (special.bdtr(k, m, p) >= u).all()
        positive = k > 0
        assert (special.bdtr(k[positive] - 1, m[positive], p[positive]) < u[positive]).all()

    def test_degenerate_corners(self):
        u = np.array([0.0, 0.5, 0.5, 0.5, 0.9])
        m = np.array([10, 0, 10, 10, 10])
        p = np.array([0.5, 0.5, 0.0, 1.0, 1.0])
        assert binomial_icdf(u, m, p).tolist() == [0, 0, 0, 10, 10]

    def test_elementwise(self):
        rng = np.random.default_rng(11)
        m = rng.integers(1, 10**4, 300)
        p = rng.random(300)
        u = rng.random(300)
        full = binomial_icdf(u, m, p)
        scalars = [int(binomial_icdf(u[j : j + 1], m[j : j + 1], p[j : j + 1])[0])
                   for j in range(0, 300, 17)]
        assert full[::17].tolist() == scalars

    def test_scalar_and_nd_inputs(self):
        # Any broadcastable shape: flattened on entry, reshaped on return.
        assert binomial_icdf(0.999, 10, 0.5).shape == ()
        assert int(binomial_icdf(0.999, 10, 0.5)) == int(binom.ppf(0.999, 10, 0.5))
        rng = np.random.default_rng(13)
        m = rng.integers(1, 200, (2, 400))  # small m: the minimality pass runs
        p = rng.uniform(1e-3, 1 - 1e-3, (2, 400))
        u = rng.uniform(1e-12, 1.0 - 1e-12, (2, 400))
        grid = binomial_icdf(u, m, p)
        flat = binomial_icdf(u.ravel(), m.ravel(), p.ravel())
        assert grid.shape == (2, 400)
        np.testing.assert_array_equal(grid.ravel(), flat)
        np.testing.assert_array_equal(grid, binom.ppf(u, m, p).astype(np.int64))
        for j in range(0, 800, 53):
            scalar = binomial_icdf(u.flat[j], m.flat[j], p.flat[j])
            assert scalar.shape == () and int(scalar) == flat[j]
        # Broadcasting a row of sizes against the (2, N) uniforms.
        np.testing.assert_array_equal(
            binomial_icdf(u, m[0], 0.3),
            binom.ppf(u, m[0], 0.3).astype(np.int64),
        )


class TestBitIdentity:
    """The contract's strong tier: loop and batched share every bit."""

    def test_step_kernels_agree(self):
        protocol = minority(3)
        keys = replica_keys(4, 200)
        counts = np.arange(100, 300, dtype=np.int64)
        batch = step_counts_keyed(protocol, 1000, 1, counts, keys, 9)
        solo = [
            step_count_keyed(protocol, 1000, 1, int(counts[j]), keys[j], 9)
            for j in range(200)
        ]
        assert batch.tolist() == solo

    def test_loop_vs_batched_times(self):
        config = wrong_consensus_configuration(64, 1)
        batched = simulate_ensemble(
            voter(1), config, 3000, make_rng(21), 12, engine="batched"
        )
        loop = simulate_ensemble(voter(1), config, 3000, make_rng(21), 12, engine="loop")
        np.testing.assert_array_equal(batched, loop)

    def test_loop_vs_batched_convergence_stats(self):
        config = wrong_consensus_configuration(64, 1)
        a = convergence_ensemble(voter(1), config, 3000, make_rng(22), 10, engine="batched")
        b = convergence_ensemble(voter(1), config, 3000, make_rng(22), 10, engine="loop")
        assert a == b  # frozen dataclass: field-wise exact

    def test_supervised_shards_bit_identical_across_engines(self):
        from repro.execution.supervisor import SupervisorConfig, run_supervised_ensemble

        config = wrong_consensus_configuration(48, 1)
        results = [
            run_supervised_ensemble(
                voter(1), config, 2000, make_rng(31), 6,
                supervisor=SupervisorConfig(workers=2, shards=3),
                engine=engine,
            )
            for engine in ("batched", "loop")
        ]
        np.testing.assert_array_equal(results[0].times, results[1].times)
        assert all(r.failed_shards == 0 for r in results)
        serial = simulate_ensemble(voter(1), config, 2000, make_rng(31), 6, engine="loop")
        np.testing.assert_array_equal(results[1].times, serial)


def _two_call_step(protocol, n, z, counts, keys, t):
    """The keyed round as it was before draws 0 and 1 were fused.

    Two ``counter_uniforms`` calls and two ``binomial_icdf`` calls of ``R``
    elements each; the fused kernel (one of each over ``2R``) must match
    it bit for bit.
    """
    p0, p1 = protocol.response_probabilities(counts / n)
    ones_kept = binomial_icdf(
        counter_uniforms(keys, t, 0), counts - z, np.asarray(p1)
    )
    zeros_flipped = binomial_icdf(
        counter_uniforms(keys, t, 1), n - counts - (1 - z), np.asarray(p0)
    )
    return z + ones_kept + zeros_flipped


def _two_call_scenario_step(protocol, scenario, z, counts, keys, t):
    """The hostile-world round as it was before the fusion (draws 0-3)."""
    n_prev, n_next = scenario.population(t - 1), scenario.population(t)
    pin1_prev, pin0_prev = scenario.pinned(t - 1, z)
    pin1_next, _ = scenario.pinned(t, z)
    p = counts / n_prev
    p0, p1 = scenario.transform_responses(
        protocol, t, p, *protocol.response_probabilities(p)
    )
    free_ones = binomial_icdf(
        counter_uniforms(keys, t, 0), counts - pin1_prev, np.asarray(p1)
    ) + binomial_icdf(
        counter_uniforms(keys, t, 1), n_prev - counts - pin0_prev, np.asarray(p0)
    )
    delta = n_next - n_prev
    if delta > 0:
        free_ones = free_ones + binomial_icdf(
            counter_uniforms(keys, t, 2),
            np.full(counts.shape, delta, dtype=np.int64),
            np.asarray(scenario.arrival_bias(t)),
        )
    elif delta < 0:
        free = n_prev - pin1_prev - pin0_prev
        free_ones = free_ones - hypergeometric_icdf(
            counter_uniforms(keys, t, 3), free_ones, free - free_ones, -delta
        )
    return pin1_next + free_ones


_RNG_TABLE = np.random.default_rng(2024)
FUSION_PROTOCOLS = {
    "voter": voter(1),
    "minority-3": minority(3),
    "random": Protocol(
        ell=4, g0=_RNG_TABLE.random(5), g1=_RNG_TABLE.random(5), name="random"
    ),
    # P0 = 0 and P1 = 1 at every count: the p in {0, 1} corners everywhere.
    "frozen": Protocol(ell=2, g0=np.zeros(3), g1=np.ones(3), name="frozen"),
}
FUSION_SIZES = [2, 200, 10**5, 10**6]
FUSION_ROUNDS = (1, 8, 9, 16, 17)  # churn: steady, grow, high, shrink; flip at 16


def _corner_counts(low: int, high: int, seed: int) -> np.ndarray:
    """Both corners of ``[low, high]`` plus random interior counts."""
    rng = np.random.default_rng(seed)
    return np.r_[low, high, rng.integers(low, high + 1, 30)].astype(np.int64)


class TestFusedKernelMatchesTwoCallStep:
    """One hash and one inverse CDF per round change no bit of any stream."""

    @pytest.mark.parametrize("n", FUSION_SIZES)
    @pytest.mark.parametrize("name", sorted(FUSION_PROTOCOLS))
    def test_clean_kernels(self, name, n):
        protocol = FUSION_PROTOCOLS[name]
        for z in (0, 1):
            counts = _corner_counts(z, n - (1 - z), n + z)
            keys = replica_keys(n + z, counts.size)
            for t in FUSION_ROUNDS:
                expected = _two_call_step(protocol, n, z, counts, keys, t)
                batch = step_counts_keyed(protocol, n, z, counts, keys, t)
                solo = [step_count_keyed(protocol, n, z, int(x), keys[j], t)
                        for j, x in enumerate(counts)]
                assert np.array_equal(batch, expected)
                assert np.array_equal(solo, expected)

    @pytest.mark.parametrize("n", FUSION_SIZES)
    @pytest.mark.parametrize("name", sorted(FUSION_PROTOCOLS))
    # A fixed churn amplitude keeps the departure walk short at n = 10**6
    # (the default amplitude n // 8 makes it O(n) per round).
    @pytest.mark.parametrize(
        "spec", ["null", "churn:amplitude=12+lossy", "flip-source"]
    )
    def test_scenario_kernel(self, spec, name, n):
        protocol = FUSION_PROTOCOLS[name]
        scenario = make_scenario(spec, n)
        for z in (0, 1):
            for t in FUSION_ROUNDS:
                pin1, pin0 = scenario.pinned(t - 1, z)
                counts = _corner_counts(
                    pin1, scenario.population(t - 1) - pin0, n + t
                )
                keys = replica_keys(n + t, counts.size)
                expected = _two_call_scenario_step(
                    protocol, scenario, z, counts, keys, t
                )
                fused = scenario_step_counts(protocol, scenario, z, counts, keys, t)
                assert np.array_equal(fused, expected)
                if spec == "null":
                    clean = _two_call_step(protocol, n, z, counts, keys, t)
                    assert np.array_equal(fused, clean)


class TestBatchMembershipIndependence:
    def test_prefix_of_larger_ensemble_is_unchanged(self):
        # Same seed, different batch sizes: the shared replicas' times are
        # identical because each replica steps on its own keyed stream.
        config = wrong_consensus_configuration(64, 1)
        small = simulate_ensemble(voter(1), config, 3000, make_rng(77), 5)
        large = simulate_ensemble(voter(1), config, 3000, make_rng(77), 20)
        np.testing.assert_array_equal(small, large[:5])

    def test_lockstep_does_not_have_this_property(self):
        # Contrast: the legacy shared-Generator engine couples replicas, so
        # the same prefix changes with batch size — why batched is default.
        config = wrong_consensus_configuration(64, 1)
        small = simulate_ensemble(
            voter(1), config, 3000, make_rng(77), 5, engine="lockstep"
        )
        large = simulate_ensemble(
            voter(1), config, 3000, make_rng(77), 20, engine="lockstep"
        )
        assert not np.array_equal(small, large[:5], equal_nan=True)


class TestStatisticalEquivalence:
    """The contract's weak tier: keyed engines vs the legacy shared stream."""

    def test_batched_vs_lockstep_distributions_match(self):
        config = wrong_consensus_configuration(48, 1)
        budget = 4000
        batched = simulate_ensemble(
            voter(1), config, budget, make_rng(101), 300, engine="batched"
        )
        lockstep = simulate_ensemble(
            voter(1), config, budget, make_rng(202), 300, engine="lockstep"
        )
        assert np.isnan(batched).sum() < 15
        assert np.isnan(lockstep).sum() < 15
        result = ks_2samp(
            batched[~np.isnan(batched)], lockstep[~np.isnan(lockstep)]
        )
        assert result.pvalue > 1e-4

    def test_single_round_marginal_matches_exact_binomial(self):
        # One keyed round from a fixed count is exactly Binomial-distributed:
        # chi-square the empirical counts against the exact transition law.
        from scipy.stats import chisquare

        n, z, x = 30, 1, 15
        protocol = voter(1)
        keys = replica_keys(5, 20_000)
        counts = np.full(20_000, x, dtype=np.int64)
        out = step_counts_keyed(protocol, n, z, counts, keys, 1)
        from repro.markov.exact import transition_row

        law = transition_row(protocol, n, z, x)
        support = np.arange(law.size)
        observed = np.bincount(out, minlength=law.size).astype(float)
        keep = law * out.size >= 5  # chi-square validity
        stat = chisquare(
            np.append(observed[keep], observed[~keep].sum()),
            np.append(law[keep] * out.size, law[~keep].sum() * out.size),
        )
        assert stat.pvalue > 1e-4, (stat, support[keep])


class TestDurability:
    REPLICAS = 8
    BUDGET = 5000
    SEED = 7

    def _config(self):
        return wrong_consensus_configuration(96, 1)

    def test_checkpoint_resume_bit_identical_under_batched(self, tmp_path):
        from repro.execution import Checkpointer, GracefulExit, load_checkpoint

        class _StopAfterPolls:
            def __init__(self, polls):
                self.remaining = polls
                self.signum = 15
                self.flushed = False

            @property
            def requested(self):
                self.remaining -= 1
                return self.remaining <= 0

            def flush_registered(self):
                self.flushed = True

        baseline = simulate_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS, engine="batched",
        )
        path = tmp_path / "e.ckpt"
        with pytest.raises(GracefulExit):
            simulate_ensemble(
                voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
                self.REPLICAS, engine="batched",
                checkpoint=Checkpointer(path, every=5, guard=_StopAfterPolls(23)),
            )
        assert 0 < load_checkpoint(path).round < self.BUDGET
        resumed = simulate_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS, engine="batched",
            checkpoint=Checkpointer.resume(path, every=5),
        )
        np.testing.assert_array_equal(resumed, baseline)

    def test_engine_mismatch_refuses_resume(self, tmp_path):
        from repro.execution import CheckpointError, Checkpointer

        path = tmp_path / "e.ckpt"
        simulate_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS, engine="batched",
            checkpoint=Checkpointer(path, every=5),
        )
        with pytest.raises(CheckpointError, match="different run"):
            simulate_ensemble(
                voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
                self.REPLICAS, engine="lockstep",
                checkpoint=Checkpointer.resume(path, every=5),
            )


class TestTelemetryContract:
    def test_batched_engine_ticks_batch_and_replica_steps(self):
        from repro.telemetry import MetricsRecorder

        recorder = MetricsRecorder()
        simulate_ensemble(
            voter(1), wrong_consensus_configuration(48, 1), 500, make_rng(3), 6,
            recorder=recorder,
        )
        spans = recorder.metrics().spans
        assert "ensemble" in spans
        assert spans["ensemble"].counters["batch_steps"] >= 1
        assert spans["ensemble"].counters["replica_steps"] >= 6

    def test_provenance_records_engine(self, tmp_path):
        from repro.telemetry import JsonlTraceWriter, read_trace

        path = tmp_path / "t.jsonl"
        with JsonlTraceWriter(path) as writer:
            simulate_ensemble(
                voter(1), wrong_consensus_configuration(48, 1), 500,
                make_rng(3), 4, recorder=writer,
            )
        start = next(r for r in read_trace(path) if r.get("kind") == "run_start")
        assert start["params"]["engine"] == "batched"
