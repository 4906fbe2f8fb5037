"""Tests for the hostile-world scenario engine (docs/SCENARIOS.md)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics.config import Configuration, ScenarioConfig
from repro.dynamics.rng import make_rng
from repro.dynamics.run import recovery_summary, simulate_ensemble
from repro.dynamics.scenarios import (
    ChurnScenario,
    ComposedScenario,
    CorruptScenario,
    DriftScenario,
    FlipSourceScenario,
    LyingSourceScenario,
    Scenario,
    ZealotsScenario,
    as_scenario,
    available_scenarios,
    get_scenario_family,
    hypergeometric_icdf,
    make_scenario,
    scenario_step_generator,
    scenario_target,
)
from repro.protocols import minority, voter


class TestRegistry:
    def test_builtins_registered(self):
        names = available_scenarios()
        for name in ("null", "churn", "lossy", "corrupt", "lying-source",
                     "flip-source", "drift", "zealots"):
            assert name in names

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            make_scenario("bogus", 64)

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_scenario("lossy:frequency=0.1", 64)

    def test_bad_param_value(self):
        with pytest.raises(ValueError):
            make_scenario("churn:period=often", 64)

    def test_family_has_schema(self):
        family = get_scenario_family("churn")
        assert family.summary
        assert {p.name for p in family.params} == {"period", "amplitude", "bias"}


class TestParsingAndSpec:
    def test_single_part_passthrough(self):
        scenario = make_scenario("lossy:rate=0.25", 64)
        assert not isinstance(scenario, ComposedScenario)
        assert scenario.spec() == "lossy:rate=0.25"

    def test_spec_is_canonical(self):
        """Params are sorted and defaults materialized: spec strings that
        build the same world compare equal as strings."""
        a = make_scenario("churn:amplitude=4,period=8", 64)
        b = make_scenario("churn:period=8,amplitude=4", 64)
        assert a.spec() == b.spec() == "churn:amplitude=4,bias=0.5,period=8"

    def test_composition_spec_preserves_part_order(self):
        spec = "lossy:rate=0.1+flip-source:at=12"
        assert make_scenario(spec, 64).spec() == spec

    def test_spec_round_trips(self):
        spec = make_scenario("churn+lossy+flip-source", 64).spec()
        assert make_scenario(spec, 64).spec() == spec

    def test_two_source_parts_refused(self):
        with pytest.raises(ValueError, match="source"):
            make_scenario("lying-source+flip-source", 64)

    def test_two_population_parts_refused(self):
        with pytest.raises(ValueError, match="population"):
            make_scenario("churn+churn:period=4", 64)

    def test_as_scenario_normalizes(self):
        assert as_scenario(None, 64) is None
        built = make_scenario("null", 64)
        assert as_scenario(built, 64) is built
        assert as_scenario("lossy", 64).spec() == "lossy:rate=0.1"
        assert as_scenario(ScenarioConfig("lossy"), 64).spec() == "lossy:rate=0.1"


class TestScenarioSemantics:
    def test_null_is_identity(self):
        scenario = Scenario(64)
        assert scenario.population(100) == 64
        assert scenario.pinned(3, 1) == (1, 0)
        assert scenario.pinned(3, 0) == (0, 1)
        assert scenario.true_opinion(3, 1) == 1
        assert scenario.settle_round(1000) == 0
        assert scenario.events(1000) == []

    def test_churn_square_wave(self):
        churn = ChurnScenario(64, period=4, amplitude=6)
        assert churn.population(0) == 64
        assert churn.population(1) == 64
        assert churn.population(2) == 70
        assert churn.population(3) == 70
        assert churn.population(4) == 64
        assert churn.population(-5) == 64

    def test_flip_source_swaps_pins_and_gates(self):
        flip = FlipSourceScenario(64, at=10)
        assert flip.pinned(9, 1) == (1, 0)
        assert flip.pinned(10, 1) == (0, 1)
        assert flip.true_opinion(9, 1) == 1
        assert flip.true_opinion(10, 1) == 0
        assert flip.settle_round(1000) == 10
        assert flip.settle_round(5) == 0  # flip beyond the budget: no gate
        assert ("source_flip") in [kind for _, kind in flip.events(1000)]

    def test_lying_source_windows(self):
        liar = LyingSourceScenario(64, start=5, duration=3, period=10)
        for t in (5, 6, 7, 15, 16, 17):
            assert liar.pinned(t, 1) == (0, 1)
        for t in (4, 8, 14, 18):
            assert liar.pinned(t, 1) == (1, 0)
        # settle: one round past the last lie inside the budget
        assert liar.settle_round(20) == 18
        # periodic: settle chases the last lie window inside the budget
        assert liar.settle_round(1000) == 998
        assert LyingSourceScenario(64, start=5, duration=3).settle_round(50) == 8
        assert LyingSourceScenario(64, start=60, duration=3).settle_round(50) == 0

    def test_drift_switches_protocols(self):
        drift = DriftScenario(64, alt="voter", switch=10)
        protocol = minority(3)
        p = 0.3
        p0, p1 = protocol.response_probabilities(p)
        assert drift.transform_responses(protocol, 9, p, p0, p1) == (p0, p1)
        assert drift.transform_responses(protocol, 10, p, p0, p1) == pytest.approx(
            voter(1).response_probabilities(p)
        )

    def test_scenario_target(self):
        zealots = ZealotsScenario(64, s1=3, s0=2)
        assert scenario_target(zealots, 0, 1) == 3 + (64 - 5) * 1
        flip = FlipSourceScenario(64, at=10)
        assert scenario_target(flip, 9, 1) == 64
        assert scenario_target(flip, 10, 1) == 0

    def test_pinned_total_must_be_constant(self):
        class Growing(Scenario):
            def pinned(self, t, z):
                return (1 + max(t, 0), 0)

        with pytest.raises(ValueError, match="pinned"):
            simulate_ensemble(
                voter(1), Configuration(n=16, z=1, x0=8), 50, make_rng(0), 2,
                scenario=Growing(16),
            )

    def test_zealots_must_leave_a_free_agent(self):
        with pytest.raises(ValueError, match="free agent"):
            ZealotsScenario(4, s1=2, s0=2)


class TestHypergeometricIcdf:
    def test_matches_scipy_cdf_inversion(self):
        from scipy.stats import hypergeom

        rng = np.random.default_rng(5)
        for _ in range(100):
            ngood = int(rng.integers(0, 40))
            nbad = int(rng.integers(0, 40))
            draws = int(rng.integers(0, ngood + nbad + 1))
            u = rng.random(17)
            got = hypergeometric_icdf(
                u,
                np.full(17, ngood, dtype=np.int64),
                np.full(17, nbad, dtype=np.int64),
                np.full(17, draws, dtype=np.int64),
            )
            # invert scipy's CDF by hand: min{k : CDF(k) >= u} (scipy's own
            # ppf NaNs out on degenerate supports)
            support = np.arange(max(0, draws - nbad), min(ngood, draws) + 1)
            cdf = hypergeom.cdf(support, ngood + nbad, ngood, draws)
            want = support[np.searchsorted(cdf, u, side="left")]
            np.testing.assert_array_equal(got, want)

    def test_scalar_inputs(self):
        value = hypergeometric_icdf(np.float64(0.5), 5, 5, 4)
        assert np.shape(value) == ()
        assert 0 <= int(value) <= 4

    def test_support_edges(self):
        # draws > nbad forces a minimum number of good draws
        got = hypergeometric_icdf(np.zeros(3), np.full(3, 6), np.full(3, 2),
                                  np.full(3, 5))
        np.testing.assert_array_equal(got, np.full(3, 3))


class TestNullScenarioBitIdentity:
    N, BUDGET, REPLICAS, SEED = 96, 5000, 8, 7

    def _config(self):
        return Configuration(n=self.N, z=1, x0=1)

    def _times(self, engine, scenario):
        return simulate_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS, engine=engine, scenario=scenario,
        )

    @pytest.mark.parametrize("engine", ["loop", "batched"])
    def test_null_equals_no_scenario(self, engine):
        np.testing.assert_array_equal(
            self._times(engine, None), self._times(engine, "null")
        )

    def test_scenario_config_accepted(self):
        np.testing.assert_array_equal(
            self._times("batched", None),
            self._times("batched", ScenarioConfig("null")),
        )

    def test_null_through_interrupt_and_resume(self, tmp_path):
        from repro.execution import Checkpointer, GracefulExit

        from tests.execution.test_checkpoint import _StopAfterPolls

        baseline = self._times("batched", None)
        path = tmp_path / "null.ckpt"
        with pytest.raises(GracefulExit):
            simulate_ensemble(
                voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
                self.REPLICAS, scenario="null",
                checkpoint=Checkpointer(path, every=5, guard=_StopAfterPolls(23)),
            )
        resumed = simulate_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS, scenario="null",
            checkpoint=Checkpointer.resume(path, every=5),
        )
        np.testing.assert_array_equal(resumed, baseline)

    def test_lockstep_refuses_scenarios(self):
        with pytest.raises(ValueError, match="lockstep"):
            self._times("lockstep", "null")


COMPOSITE = "churn:period=8,amplitude=4+lossy:rate=0.1+flip-source:at=12"


class TestComposedBitIdentity:
    N, BUDGET, REPLICAS, SEED = 48, 4000, 8, 11

    def _config(self):
        return Configuration(n=self.N, z=1, x0=24)

    def _times(self, engine, **kwargs):
        return simulate_ensemble(
            voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
            self.REPLICAS, engine=engine, scenario=COMPOSITE, **kwargs,
        )

    def test_loop_equals_batched(self):
        loop = self._times("loop")
        batched = self._times("batched")
        np.testing.assert_array_equal(loop, batched)
        assert np.isfinite(loop).all()
        # convergence is gated on the settle round (the source flip at 12)
        assert (loop >= 12).all()

    def test_supervised_worker_invariance(self):
        def run(workers):
            return simulate_ensemble(
                voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
                self.REPLICAS, workers=workers, shards=3, scenario=COMPOSITE,
            )

        np.testing.assert_array_equal(run(1), run(2))
        np.testing.assert_array_equal(run(2), self._times("batched"))

    def test_interrupt_resume_bit_identical(self, tmp_path):
        from repro.execution import Checkpointer, GracefulExit

        from tests.execution.test_checkpoint import _StopAfterPolls

        baseline = self._times("batched")
        path = tmp_path / "hostile.ckpt"
        with pytest.raises(GracefulExit):
            self._times(
                "batched",
                checkpoint=Checkpointer(path, every=5, guard=_StopAfterPolls(19)),
            )
        resumed = self._times(
            "batched", checkpoint=Checkpointer.resume(path, every=5)
        )
        np.testing.assert_array_equal(resumed, baseline)

    def test_resume_refuses_mismatched_scenario(self, tmp_path):
        from repro.execution import Checkpointer, CheckpointError, GracefulExit

        from tests.execution.test_checkpoint import _StopAfterPolls

        path = tmp_path / "hostile.ckpt"
        with pytest.raises(GracefulExit):
            self._times(
                "batched",
                checkpoint=Checkpointer(path, every=5, guard=_StopAfterPolls(19)),
            )
        with pytest.raises(CheckpointError, match="different run"):
            simulate_ensemble(
                voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
                self.REPLICAS, scenario="lossy:rate=0.2",
                checkpoint=Checkpointer.resume(path, every=5),
            )

    def test_clean_checkpoint_refused_under_scenario(self, tmp_path):
        from repro.execution import Checkpointer, CheckpointError, GracefulExit

        from tests.execution.test_checkpoint import _StopAfterPolls

        path = tmp_path / "clean.ckpt"
        with pytest.raises(GracefulExit):
            simulate_ensemble(
                voter(1), self._config(), self.BUDGET, make_rng(self.SEED),
                self.REPLICAS,
                checkpoint=Checkpointer(path, every=5, guard=_StopAfterPolls(19)),
            )
        with pytest.raises(CheckpointError, match="different run"):
            self._times(
                "batched", checkpoint=Checkpointer.resume(path, every=5)
            )


class TestTraceTagging:
    def test_round_records_carry_scenario_events(self, tmp_path):
        from repro.telemetry import open_trace_writer, validate_trace

        path = tmp_path / "hostile.jsonl"
        trace = open_trace_writer(str(path), "jsonl")
        simulate_ensemble(
            voter(1), Configuration(n=48, z=1, x0=24), 4000, make_rng(11), 6,
            recorder=trace, scenario=COMPOSITE,
        )
        trace.close()
        records = validate_trace(path)
        start = records[0]
        assert start["params"]["scenario"] == (
            "churn:amplitude=4,bias=0.5,period=8+lossy:rate=0.1"
            "+flip-source:at=12"
        )
        assert start["params"]["settle_round"] == 12
        rounds = [r for r in records if r.get("kind") == "round"]
        flip_round = [r for r in rounds if r["t"] == 12]
        assert flip_round and "source_flip" in flip_round[0]["scenario_event"]
        assert any(r.get("population", 48) != 48 for r in rounds)
        end = next(r for r in records if r.get("kind") == "run_end")
        assert end["settle_round"] == 12
        assert end["recovered"] == 6
        assert end["recovery_p50"] >= 1


class TestRecoveryStatistics:
    def test_recovery_summary_exact(self):
        out = recovery_summary(np.array([np.nan, 5.0, 7.0, 9.0]), settle=4)
        # quantiles use method="lower": p90 of [1, 3, 5] sits at index
        # floor(2 * 0.9) = 1
        assert out == {
            "recovered": 3,
            "recovery_mean": 3.0,
            "recovery_p50": 3.0,
            "recovery_p90": 3.0,
        }
        wide = recovery_summary(np.arange(5.0, 15.0), settle=4)
        assert wide["recovered"] == 10
        assert wide["recovery_mean"] == 5.5
        assert wide["recovery_p50"] == 5.0
        assert wide["recovery_p90"] == 9.0

    def test_recovery_summary_none_recovered(self):
        assert recovery_summary(np.array([np.nan, np.nan]), settle=4) == {
            "recovered": 0
        }

    def test_summarize_recovery_shifts(self):
        from repro.analysis.ensemble import summarize_recovery, summarize_times

        times = np.array([6.0, 8.0, np.nan, 15.0])
        stats = summarize_recovery(times, settle=5, budget=20)
        plain = summarize_times(times - 5.0, budget=15)
        assert stats == plain
        assert stats.budget == 15

    def test_summarize_recovery_rejects_pre_settle_times(self):
        from repro.analysis.ensemble import summarize_recovery

        with pytest.raises(ValueError, match="settle"):
            summarize_recovery(np.array([3.0, 9.0]), settle=5)

    def test_flip_once_recovery_matches_markov_oracle(self):
        """Exact small-n check against the absorption-time oracle.

        Start the voter at the correct consensus (z=1, x0=n).  A
        flip-source at round ``a`` deterministically lands the chain at
        ``x_a = n - 1`` (every free agent sampled a one), after which the
        dynamics is exactly the z=0 count chain.  The recovery time
        ``tau - a`` must therefore follow the absorption law of that chain
        from ``n - 1`` into 0.
        """
        from repro.markov.absorption_time import absorption_time_cdf
        from repro.markov.exact import count_chain

        n, at, replicas = 12, 5, 400
        times = simulate_ensemble(
            voter(1), Configuration(n=n, z=1, x0=n), 4000, make_rng(123),
            replicas, scenario=f"flip-source:at={at}",
        )
        assert np.isfinite(times).all()
        recovery = times - at
        assert (recovery >= 1).all()

        oracle = absorption_time_cdf(
            count_chain(voter(1), n, 0), [0], start=n - 1, horizon=4000
        )
        for q in (0.25, 0.5, 0.75, 0.9):
            t = oracle.quantile(q)
            empirical = float(np.mean(recovery <= t))
            # binomial CI at 400 replicas: sd <= 0.025, allow ~3.5 sigma
            assert abs(empirical - oracle.cdf[t]) < 0.09, (q, t, empirical)


class TestLegacyShimBitIdentity:
    """The refactored zealots/noise helpers consume the exact legacy stream."""

    def test_zealots_shim(self):
        from repro.dynamics.zealots import ZealotPopulation, step_count_zealots

        def legacy(protocol, pop, x, rng):
            p0, p1 = protocol.response_probabilities(x / pop.n)
            free_ones = x - pop.s1
            free_zeros = pop.n - x - pop.s0
            kept = int(rng.binomial(free_ones, p1)) if free_ones > 0 else 0
            flipped = int(rng.binomial(free_zeros, p0)) if free_zeros > 0 else 0
            return pop.s1 + kept + flipped

        pop = ZealotPopulation(n=50, s1=5, s0=5)
        rng_a, rng_b = make_rng(7), make_rng(7)
        x_a = x_b = 25
        for _ in range(300):
            x_a = step_count_zealots(voter(1), pop, x_a, rng_a)
            x_b = legacy(voter(1), pop, x_b, rng_b)
            assert x_a == x_b
        # boundary counts leave one bucket empty: the skipped draw must
        # leave the stream untouched, exactly like the legacy guards
        for x0 in (5, 45):
            rng_a, rng_b = make_rng(x0), make_rng(x0)
            assert step_count_zealots(voter(1), pop, x0, rng_a) == legacy(
                voter(1), pop, x0, rng_b
            )

    def test_zealots_all_pinned_degenerate(self):
        from repro.dynamics.zealots import ZealotPopulation, step_count_zealots

        pop = ZealotPopulation(n=10, s1=6, s0=4)
        assert step_count_zealots(voter(1), pop, 6, make_rng(0)) == 6

    def test_noise_shim(self):
        from repro.dynamics.noise import step_count_noisy

        def legacy(protocol, n, z, x, delta, rng):
            p = x / n
            distorted = p * (1.0 - delta) + (1.0 - p) * delta
            p0, p1 = protocol.response_probabilities(distorted)
            m1, m0 = x - z, n - x - (1 - z)
            kept = int(rng.binomial(m1, p1)) if m1 > 0 else 0
            flipped = int(rng.binomial(m0, p0)) if m0 > 0 else 0
            return z + kept + flipped

        rng_a, rng_b = make_rng(9), make_rng(9)
        x_a = x_b = 40
        for _ in range(300):
            x_a = step_count_noisy(minority(3), 60, 1, x_a, 0.2, rng_a)
            x_b = legacy(minority(3), 60, 1, x_b, 0.2, rng_b)
            assert x_a == x_b
        for x0 in (1, 60):
            rng_a, rng_b = make_rng(x0), make_rng(x0)
            assert step_count_noisy(minority(3), 60, 1, x0, 0.2, rng_a) == legacy(
                minority(3), 60, 1, x0, 0.2, rng_b
            )

    def test_noise_shim_validates_delta(self):
        from repro.dynamics.noise import step_count_noisy

        with pytest.raises(ValueError, match="delta"):
            step_count_noisy(voter(1), 60, 1, 30, 0.7, make_rng(0))

    def test_worst_start_accepts_scenario(self):
        from repro.dynamics.adversary import simulated_worst_start

        clean = simulated_worst_start(
            voter(1), 24, 1, 600, make_rng(3), replicas=4, grid_points=5
        )
        hostile = simulated_worst_start(
            voter(1), 24, 1, 600, make_rng(3), replicas=4, grid_points=5,
            scenario="lossy:rate=0.3",
        )
        np.testing.assert_array_equal(clean.probed_counts, hostile.probed_counts)
        # 30% message loss slows the search down in aggregate (per-start
        # comparisons are too noisy at 4 replicas; the seed is fixed, so
        # this comparison is deterministic)
        assert hostile.profile.sum() > clean.profile.sum()

    def test_worst_start_clean_stream_unchanged(self):
        from repro.dynamics.adversary import simulated_worst_start

        a = simulated_worst_start(
            voter(1), 24, 1, 600, make_rng(3), replicas=4, grid_points=5
        )
        b = simulated_worst_start(
            voter(1), 24, 1, 600, make_rng(3), replicas=4, grid_points=5,
            scenario=None,
        )
        np.testing.assert_array_equal(a.profile, b.profile)


class TestGeneratorPath:
    def test_generator_matches_keyed_distributionally(self):
        """The shared-Generator scenario step and the keyed kernel sample
        the same conditional law (KS over one-step distributions)."""
        from scipy.stats import ks_2samp

        from repro.dynamics.batched import replica_keys
        from repro.dynamics.scenarios import scenario_step_counts

        scenario = make_scenario("lossy:rate=0.2", 40)
        rng = make_rng(0)
        x = 25
        gen = [
            scenario_step_generator(voter(1), scenario, x, 1, 1, rng)
            for _ in range(2000)
        ]
        keys = replica_keys(1234, 2000)
        keyed = scenario_step_counts(
            voter(1), scenario, 1, np.full(2000, x, dtype=np.int64), keys, 1
        )
        assert ks_2samp(gen, keyed).pvalue > 1e-4

    def test_generator_churn_bounds(self):
        scenario = make_scenario("churn:period=4,amplitude=6", 40)
        rng = make_rng(1)
        x, t = 20, 0
        for t in range(1, 60):
            x = scenario_step_generator(voter(1), scenario, x, t, 1, rng)
            pin1, pin0 = scenario.pinned(t, 1)
            assert pin1 <= x <= scenario.population(t) - pin0
