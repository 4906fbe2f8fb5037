"""The scalar keyed front and the compact lock-step loop change no bit.

``step_counts_keyed`` and ``scenario_step_counts`` step small active sets
through a pure-Python scalar front and larger ones through the NumPy array
kernel.  Every test here goes through public calls: a front result is
compared with the first entries of the same call padded past the front's
size limit, which takes the array route.  The scalar inverse CDFs are
checked against the array ones over their corner grids.  The pinned
digests were taken before the front and the compact loop existed; they
cover the times, the timing-free trace bytes and every checkpoint payload
of a clean, a scenario, an interrupted-and-resumed, a loop-engine and a
supervised ensemble.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.dynamics.config import wrong_consensus_configuration
from repro.dynamics.rng import make_rng
from repro.dynamics.run import simulate_ensemble
from repro.execution import Checkpointer, GracefulExit
from repro.protocols import minority, voter
from repro.telemetry import open_trace_writer


class _PayloadLog(Checkpointer):
    """A checkpointer that also keeps every payload it writes, as JSON."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def save(self, runner, completed_round, rng, payload, complete=False):
        self.log.append(
            [int(completed_round), bool(complete), json.dumps(payload, sort_keys=True)]
        )
        return super().save(runner, completed_round, rng, payload, complete)


class _StopAfterPolls:
    """Guard stand-in whose stop request fires after N should_stop polls."""

    def __init__(self, polls: int) -> None:
        self.remaining = polls
        self.signum = 15

    @property
    def requested(self) -> bool:
        self.remaining -= 1
        return self.remaining <= 0

    def flush_registered(self) -> None:
        pass


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _traced_run(tmp_path, tag, protocol, n, max_rounds, seed, replicas, **kwargs):
    """Times, trace bytes and checkpoint payloads of one traced ensemble."""
    trace = tmp_path / f"{tag}.jsonl"
    checkpoint = _PayloadLog(tmp_path / f"{tag}.ckpt", every=kwargs.pop("every", 50))
    with open_trace_writer(trace, "jsonl", include_timings=False) as writer:
        times = simulate_ensemble(
            protocol, wrong_consensus_configuration(n, 1), max_rounds,
            make_rng(seed), replicas, recorder=writer, checkpoint=checkpoint,
            **kwargs,
        )
    return {
        "times": _sha(np.asarray(times, dtype=np.float64).tobytes()),
        "trace": _sha(trace.read_bytes()),
        "payloads": _sha(json.dumps(checkpoint.log).encode()),
    }


def _interrupted_run(tmp_path):
    """An ensemble stopped mid-run, then resumed from its checkpoint."""
    args = (voter(1), wrong_consensus_configuration(96, 1), 5000)
    first = _PayloadLog(tmp_path / "stop.ckpt", every=5, guard=_StopAfterPolls(23))
    with pytest.raises(GracefulExit):
        simulate_ensemble(*args, make_rng(7), 8, checkpoint=first)
    trace = tmp_path / "resumed.jsonl"
    second = _PayloadLog(tmp_path / "stop.ckpt", every=5)
    second.resume_state = Checkpointer.resume(tmp_path / "stop.ckpt").resume_state
    with open_trace_writer(trace, "jsonl", include_timings=False) as writer:
        times = simulate_ensemble(
            *args, make_rng(7), 8, checkpoint=second, recorder=writer
        )
    return {
        "times": _sha(np.asarray(times, dtype=np.float64).tobytes()),
        "trace": _sha(trace.read_bytes()),
        "payloads": _sha(json.dumps(first.log + second.log).encode()),
    }


def _supervised_run(tmp_path):
    from repro.execution.supervisor import SupervisorConfig, run_supervised_ensemble

    trace = tmp_path / "merged.jsonl"
    result = run_supervised_ensemble(
        voter(1), wrong_consensus_configuration(80, 1), 3000, make_rng(5), 10,
        supervisor=SupervisorConfig(workers=2, shards=3),
        trace_path=trace, checkpoint_base=tmp_path / "sup.ckpt",
        checkpoint_every=40,
    )
    return {
        "times": _sha(np.asarray(result.times, dtype=np.float64).tobytes()),
        "trace": _sha(trace.read_bytes()),
    }


HOSTILE = "churn:period=8,amplitude=4+lossy:rate=0.1+flip-source:at=12"


def pinned_cases(tmp_path):
    """Every pinned case's digests, keyed by case name."""
    return {
        "clean": _traced_run(tmp_path, "clean", voter(1), 200, 4000, 11, 24),
        "censored": _traced_run(tmp_path, "censored", minority(3), 60, 300, 12, 4),
        "scenario": _traced_run(
            tmp_path, "scenario", voter(1), 200, 4000, 13, 20, scenario=HOSTILE,
        ),
        "lying-drift": _traced_run(
            tmp_path, "lying", voter(1), 120, 4000, 14, 7,
            scenario="lying-source:start=5,duration=6,period=40+drift:switch=20",
        ),
        "loop": _traced_run(
            tmp_path, "loop", voter(1), 100, 3000, 15, 6, engine="loop",
        ),
        "interrupted": _interrupted_run(tmp_path),
        "supervised": _supervised_run(tmp_path),
    }


# Taken at the commit before the scalar front and the compact loop.
PINNED = {
    "censored": {
        "payloads": "3dbc52001ea0968b9f101b2cd2d5401ffeed8d78b096668cab68c513ef5f528e",
        "times": "947540360b0cd8d6212e6c72a37481fc1a765d78e9ee34da3f2498b083e1fb60",
        "trace": "0c439339ac11c01438613032e2a48d84f422762f22da8675981e5ad9de437fa9",
    },
    "clean": {
        "payloads": "5f9c182c4123a73bd189488c4167de42c67436fe9e8a0f88b6c868ab8b4263cb",
        "times": "79d4c0f918b6605e4b5e8866944a3bd80c17ea004432e118414b6a6a39166cd5",
        "trace": "43e4f873ced7c82be8aaa8675627a9896a17ba587dfdf26e303bcf6421ab346f",
    },
    "interrupted": {
        "payloads": "8896e6acacb63aed0e59308fc5c325cf7befa808ae709ecb2596a5dff726b835",
        "times": "aa00e53872c62c91792a2685ca54af1d1a00ae7ceee16e844a6b06dd7e84cecf",
        "trace": "1970236c51756daad791e04a4c97a98319719f5c0fa26b714f603f86a2a56e43",
    },
    "loop": {
        "payloads": "285bb7ef6c47ccab0bbab44dcd5c4e505f4a5d2433cf2ff58132c2f2ac3836cd",
        "times": "9e2e587f5f3cd242c1da8720c29eccea4d11cb15b9140fa6a787e6eba46da0d0",
        "trace": "cf6bd034c961e95723d8e118838027ad7fad7e834dab954b5b3480846ddb30b5",
    },
    "lying-drift": {
        "payloads": "29fe8fd2f4e7c97bb0f8116e08e15a1bd7e6b1d6bbd55f79a17ad88ae11f23fe",
        "times": "b1ab7997dddf3298d3d2b2296a6180f6c2d75c2de4dc2047807157d2a9ccb322",
        "trace": "71f87f15835950b24365d6d8b5a73edad1963004b2f0d9da0b306e311448ab5e",
    },
    "scenario": {
        "payloads": "b71ca1397e1d76c274e0eebed2a06ac0c27eb4bcd4403a96d6ddf4a70ee205be",
        "times": "d56382cf8321799e5e818d5f4041f91150659a159e1e849c890f1770976dcca9",
        "trace": "018b54c7f3e5937eb7eb58ddd4af847f10afb5a84c2b5a68eeba6a005632477b",
    },
    "supervised": {
        "times": "ead74ad58a7b2018b8ab3b237680b6a8d9872a4d297213a65b11b20aa60f10ce",
        "trace": "09dfc199ffbb3fdb03a56838c051170c97574385d8c03114f103b078fa29976d",
    },
}


def test_pinned_digests_hold(tmp_path):
    assert pinned_cases(tmp_path) == PINNED


# ----------------------------------------------------------------------
# Front vs array, through public calls
# ----------------------------------------------------------------------

from repro.core.theory import minority_sqrt_sample_size  # noqa: E402
from repro.dynamics.batched import (  # noqa: E402
    _FRONT_MAX,
    _icdf,
    binomial_icdf,
    replica_keys,
    step_counts_keyed,
)
from repro.dynamics.scenarios import (  # noqa: E402
    _hypergeometric_scalar,
    available_scenarios,
    hypergeometric_icdf,
    make_scenario,
    scenario_step_counts,
)
from repro.protocols.registry import available_protocols, get_family  # noqa: E402

SIZES = [2, 3, 200, 10**5, 10**8]
ROUNDS = (1, 5, 8, 9, 12, 16, 17, 20, 21, 33)


def _protocols(n):
    out = [get_family(name).at(n) for name in available_protocols()]
    out.append(minority(minority_sqrt_sample_size(max(n, 10**4))))  # ell > 64
    return out


def _padded(lo, hi, seed):
    """K + 1 counts: both edges of ``[lo, hi]`` first, then random ones."""
    rng = np.random.default_rng(seed)
    edges = [lo, hi, min(lo + 1, hi), max(hi - 1, lo)]
    rest = rng.integers(lo, hi + 1, _FRONT_MAX + 1 - len(edges)).tolist()
    return np.array(edges + rest, dtype=np.int64)


@pytest.mark.parametrize("n", SIZES)
def test_clean_front_equals_array(n):
    for protocol in _protocols(n):
        for z in (0, 1):
            counts = _padded(z, n - 1 + z, n + z)
            keys = replica_keys(n + z, counts.size)
            for t in (1, 7, 1000):
                full = step_counts_keyed(protocol, n, z, counts, keys, t)
                for r in range(1, _FRONT_MAX + 1):
                    part = step_counts_keyed(protocol, n, z, counts[:r], keys[:r], t)
                    assert part.dtype == np.int64
                    assert part.tolist() == full[:r].tolist(), (protocol.name, z, t, r)


SCENARIO_SPECS = sorted(available_scenarios()) + [
    HOSTILE,
    "churn:period=6,amplitude=3,bias=0.3+corrupt+drift:switch=5",
    "lying-source:start=3,duration=4,period=9+lossy:rate=0.3",
]


@pytest.mark.parametrize("n", [2, 9, 200, 10**5])
@pytest.mark.parametrize("spec", SCENARIO_SPECS)
def test_scenario_front_equals_array(spec, n):
    scenario = make_scenario(spec, n)
    for protocol in (voter(1), minority(3), _protocols(n)[-1]):
        for z in (0, 1):
            for t in ROUNDS:
                pin1, pin0 = scenario.pinned(t - 1, z)
                counts = _padded(pin1, scenario.population(t - 1) - pin0, n + t)
                keys = replica_keys(n + t, counts.size)
                full = scenario_step_counts(protocol, scenario, z, counts, keys, t)
                for r in range(1, _FRONT_MAX + 1):
                    part = scenario_step_counts(
                        protocol, scenario, z, counts[:r], keys[:r], t
                    )
                    assert part.tolist() == full[:r].tolist(), (spec, z, t, r)


def _message(call):
    with pytest.raises(ValueError) as error:
        call()
    return str(error.value)


def test_out_of_range_count_raises_the_array_message():
    keys = replica_keys(1, _FRONT_MAX + 1)
    for bad in (0, 201):
        counts = np.array([5, bad] + [7] * (_FRONT_MAX - 1), dtype=np.int64)
        front = _message(
            lambda: step_counts_keyed(voter(1), 200, 1, counts[:2], keys[:2], 3)
        )
        array = _message(lambda: step_counts_keyed(voter(1), 200, 1, counts, keys, 3))
        assert front.split("got")[0] == array.split("got")[0]
        assert "[1, 200]" in front and f"{bad}" in front
    scenario = make_scenario(HOSTILE, 200)
    counts = np.array([5, 250] + [7] * (_FRONT_MAX - 1), dtype=np.int64)
    assert _message(
        lambda: scenario_step_counts(voter(1), scenario, 1, counts[:2], keys[:2], 3)
    ) == _message(
        lambda: scenario_step_counts(voter(1), scenario, 1, counts, keys, 3)
    )


def test_front_takes_numpy_rounds_and_refuses_mismatched_keys():
    counts = np.array([5, 90, 150] + [7] * (_FRONT_MAX - 2), dtype=np.int64)
    keys = replica_keys(4, counts.size)
    scenario = make_scenario(HOSTILE, 200)
    for t in (np.int64(9), 9):
        full = step_counts_keyed(voter(1), 200, 1, counts, keys, t)
        part = step_counts_keyed(voter(1), 200, 1, counts[:3], keys[:3], t)
        assert part.tolist() == full[:3].tolist()
        full = scenario_step_counts(voter(1), scenario, 1, counts, keys, t)
        part = scenario_step_counts(voter(1), scenario, 1, counts[:3], keys[:3], t)
        assert part.tolist() == full[:3].tolist()
    for r in (3, _FRONT_MAX + 1):  # the front, then the array kernel
        with pytest.raises(ValueError):
            step_counts_keyed(voter(1), 200, 1, counts[:r], keys[: r - 1], 3)
        with pytest.raises(ValueError):
            scenario_step_counts(voter(1), scenario, 1, counts[:r], keys[: r - 1], 3)


# ----------------------------------------------------------------------
# Scalar vs array inverse CDFs over the corner grids
# ----------------------------------------------------------------------

_MS = [0, 1, 2, 7, 100, 10**4, 10**6, 2**31 - 1, 2**31, 2**31 + 10**6]
_PS = [0.0, 1.0, 1e-300, 1e-12, 2.0**-53, 1e-3, 0.3, 0.5, 0.7, 1 - 1e-12, 1 - 2.0**-53]
_US = [0.0, 2.0**-53, 1e-9, 0.01, 0.3, 0.5, 0.999, 1 - 1e-9, 1 - 2.0**-53]


def test_scalar_binomial_icdf_equals_array():
    u, m, p = (a.ravel() for a in np.meshgrid(_US, _MS, _PS, indexing="ij"))
    m = m.astype(np.int64)
    expected = binomial_icdf(u, m, p).tolist()
    got = [_icdf(float(a), int(b), float(c)) for a, b, c in zip(u, m, p)]
    assert got == expected


def test_scalar_binomial_icdf_nan_path_returns_the_guess():
    # bdtr is NaN from m = 2**31 on: both fronts return the unchecked guess.
    m = 2**31 + 5
    expected = int(binomial_icdf(0.5, m, 0.5))
    assert _icdf(0.5, m, 0.5) == expected
    assert abs(expected - m // 2) < 10**5


def test_scalar_hypergeometric_equals_array():
    cases = []
    for ngood in (0, 1, 5, 40):
        for nbad in (0, 1, 7, 40):
            for draws in sorted({0, 1, 3, ngood + nbad}):
                if draws > ngood + nbad:
                    continue
                for u in (0.0, 2.0**-53, 0.3, 0.5, 0.999, 1 - 2.0**-53):
                    cases.append((u, ngood, nbad, draws))
    u, good, bad, draws = (np.array(c) for c in zip(*cases))
    expected = hypergeometric_icdf(u, good, bad, draws).tolist()
    assert [_hypergeometric_scalar(*case) for case in cases] == expected


def test_scalar_hypergeometric_errors_match():
    for args in ((0.5, -1, 3, 1), (0.5, 2, 2, 5)):
        scalar = _message(lambda: _hypergeometric_scalar(*args))
        array = _message(lambda: hypergeometric_icdf(*args))
        assert scalar == array
