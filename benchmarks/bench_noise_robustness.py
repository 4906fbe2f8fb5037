"""E14 — extension: observation noise breaks the model's clean dichotomies.

The paper's agents read sampled opinions perfectly.  Flipping each observed
opinion with probability ``delta`` (a per-sample binary symmetric channel)
is equivalent to running the clean protocol at the distorted fraction
``p~ = p(1-delta) + (1-delta')...`` — see :mod:`repro.dynamics.noise` — and
changes the problem qualitatively:

* no protocol keeps an exact consensus (Proposition 3's mechanism breaks);
* the Voter acquires a restoring drift toward 1/2 that swamps the O(1/n)
  source pull: even 1% noise destroys bit-dissemination entirely;
* Majority-type restoring drifts *hold* an epsilon-consensus under small
  noise but still cannot reach it from the wrong side.

The experiment sweeps ``delta`` and reports time-average correct fractions
and epsilon-consensus occupancy for Voter, Majority and large-sample
Minority on adversarial and consensus starts.
"""

from __future__ import annotations

import numpy as np

from _harness import case_seed, emit, pick, run_once
from repro.analysis.series import Table
from repro.core.theory import minority_sqrt_sample_size
from repro.dynamics.config import Configuration
from repro.dynamics.noise import noisy_occupancy
from repro.dynamics.rng import make_rng
from repro.protocols import majority, minority, voter

N = pick(1024, 256)
ROUNDS = pick(12000, 3000)
BURN_IN = pick(7000, 1500)  # past the clean Voter's ~1.7n-round convergence
DELTAS = (0.0, 0.01, 0.05, 0.2, 0.45)


def _measure():
    ell = minority_sqrt_sample_size(N)
    cases = [
        ("voter(1), all-wrong start", voter(1), Configuration(n=N, z=1, x0=1)),
        ("majority(5), consensus start", majority(5), Configuration(n=N, z=1, x0=N)),
        (
            f"minority({ell}), all-wrong start",
            minority(ell),
            Configuration(n=N, z=1, x0=1),
        ),
    ]
    rows = []
    for label, protocol, config in cases:
        for delta in DELTAS:
            result = noisy_occupancy(
                protocol,
                config,
                delta=delta,
                rounds=ROUNDS,
                rng=make_rng(case_seed(label, delta)),
                burn_in=BURN_IN,
            )
            rows.append(
                (label, delta, result.mean_correct_fraction, result.occupancy)
            )
    return rows


def test_noise_robustness(benchmark):
    rows = run_once(benchmark, _measure, experiment="E14_noise_robustness")

    table = Table(
        f"E14 / extension — observation noise (BSC per sample), n={N}, "
        f"{ROUNDS} rounds ({BURN_IN} burn-in); 'occupancy' = fraction of "
        "rounds with >= 95% of agents correct",
        ["case", "delta", "mean correct fraction", "eps-consensus occupancy"],
    )
    for row in rows:
        table.add_row(*row)
    emit(
        "E14_noise_robustness",
        table,
        "Reading: delta=0 reproduces the clean model (Voter and large-ell "
        "Minority disseminate; Majority merely holds).  Any delta > 0 parks "
        "the Voter at a coin flip (the noise drift delta(1-2p) dwarfs the "
        "1/n source pull) and makes the large-ell Minority *anti*-track the "
        "consensus; Majority's restoring drift degrades gracefully instead.",
    )

    by_case = {}
    for label, delta, mean_correct, occupancy in rows:
        by_case.setdefault(label, {})[delta] = (mean_correct, occupancy)

    voter_rows = by_case["voter(1), all-wrong start"]
    assert voter_rows[0.0][0] > 0.95  # clean: disseminates
    assert voter_rows[0.01][0] < 0.75  # 1% noise: stuck near 1/2
    majority_rows = by_case["majority(5), consensus start"]
    assert majority_rows[0.05][1] > 0.9  # small noise: consensus held
    assert majority_rows[0.45][0] < 0.8  # heavy noise: degraded
