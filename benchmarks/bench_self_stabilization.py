"""E23 — self-stabilization, the quantifier made visible.

The problem demands convergence from *every* initial configuration — the
adversary chooses the starting opinions, including the correct one.  This
experiment runs the adversarial panel (wrong consensus, near-wrong,
balanced, thin correct majority — for both source opinions) against the
main protocols and tabulates who converges from where:

* Voter: converges from the entire panel (self-stabilizing, slowly);
* Minority ℓ=√(n log n): converges from the entire panel (self-stabilizing,
  fast) — the [15] result is a for-all statement, not a lucky start;
* Minority ℓ=3 and Majority ℓ=3: each fails on part of the panel, in
  complementary ways — Minority stalls at the mixed equilibrium, Majority
  is only defeated by wrong-majority starts.
"""

from __future__ import annotations

import numpy as np

from _harness import case_seed, emit, pick, run_once
from repro.analysis.series import Table
from repro.core.theory import minority_sqrt_sample_size
from repro.dynamics.config import adversarial_configurations
from repro.dynamics.rng import make_rng
from repro.dynamics.run import simulate_ensemble
from repro.protocols import majority, minority, voter

N = pick(1024, 256)
REPLICAS = pick(5, 2)
BUDGET = pick(20_000, 3_000)


def _measure():
    panel = adversarial_configurations(N)
    ell = minority_sqrt_sample_size(N)
    protocols = [
        voter(1),
        minority(ell),
        minority(3),
        majority(3),
    ]
    rows = []
    for protocol in protocols:
        for config in panel:
            times = simulate_ensemble(
                protocol, config, BUDGET, make_rng(case_seed(protocol.name, config.x0, config.z)), REPLICAS
            )
            censored = int(np.isnan(times).sum())
            finite = times[~np.isnan(times)]
            rows.append(
                (
                    protocol.name,
                    config.z,
                    config.x0,
                    round(config.x0 / N, 3),
                    float(np.median(finite)) if len(finite) else float("inf"),
                    censored,
                )
            )
    return rows


def test_self_stabilization_panel(benchmark):
    rows = run_once(benchmark, _measure, experiment="E23_self_stabilization")

    table = Table(
        f"E23 / self-stabilization — adversarial start panel at n={N}, "
        f"budget {BUDGET} rounds, {REPLICAS} replicas per cell",
        ["protocol", "z", "x0", "x0/n", "median tau", "censored"],
    )
    for row in rows:
        table.add_row(*row)

    def summarize(name):
        cells = [r for r in rows if r[0] == name]
        failed = sum(1 for r in cells if r[5] > 0)
        return len(cells), failed

    lines = []
    for name in {r[0] for r in rows}:
        total, failed = summarize(name)
        lines.append(f"  {name}: failed on {failed}/{total} panel cells")
    emit(
        "E23_self_stabilization",
        table,
        "Panel verdicts:\n" + "\n".join(sorted(lines)) + "\n"
        "Self-stabilization is the hard part of the problem: plenty of "
        "dynamics reach *a* consensus from friendly starts; only the "
        "self-stabilizing ones survive the adversary's quantifier.",
    )

    ell = minority_sqrt_sample_size(N)
    by_protocol = {}
    for name in {r[0] for r in rows}:
        by_protocol[name] = summarize(name)
    assert by_protocol["voter(ell=1)"][1] == 0
    assert by_protocol[f"minority(ell={ell})"][1] == 0
    assert by_protocol["minority(ell=3)"][1] > 0
    assert by_protocol["majority(ell=3)"][1] > 0
