"""E9 — Proposition 4: the one-round jump bound, measured.

From any configuration with at most ``c n`` ones, one parallel round keeps
the count below ``y(c, ell) n = (1 - (1-c)^(ell+1)/2) n`` except with
probability ``exp(-2 sqrt(n))``.  The experiment stress-tests the bound at
the extreme admissible count for a panel of protocols, sample sizes and
thresholds, and reports the observed margin — zero violations expected at
any reachable trial count (the failure probability at n=4096 is e^-128).

It also demonstrates the boundary of the proposition: for larger ``ell``
one-round reachability stops being local (the paper's remark on why the
technique cannot extend past ``ell = Omega(log n)``) — from a configuration
just below one half, a large-``ell`` Minority population perceives a
near-unanimous majority of zeros and jumps almost to the all-one consensus
in a *single* round, while ``ell = 3`` moves only marginally.
"""

from __future__ import annotations

import numpy as np

from _harness import case_seed, emit, pick, run_once
from repro.analysis.series import Table
from repro.core.jump_bound import check_jump_bound, jump_failure_probability
from repro.dynamics.rng import make_rng
from repro.protocols import majority, minority, voter

N = pick(4096, 512)
TRIALS = pick(400, 100)
CASES = [
    (voter(1), 0.25),
    (voter(1), 0.5),
    (minority(3), 0.25),
    (minority(3), 0.5),
    (minority(7), 0.5),
    (minority(15), 0.5),
    (majority(3), 0.5),
]


def _measure():
    rows = []
    for protocol, c in CASES:
        check = check_jump_bound(
            protocol, n=N, c=c, trials=TRIALS, rng=make_rng(case_seed(protocol.name, c))
        )
        rows.append(
            (
                protocol.name,
                c,
                check.y,
                check.max_fraction_reached,
                check.y - check.max_fraction_reached,
                check.violations,
            )
        )
    # The boundary demonstration: one-round reach from just below one half.
    reach = []
    for ell in (3, 31, 255):
        check = check_jump_bound(
            minority(ell), n=N, c=0.45, trials=50, rng=make_rng(900 + ell)
        )
        reach.append((ell, check.max_fraction_reached))
    return rows, reach


def test_prop4_jump_bound(benchmark):
    rows, reach = run_once(benchmark, _measure, experiment="E9_prop4_jump")

    table = Table(
        f"E9 / Proposition 4 — one-round jump bound at n={N}, {TRIALS} "
        f"trials from x = floor(c n); analytic failure prob = "
        f"{jump_failure_probability(N):.2e}",
        ["protocol", "c", "y(c,ell)", "max fraction seen", "margin", "violations"],
    )
    for row in rows:
        table.add_row(*row)

    summary = (
        "one-round reach of Minority from x = 0.45 n, by ell: "
        + ", ".join(f"ell={ell}: {frac:.3f}" for ell, frac in reach)
        + "\n(large samples make the whole population perceive the same "
        "near-majority and jump almost to consensus in one round — the "
        "paper's explanation of why the lower-bound technique cannot extend "
        "to ell = Omega(log n))"
    )
    emit("E9_prop4_jump", table, summary)

    assert all(row[-1] == 0 for row in rows), "Proposition 4 violated"
    reach_by_ell = dict(reach)
    # Constant ell: local moves.  Large ell: a near-consensus jump.
    assert reach_by_ell[3] < 0.7
    assert reach_by_ell[255] > 0.9
    assert reach_by_ell[3] < reach_by_ell[31] < reach_by_ell[255]
