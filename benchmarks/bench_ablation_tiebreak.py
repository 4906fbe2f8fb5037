"""E11 — ablation: the Minority tie-break at even sample sizes.

The tie response at ``k = ell/2`` is the only free choice in Protocol 2.
The paper fixes it to a fair coin; this ablation compares the three natural
options at ``ell = 4``:

* ``uniform`` — the paper's rule (opinion-symmetric, oblivious);
* ``stay``    — keep one's opinion (symmetric, *not* oblivious);
* ``adopt-one`` — deterministic 1 (breaks opinion symmetry, shifting the
  interior root of the bias polynomial off 1/2 and making the two witness
  directions asymmetric).

Reported: the bias landscape (roots, sign profile), the Theorem-12
certificate each variant receives, and the escape behaviour at one ``n`` —
the ablation's conclusion being that the tie-break moves constants but no
variant escapes the Theorem-1 fate.
"""

from __future__ import annotations

import numpy as np

from _harness import case_seed, emit, pick, run_once
from repro.analysis.series import Table
from repro.core.lower_bound import lower_bound_certificate
from repro.core.roots import sign_profile
from repro.dynamics.rng import make_rng
from repro.dynamics.run import escape_time_ensemble
from repro.protocols import minority
from repro.protocols.minority import TIE_BREAK_RULES

N = pick(2048, 256)
REPLICAS = pick(10, 3)
BUDGET = 2 * N


def _measure():
    rows = []
    for rule in TIE_BREAK_RULES:
        protocol = minority(4, tie_break=rule)
        profile = sign_profile(protocol)
        certificate = lower_bound_certificate(protocol)
        times = escape_time_ensemble(
            protocol, certificate, N, BUDGET, make_rng(case_seed(rule)), REPLICAS
        )
        censored = int(np.isnan(times).sum())
        observed = np.where(np.isnan(times), BUDGET, times)
        rows.append(
            (
                rule,
                [round(float(r), 4) for r in profile.roots],
                certificate.case.split(" (")[0],
                (round(float(certificate.interval[0]), 3), round(float(certificate.interval[1]), 3)),
                float(np.median(observed)),
                censored,
                protocol.is_opinion_symmetric(),
            )
        )
    return rows


def test_ablation_tiebreak(benchmark):
    rows = run_once(benchmark, _measure, experiment="E11_ablation_tiebreak")

    table = Table(
        f"E11 / ablation — Minority(ell=4) tie-break variants at n={N} "
        f"(escape budget {BUDGET} rounds, bound sqrt(n) = {int(N**0.5)})",
        [
            "tie-break",
            "roots of F",
            "case",
            "interval",
            "median escape",
            "censored",
            "opinion-symmetric",
        ],
    )
    for row in rows:
        table.add_row(*row)
    emit(
        "E11_ablation_tiebreak",
        table,
        "All variants are Case-1 protocols whose escape censors at the "
        "budget: the tie-break shifts the bias landscape's constants "
        "(adopt-one moves the interior root off 1/2) but cannot rescue a "
        "constant sample size.",
    )

    by_rule = {row[0]: row for row in rows}
    # The symmetric rules keep the interior root at 1/2.
    assert any(abs(r - 0.5) < 1e-6 for r in by_rule["uniform"][1])
    assert any(abs(r - 0.5) < 1e-6 for r in by_rule["stay"][1])
    # adopt-one breaks symmetry and moves the root.
    assert not by_rule["adopt-one"][6]
    assert not any(abs(r - 0.5) < 1e-6 for r in by_rule["adopt-one"][1])
    # No variant beats the lower bound.
    for row in rows:
        assert row[4] >= N**0.5
