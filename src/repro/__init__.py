"""repro — reproduction of "On the Limits of Information Spread by Memory-less
Agents" (D'Archivio & Vacus, PODC 2024).

The package models the self-stabilizing bit-dissemination problem: ``n``
anonymous, memory-less agents with binary opinions, one fixed "source"
holding the correct one, parallel or sequential uniform-sampling updates.

Quick tour (see README.md for a narrated version):

>>> from repro import minority, lower_bound_certificate
>>> cert = lower_bound_certificate(minority(3))
>>> cert.case
'case 1 (F < 0, Theorem 6)'

Subpackages:
    core        the paper's contribution — bias polynomial, roots, Theorem 12
    protocols   the dynamics zoo (Voter, Minority, Majority, blends, tables)
    dynamics    parallel / sequential / multi-opinion simulation engines
    markov      exact chains, birth-death analysis, Doob/Azuma machinery
    dual        the coalescing-random-walk dual of the Voter (Appendix B)
    extensions  memory and population-protocol escape hatches (Section 1.3)
    analysis    ensembles, scaling fits, text/CSV figure rendering
    telemetry   run recorders: per-round metrics, JSONL traces, provenance
"""

from repro.core import (
    AssumptionReport,
    JumpBoundCheck,
    LowerBoundCertificate,
    Protocol,
    ProtocolFamily,
    SignProfile,
    bias_coefficients,
    bias_value,
    check_jump_bound,
    constant_family,
    drift_identity_gap,
    expected_next_count,
    is_zero_bias,
    jump_bound_y,
    lower_bound_certificate,
    sign_profile,
    unit_interval_roots,
    verify_escape_assumptions,
)
from repro.dynamics import (
    Configuration,
    adversarial_configurations,
    balanced_configuration,
    consensus_configuration,
    escape_time,
    escape_time_ensemble,
    make_rng,
    simulate,
    simulate_ensemble,
    simulate_sequential,
    spawn_rngs,
    time_to_leave_consensus,
    wrong_consensus_configuration,
)
from repro.telemetry import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    Recorder,
    compose_recorders,
    open_trace_writer,
    read_trace,
    validate_trace,
)
from repro.protocols import (
    biased_voter,
    double_lobe,
    majority,
    minority,
    minority_sqrt_family,
    random_protocol,
    table_protocol,
    voter,
    voter_minority_blend,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Protocol",
    "ProtocolFamily",
    "constant_family",
    "bias_value",
    "bias_coefficients",
    "expected_next_count",
    "drift_identity_gap",
    "unit_interval_roots",
    "sign_profile",
    "SignProfile",
    "is_zero_bias",
    "jump_bound_y",
    "check_jump_bound",
    "JumpBoundCheck",
    "LowerBoundCertificate",
    "AssumptionReport",
    "lower_bound_certificate",
    "verify_escape_assumptions",
    # protocols
    "voter",
    "minority",
    "minority_sqrt_family",
    "majority",
    "voter_minority_blend",
    "biased_voter",
    "double_lobe",
    "table_protocol",
    "random_protocol",
    # dynamics
    "Configuration",
    "consensus_configuration",
    "wrong_consensus_configuration",
    "balanced_configuration",
    "adversarial_configurations",
    "make_rng",
    "spawn_rngs",
    "simulate",
    "simulate_ensemble",
    "simulate_sequential",
    "escape_time",
    "escape_time_ensemble",
    "time_to_leave_consensus",
    # telemetry
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "MetricsRecorder",
    "compose_recorders",
    "open_trace_writer",
    "read_trace",
    "validate_trace",
]
