"""Composable hostile-world scenarios for the count-level engines.

The paper's model assumes a static, truthful world: ``n`` fixed agents, a
source that always displays the correct opinion ``z``, and uncorrupted
samples.  This module makes each of those assumptions *optional*.  A
:class:`Scenario` is a bundle of pure functions of the round index ``t``
that perturb one run:

* ``population(t)`` — agent churn: a deterministic schedule ``n_t`` with
  ``n_0`` equal to the base ``n`` (arrivals draw fresh opinions, departures
  remove uniformly random free agents);
* ``pinned(t, z)`` — how many agents are pinned to display one/zero during
  round ``t``.  The default ``(z, 1 - z)`` is exactly the paper's truthful
  source; a lying source swaps it, zealot populations generalize it;
* ``true_opinion(t, z)`` — the *correct* opinion at round ``t`` (a source
  whose ``z`` flips mid-run changes this, a merely lying source does not);
* ``transform_responses(protocol, t, p, p0, p1)`` — message-level
  perturbations (loss, bit-flip corruption, scheduled protocol drift)
  applied to the protocol's response probabilities;
* ``settle_round(max_rounds)`` — the first round at which convergence may
  be declared.  *Recovery time* of a replica is its convergence round
  minus this settle round (see docs/SCENARIOS.md).

Determinism contract (the docs/ENGINES.md bit-identity contract, extended):
scenarios draw randomness from the **same counter-based per-replica
streams** as the clean engines — draw indices 0/1 stay reserved for the
protocol step through :func:`repro.dynamics.batched.binomial_pair`,
churn arrivals claim draw index 2 and departures draw index 3.  Because
the streams are stateless functions of ``(key, t, draw)``, a scenario that
perturbs nothing consumes nothing, which makes the ``null`` scenario
bit-identical to running with no scenario at all — on the ``loop`` engine,
the ``batched`` engine, through checkpoint resume, and under any shard
split.

One step of the hostile world (round ``t - 1`` -> ``t``)::

    p           = x_{t-1} / n_{t-1}
    p0, p1      = transform_responses(protocol, t, p, *protocol(p))
    free_ones   = B(x_{t-1} - pin1_{t-1}, p1)                 # draw 0
                + B(n_{t-1} - x_{t-1} - pin0_{t-1}, p0)       # draw 1
    free_ones  += B(n_t - n_{t-1}, arrival_bias)              # draw 2 (growth)
    free_ones  -= Hypergeom(free_ones, free - free_ones,
                            n_{t-1} - n_t)                    # draw 3 (shrink)
    x_t         = pin1_t + free_ones

With the null scenario this collapses to the clean kernel term for term.

Scenarios are addressed by spec strings — ``NAME`` or ``NAME:k=v,...``,
composed with ``+`` (``churn:period=8+lossy:rate=0.2+flip-source:at=50``).
The registry (:func:`register_scenario`, :func:`available_scenarios`,
:func:`make_scenario`) mirrors the protocol registry; ``repro scenarios
list`` prints it with parameter schemas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import special

from repro.dynamics.batched import binomial_icdf, binomial_pair, counter_uniforms
from repro.telemetry import NULL_RECORDER, Recorder, current_span

__all__ = [
    "Scenario",
    "ComposedScenario",
    "ScenarioParam",
    "ScenarioFamily",
    "register_scenario",
    "get_scenario_family",
    "available_scenarios",
    "make_scenario",
    "as_scenario",
    "scenario_step_counts",
    "scenario_step_count",
    "scenario_step_generator",
    "scenario_target",
    "hypergeometric_icdf",
]


# ----------------------------------------------------------------------
# The Scenario protocol (base class doubles as the null scenario)
# ----------------------------------------------------------------------


class Scenario:
    """A deterministic schedule of hostile-world perturbations.

    The base class *is* the null scenario: a static, truthful world whose
    step is bit-identical to the clean engines.  Subclasses override the
    hooks they perturb and declare what they touch via ``affects_source``
    (pinned counts / true opinion) and ``affects_population`` (churn), so
    :class:`ComposedScenario` can reject ambiguous compositions.

    All hooks are pure functions of ``t`` (and the base opinion ``z``) —
    scenarios carry **no mutable state**, which is what makes checkpoint
    resume trivially correct: the round index alone reconstructs the
    world.
    """

    name = "null"
    affects_source = False
    affects_population = False

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"population must be at least 2, got {n}")
        self.n = int(n)

    # -- identity ------------------------------------------------------

    def params(self) -> Dict[str, object]:
        """The constructor parameters, for canonical spec strings."""
        return {}

    def spec(self) -> str:
        """Canonical spec string (folds into checkpoint signatures)."""
        params = self.params()
        if not params:
            return self.name
        body = ",".join(
            f"{key}={_format_param(params[key])}" for key in sorted(params)
        )
        return f"{self.name}:{body}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec()!r}, n={self.n})"

    # -- world schedule ------------------------------------------------

    def population(self, t: int) -> int:
        """Total agent count during round ``t`` (``population(0) == n``)."""
        return self.n

    def pinned(self, t: int, z: int) -> Tuple[int, int]:
        """``(ones, zeros)`` pinned displays during round ``t``.

        The default is the paper's truthful source: one agent pinned to
        display ``z``.  The pinned **total** must be constant over time
        (pinned agents do not churn).
        """
        return (z, 1 - z)

    def true_opinion(self, t: int, z: int) -> int:
        """The correct opinion at round ``t`` (the convergence target)."""
        return z

    def arrival_bias(self, t: int) -> float:
        """P(a churn arrival displays one) — only used under growth."""
        return 0.5

    def transform_responses(self, protocol, t: int, p, p0, p1):
        """Perturb the protocol's response probabilities for round ``t``."""
        return p0, p1

    # -- convergence & observability -----------------------------------

    def settle_round(self, max_rounds: int) -> int:
        """First round at which convergence may be declared.

        Replicas never retire before this round; ``recovery = tau -
        settle_round`` is the recovery-time statistic.  The null value 0
        reproduces plain rounds-to-consensus.
        """
        return 0

    def events(self, max_rounds: int) -> List[Tuple[int, str]]:
        """Scheduled world events ``(t, kind)`` for trace tagging."""
        return []


def _format_param(value) -> str:
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def scenario_target(scenario: Scenario, t: int, z: int) -> int:
    """The converged displayed-one count at round ``t``.

    Converged means every *free* agent displays the current true opinion;
    pinned ones are counted as displayed.  For the null scenario this is
    the familiar ``n * z``.
    """
    pin1, pin0 = scenario.pinned(t, z)
    n_t = scenario.population(t)
    z_t = scenario.true_opinion(t, z)
    return pin1 + (n_t - pin1 - pin0) * z_t


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------


class ChurnScenario(Scenario):
    """Square-wave agent churn: ``amplitude`` extra agents every cycle.

    Phase ``t % period`` spends the first half of the cycle at the base
    population and the second half at ``n + amplitude``; the boundary
    crossings are the arrival/departure batches.  Arrivals display one
    with probability ``bias``; departures remove uniformly random free
    agents (pinned agents never churn).
    """

    name = "churn"
    affects_population = True

    def __init__(
        self,
        n: int,
        period: int = 16,
        amplitude: Optional[int] = None,
        bias: float = 0.5,
    ):
        super().__init__(n)
        if amplitude is None:
            amplitude = max(1, n // 8)
        period, amplitude, bias = int(period), int(amplitude), float(bias)
        if period < 2:
            raise ValueError(f"churn period must be at least 2, got {period}")
        if amplitude < 0:
            raise ValueError(f"churn amplitude must be >= 0, got {amplitude}")
        if not 0.0 <= bias <= 1.0:
            raise ValueError(f"churn bias must lie in [0, 1], got {bias}")
        self.period = period
        self.amplitude = amplitude
        self.bias = bias

    def params(self) -> Dict[str, object]:
        return {"period": self.period, "amplitude": self.amplitude, "bias": self.bias}

    def population(self, t: int) -> int:
        if t <= 0:
            return self.n
        high_phase = (t % self.period) >= (self.period + 1) // 2
        return self.n + self.amplitude if high_phase else self.n

    def arrival_bias(self, t: int) -> float:
        return self.bias

    def events(self, max_rounds: int) -> List[Tuple[int, str]]:
        out: List[Tuple[int, str]] = []
        for t in range(1, max_rounds + 1):
            before, after = self.population(t - 1), self.population(t)
            if after > before:
                out.append((t, "churn_up"))
            elif after < before:
                out.append((t, "churn_down"))
        return out


class LossyScenario(Scenario):
    """Per-sample message loss: each sample is dropped w.p. ``rate``.

    A memory-less agent whose sample is lost keeps its displayed opinion,
    so ``p1 -> rate + (1 - rate) * p1`` and ``p0 -> (1 - rate) * p0``.
    Consensus stays absorbing (loss can only slow convergence down).
    """

    name = "lossy"

    def __init__(self, n: int, rate: float = 0.1):
        super().__init__(n)
        rate = float(rate)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must lie in [0, 1), got {rate}")
        self.rate = rate

    def params(self) -> Dict[str, object]:
        return {"rate": self.rate}

    def transform_responses(self, protocol, t, p, p0, p1):
        return (1.0 - self.rate) * p0, self.rate + (1.0 - self.rate) * p1


class CorruptScenario(Scenario):
    """Per-sample bit-flip corruption at rate ``delta``.

    Each sampled opinion arrives flipped with probability ``delta``, so
    responses are re-evaluated at the distorted fraction ``p(1 - delta) +
    (1 - p)delta`` — exactly the model in :mod:`repro.dynamics.noise`
    (which is now a thin wrapper over this scenario).  Consensus is *not*
    absorbing under corruption; convergence keeps first-hit semantics.
    """

    name = "corrupt"

    def __init__(self, n: int, delta: float = 0.05):
        super().__init__(n)
        delta = float(delta)
        if not 0.0 <= delta <= 0.5:
            raise ValueError(f"corruption delta must lie in [0, 0.5], got {delta}")
        self.delta = delta

    def params(self) -> Dict[str, object]:
        return {"delta": self.delta}

    def transform_responses(self, protocol, t, p, p0, p1):
        # Same expression as noise.distorted_fraction, kept bit-identical
        # so the legacy step is exactly reproducible through this hook.
        distorted = p * (1.0 - self.delta) + (1.0 - p) * self.delta
        return protocol.response_probabilities(distorted)


class LyingSourceScenario(Scenario):
    """A source that displays ``1 - z`` during scheduled lie windows.

    Lies start at round ``start`` and last ``duration`` rounds; with
    ``period > 0`` the window repeats every ``period`` rounds.  The true
    opinion never changes — convergence is gated on ``settle_round``,
    the round after the last lie within the budget, so the recovery-time
    statistic measures healing after the final lie.
    """

    name = "lying-source"
    affects_source = True

    def __init__(self, n: int, start: int = 8, duration: int = 8, period: int = 0):
        super().__init__(n)
        start, duration, period = int(start), int(duration), int(period)
        if start < 1:
            raise ValueError(f"lie start must be >= 1, got {start}")
        if duration < 1:
            raise ValueError(f"lie duration must be >= 1, got {duration}")
        if period and period <= duration:
            raise ValueError(
                f"lie period must exceed the duration, got period={period} "
                f"<= duration={duration}"
            )
        self.start = start
        self.duration = duration
        self.period = period

    def params(self) -> Dict[str, object]:
        return {"start": self.start, "duration": self.duration, "period": self.period}

    def _lying(self, t: int) -> bool:
        if t < self.start:
            return False
        if self.period:
            return (t - self.start) % self.period < self.duration
        return t < self.start + self.duration

    def pinned(self, t: int, z: int) -> Tuple[int, int]:
        if self._lying(t):
            return (1 - z, z)
        return (z, 1 - z)

    def settle_round(self, max_rounds: int) -> int:
        if max_rounds < self.start:
            return 0
        if self.period:
            cycles = (max_rounds - self.start) // self.period
            offset = (max_rounds - self.start) % self.period
            if offset < self.duration:
                last = max_rounds
            else:
                last = self.start + cycles * self.period + self.duration - 1
        else:
            last = min(self.start + self.duration - 1, max_rounds)
        return last + 1

    def events(self, max_rounds: int) -> List[Tuple[int, str]]:
        out: List[Tuple[int, str]] = []
        for t in range(1, max_rounds + 1):
            lying, lied = self._lying(t), self._lying(t - 1)
            if lying and not lied:
                out.append((t, "lie_start"))
            elif lied and not lying:
                out.append((t, "lie_end"))
        return out


class FlipSourceScenario(Scenario):
    """The world changes its mind: ``z`` flips permanently at round ``at``.

    The source stays truthful throughout — it displays the *new* correct
    opinion from round ``at`` on — so the convergence target flips with
    it.  ``settle_round`` is the flip round: rounds-to-consensus measures
    time to the new truth, recovery time measures it from the flip.
    """

    name = "flip-source"
    affects_source = True

    def __init__(self, n: int, at: int = 16):
        super().__init__(n)
        at = int(at)
        if at < 1:
            raise ValueError(f"flip round must be >= 1, got {at}")
        self.at = at

    def params(self) -> Dict[str, object]:
        return {"at": self.at}

    def true_opinion(self, t: int, z: int) -> int:
        return z if t < self.at else 1 - z

    def pinned(self, t: int, z: int) -> Tuple[int, int]:
        z_t = self.true_opinion(t, z)
        return (z_t, 1 - z_t)

    def settle_round(self, max_rounds: int) -> int:
        return self.at if self.at <= max_rounds else 0

    def events(self, max_rounds: int) -> List[Tuple[int, str]]:
        return [(self.at, "source_flip")] if self.at <= max_rounds else []


class DriftScenario(Scenario):
    """Scheduled mixed-protocol drift: agents switch rule at ``switch``.

    From round ``switch`` on, responses come from the registered protocol
    family ``alt`` (resolved at the base population size), modelling a
    population whose behavioural program is updated mid-run.
    """

    name = "drift"

    def __init__(self, n: int, alt: str = "voter", switch: int = 32):
        super().__init__(n)
        switch = int(switch)
        if switch < 1:
            raise ValueError(f"drift switch round must be >= 1, got {switch}")
        from repro.protocols.registry import get_family

        self.alt = str(alt)
        self.switch = switch
        self.alt_protocol = get_family(self.alt).at(n)

    def params(self) -> Dict[str, object]:
        return {"alt": self.alt, "switch": self.switch}

    def transform_responses(self, protocol, t, p, p0, p1):
        if t < self.switch:
            return p0, p1
        return self.alt_protocol.response_probabilities(p)

    def events(self, max_rounds: int) -> List[Tuple[int, str]]:
        return [(self.switch, "protocol_drift")] if self.switch <= max_rounds else []


class ZealotsScenario(Scenario):
    """``s1`` agents pinned to display one and ``s0`` pinned to zero.

    Generalizes the single truthful source: there is no distinguished
    source at all, just immovable blocs.  :mod:`repro.dynamics.zealots`
    is now a thin wrapper over this scenario.  With zealots on both
    sides, full consensus is unreachable and runs simply censor.
    """

    name = "zealots"
    affects_source = True

    def __init__(self, n: int, s1: int = 1, s0: int = 0):
        super().__init__(n)
        s1, s0 = int(s1), int(s0)
        if s1 < 0 or s0 < 0:
            raise ValueError(f"zealot counts must be >= 0, got s1={s1}, s0={s0}")
        if s1 + s0 >= n:
            raise ValueError(
                f"zealots must leave at least one free agent: "
                f"s1={s1} + s0={s0} >= n={n}"
            )
        self.s1 = s1
        self.s0 = s0

    def params(self) -> Dict[str, object]:
        return {"s1": self.s1, "s0": self.s0}

    def pinned(self, t: int, z: int) -> Tuple[int, int]:
        return (self.s1, self.s0)


class ComposedScenario(Scenario):
    """Several scenarios applied to the same run.

    Composition semantics (docs/SCENARIOS.md): response transforms chain
    in listed order; at most one part may affect the source (pinned
    counts / true opinion) and at most one may affect the population, so
    the world stays well-defined; ``settle_round`` is the maximum over
    parts; events merge.
    """

    def __init__(self, parts: Sequence[Scenario]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a composed scenario needs at least one part")
        sizes = {part.n for part in parts}
        if len(sizes) != 1:
            raise ValueError(
                f"composed scenarios must share one base population, got {sorted(sizes)}"
            )
        super().__init__(parts[0].n)
        source_parts = [part for part in parts if part.affects_source]
        churn_parts = [part for part in parts if part.affects_population]
        if len(source_parts) > 1:
            raise ValueError(
                "at most one source-affecting scenario per composition, got "
                + " + ".join(part.name for part in source_parts)
            )
        if len(churn_parts) > 1:
            raise ValueError(
                "at most one population-affecting scenario per composition, got "
                + " + ".join(part.name for part in churn_parts)
            )
        self.parts = parts
        self._source = source_parts[0] if source_parts else None
        self._churn = churn_parts[0] if churn_parts else None

    @property
    def name(self) -> str:  # type: ignore[override]
        return "+".join(part.name for part in self.parts)

    @property
    def affects_source(self) -> bool:  # type: ignore[override]
        return self._source is not None

    @property
    def affects_population(self) -> bool:  # type: ignore[override]
        return self._churn is not None

    def spec(self) -> str:
        return "+".join(part.spec() for part in self.parts)

    def population(self, t: int) -> int:
        return self._churn.population(t) if self._churn else self.n

    def pinned(self, t: int, z: int) -> Tuple[int, int]:
        if self._source is not None:
            return self._source.pinned(t, z)
        return super().pinned(t, z)

    def true_opinion(self, t: int, z: int) -> int:
        if self._source is not None:
            return self._source.true_opinion(t, z)
        return z

    def arrival_bias(self, t: int) -> float:
        if self._churn is not None:
            return self._churn.arrival_bias(t)
        return super().arrival_bias(t)

    def transform_responses(self, protocol, t, p, p0, p1):
        for part in self.parts:
            p0, p1 = part.transform_responses(protocol, t, p, p0, p1)
        return p0, p1

    def settle_round(self, max_rounds: int) -> int:
        return max(part.settle_round(max_rounds) for part in self.parts)

    def events(self, max_rounds: int) -> List[Tuple[int, str]]:
        merged: List[Tuple[int, str]] = []
        for part in self.parts:
            merged.extend(part.events(max_rounds))
        return sorted(merged)


# ----------------------------------------------------------------------
# Registry & spec parsing (mirrors repro.protocols.registry)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioParam:
    """One spec parameter: ``kind`` is ``"int"``, ``"float"`` or ``"str"``."""

    name: str
    kind: str
    default: object
    doc: str


@dataclass(frozen=True)
class ScenarioFamily:
    """A registered scenario: factory ``(n, **params) -> Scenario``."""

    name: str
    summary: str
    params: Tuple[ScenarioParam, ...]
    factory: Callable[..., Scenario]


_REGISTRY: Dict[str, ScenarioFamily] = {}

_COERCE = {"int": int, "float": float, "str": str}


def register_scenario(family: ScenarioFamily) -> None:
    """Register a scenario family under its name (overwrites silently)."""
    _REGISTRY[family.name] = family


def get_scenario_family(name: str) -> ScenarioFamily:
    """Look up a registered scenario family by name."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")
    return _REGISTRY[name]


def available_scenarios() -> List[str]:
    return sorted(_REGISTRY)


def _parse_params(family: ScenarioFamily, body: str) -> Dict[str, object]:
    schema = {param.name: param for param in family.params}
    parsed: Dict[str, object] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(
                f"malformed scenario parameter {item!r} for {family.name!r} "
                f"(expected key=value)"
            )
        if key not in schema:
            known = ", ".join(sorted(schema)) or "(none)"
            raise ValueError(
                f"unknown parameter {key!r} for scenario {family.name!r}; "
                f"known parameters: {known}"
            )
        try:
            parsed[key] = _COERCE[schema[key].kind](raw.strip())
        except ValueError as error:
            raise ValueError(
                f"bad value {raw.strip()!r} for {family.name}:{key} "
                f"(expected {schema[key].kind})"
            ) from error
    return parsed


def make_scenario(spec: Union[str, Scenario], n: int) -> Scenario:
    """Build a scenario from a spec string at base population ``n``.

    Specs are ``NAME`` or ``NAME:k=v,...``, composed with ``+``::

        make_scenario("churn:period=8+lossy:rate=0.2+flip-source:at=50", 256)

    A :class:`Scenario` instance passes through unchanged.
    """
    if isinstance(spec, Scenario):
        return spec
    pieces = [piece.strip() for piece in str(spec).split("+")]
    pieces = [piece for piece in pieces if piece]
    if not pieces:
        raise ValueError(f"empty scenario spec {spec!r}")
    parts = []
    for piece in pieces:
        name, sep, body = piece.partition(":")
        family = get_scenario_family(name.strip())
        params = _parse_params(family, body) if sep else {}
        parts.append(family.factory(n, **params))
    if len(parts) == 1:
        return parts[0]
    return ComposedScenario(parts)


def as_scenario(scenario, n: int) -> Optional[Scenario]:
    """Normalize ``None`` / spec string / ``ScenarioConfig`` / ``Scenario``."""
    if scenario is None:
        return None
    if isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, str):
        return make_scenario(scenario, n)
    spec = getattr(scenario, "spec", None)  # duck-typed ScenarioConfig
    if isinstance(spec, str):
        return make_scenario(spec, n)
    raise TypeError(f"cannot interpret {scenario!r} as a scenario")


def _register_builtins() -> None:
    register_scenario(ScenarioFamily(
        "null", "truthful static world — bit-identical to no scenario", (),
        lambda n: Scenario(n),
    ))
    register_scenario(ScenarioFamily(
        "churn",
        "square-wave arrivals/departures of free agents",
        (
            ScenarioParam("period", "int", 16, "cycle length in rounds"),
            ScenarioParam("amplitude", "int", None,
                          "extra agents at the high phase (default: max(1, n // 8))"),
            ScenarioParam("bias", "float", 0.5, "P(an arrival displays one)"),
        ),
        lambda n, **kw: ChurnScenario(n, **kw),
    ))
    register_scenario(ScenarioFamily(
        "lossy",
        "each sample lost w.p. rate; losers keep their displayed opinion",
        (ScenarioParam("rate", "float", 0.1, "per-sample loss probability"),),
        lambda n, **kw: LossyScenario(n, **kw),
    ))
    register_scenario(ScenarioFamily(
        "corrupt",
        "each sample bit-flipped w.p. delta (the noise.py model)",
        (ScenarioParam("delta", "float", 0.05, "per-sample flip probability"),),
        lambda n, **kw: CorruptScenario(n, **kw),
    ))
    register_scenario(ScenarioFamily(
        "lying-source",
        "source displays 1 - z during scheduled lie windows",
        (
            ScenarioParam("start", "int", 8, "first lying round (>= 1)"),
            ScenarioParam("duration", "int", 8, "lie window length in rounds"),
            ScenarioParam("period", "int", 0,
                          "repeat window every period rounds (0 = lie once)"),
        ),
        lambda n, **kw: LyingSourceScenario(n, **kw),
    ))
    register_scenario(ScenarioFamily(
        "flip-source",
        "the true opinion z flips permanently at a scheduled round",
        (ScenarioParam("at", "int", 16, "flip round (>= 1)"),),
        lambda n, **kw: FlipSourceScenario(n, **kw),
    ))
    register_scenario(ScenarioFamily(
        "drift",
        "agents switch to a different registered protocol mid-run",
        (
            ScenarioParam("alt", "str", "voter", "registered protocol family name"),
            ScenarioParam("switch", "int", 32, "round the switch happens"),
        ),
        lambda n, **kw: DriftScenario(n, **kw),
    ))
    register_scenario(ScenarioFamily(
        "zealots",
        "s1/s0 agents pinned to one/zero (the zealots.py model)",
        (
            ScenarioParam("s1", "int", 1, "agents pinned to display one"),
            ScenarioParam("s0", "int", 0, "agents pinned to display zero"),
        ),
        lambda n, **kw: ZealotsScenario(n, **kw),
    ))


# ----------------------------------------------------------------------
# Exact hypergeometric inverse CDF (churn departures, draw index 3)
# ----------------------------------------------------------------------


def _log_choose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return special.gammaln(a + 1.0) - special.gammaln(b + 1.0) - special.gammaln(
        a - b + 1.0
    )


def hypergeometric_icdf(
    u: np.ndarray, ngood: np.ndarray, nbad: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Elementwise exact ``min{k : P(H <= k) >= u}`` for a hypergeometric.

    ``H ~ Hypergeometric(ngood, nbad, draws)`` — ``draws`` samples without
    replacement from ``ngood`` successes and ``nbad`` failures.  Like
    :func:`repro.dynamics.batched.binomial_icdf`, every output element is
    a pure function of its own ``(u, ngood, nbad, draws)``, so batch
    membership cannot perturb a replica's stream.  The support is walked
    with the pmf recurrence from its lower edge; churn keeps ``draws``
    small, so the walk is O(draws) per round.
    """
    u = np.asarray(u, dtype=np.float64)
    ngood = np.asarray(ngood, dtype=np.int64)
    nbad = np.asarray(nbad, dtype=np.int64)
    draws = np.asarray(draws, dtype=np.int64)
    u, ngood, nbad, draws = np.broadcast_arrays(u, ngood, nbad, draws)
    shape = u.shape
    u, ngood, nbad, draws = (
        np.atleast_1d(u).ravel(),
        np.atleast_1d(ngood).ravel(),
        np.atleast_1d(nbad).ravel(),
        np.atleast_1d(draws).ravel(),
    )
    if np.any(draws < 0) or np.any(ngood < 0) or np.any(nbad < 0):
        raise ValueError("hypergeometric parameters must be non-negative")
    if np.any(draws > ngood + nbad):
        raise ValueError("cannot draw more agents than the population holds")

    k_low = np.maximum(0, draws - nbad)
    k_high = np.minimum(draws, ngood)
    k = k_low.astype(np.int64).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = (
            _log_choose(ngood.astype(np.float64), k.astype(np.float64))
            + _log_choose(nbad.astype(np.float64), (draws - k).astype(np.float64))
            - _log_choose((ngood + nbad).astype(np.float64), draws.astype(np.float64))
        )
    pmf = np.exp(log_pmf)
    cdf = pmf.copy()
    unresolved = np.flatnonzero(~((cdf >= u) | (k >= k_high)))
    while unresolved.size:
        ki = k[unresolved].astype(np.float64)
        numer = (ngood[unresolved] - ki) * (draws[unresolved] - ki)
        denom = (ki + 1.0) * (nbad[unresolved] - draws[unresolved] + ki + 1.0)
        pmf[unresolved] *= numer / denom
        k[unresolved] += 1
        cdf[unresolved] += pmf[unresolved]
        still = ~((cdf[unresolved] >= u[unresolved]) | (k[unresolved] >= k_high[unresolved]))
        unresolved = unresolved[still]
    return k.reshape(shape)


# ----------------------------------------------------------------------
# The scenario step kernels
# ----------------------------------------------------------------------


def _scenario_step(
    protocol,
    scenario: Scenario,
    z: int,
    counts: np.ndarray,
    keys: np.ndarray,
    t: int,
) -> np.ndarray:
    """One keyed hostile-world round for a batch of replica counts.

    Draw indices 0/1 are the protocol step — the same
    :func:`~repro.dynamics.batched.binomial_pair` call as the clean
    kernel, so the null scenario is bit-identical by construction; 2 is
    churn arrivals, 3 departures.
    """
    n_prev = scenario.population(t - 1)
    n_next = scenario.population(t)
    pin1_prev, pin0_prev = scenario.pinned(t - 1, z)
    pin1_next, pin0_next = scenario.pinned(t, z)
    pins_prev = pin1_prev + pin0_prev
    if pins_prev != pin1_next + pin0_next:
        raise ValueError(
            f"pinned totals must be constant over time, got {pins_prev} at "
            f"round {t - 1} vs {pin1_next + pin0_next} at round {t}"
        )

    p = counts / n_prev
    p0, p1 = protocol.response_probabilities(p)
    p0, p1 = scenario.transform_responses(protocol, t, p, p0, p1)
    m1 = counts - pin1_prev
    m0 = n_prev - counts - pin0_prev
    free_ones = binomial_pair(keys, t, m1, p1, m0, p0)

    delta = n_next - n_prev
    if delta > 0:
        arrivals = binomial_icdf(
            counter_uniforms(keys, t, 2),
            np.full(counts.shape, delta, dtype=np.int64),
            np.asarray(scenario.arrival_bias(t)),
        )
        free_ones = free_ones + arrivals
    elif delta < 0:
        free = n_prev - pins_prev
        if -delta > free:
            raise ValueError(
                f"churn removes {-delta} agents at round {t} but only "
                f"{free} free agents exist"
            )
        departed_ones = hypergeometric_icdf(
            counter_uniforms(keys, t, 3),
            free_ones,
            free - free_ones,
            -delta,
        )
        free_ones = free_ones - departed_ones
    return pin1_next + free_ones


def _validate_scenario_counts(
    scenario: Scenario, counts: np.ndarray, t: int, z: int
) -> None:
    n_prev = scenario.population(t - 1)
    pin1, pin0 = scenario.pinned(t - 1, z)
    low, high = pin1, n_prev - pin0
    bad = (counts < low) | (counts > high)
    if np.any(bad):
        value = int(np.asarray(counts)[bad][0]) if np.ndim(counts) else int(counts)
        raise ValueError(
            f"count {value} outside the admissible range [{low}, {high}] "
            f"at round {t - 1} of scenario {scenario.spec()!r}"
        )


def scenario_step_counts(
    protocol,
    scenario: Scenario,
    z: int,
    counts: np.ndarray,
    keys: np.ndarray,
    t: int,
    recorder: Recorder = NULL_RECORDER,
) -> np.ndarray:
    """Advance a batch of replicas one hostile-world round (batched engine)."""
    counts = np.asarray(counts, dtype=np.int64)
    _validate_scenario_counts(scenario, counts, t, z)
    result = _scenario_step(protocol, scenario, z, counts, keys, t)
    if recorder.enabled:
        timing = current_span(recorder)
        timing.incr("batch_steps")
        timing.incr("replica_steps", int(counts.size))
    return result


def scenario_step_count(
    protocol,
    scenario: Scenario,
    z: int,
    x: int,
    key: np.uint64,
    t: int,
    recorder: Recorder = NULL_RECORDER,
) -> int:
    """Advance one replica one hostile-world round (loop engine).

    Routes a one-element batch through the same kernel as
    :func:`scenario_step_counts`, so loop-vs-batched bit-identity holds
    by construction for every scenario.
    """
    counts = np.asarray([x], dtype=np.int64)
    _validate_scenario_counts(scenario, counts, t, z)
    keys = np.asarray([key], dtype=np.uint64)
    result = _scenario_step(protocol, scenario, z, counts, keys, t)
    if recorder.enabled:
        current_span(recorder).incr("steps")
    return int(result[0])


def scenario_step_generator(
    protocol,
    scenario: Scenario,
    x: int,
    t: int,
    z: int,
    rng: np.random.Generator,
) -> int:
    """One hostile-world round on a shared ``Generator`` stream.

    The legacy scalar helpers (:func:`repro.dynamics.zealots.step_count_zealots`,
    :func:`repro.dynamics.noise.step_count_noisy`) are thin wrappers over
    this function.  It reproduces their generator consumption exactly —
    including the ``m > 0`` guards that skip a ``binomial`` call (and so
    leave the stream untouched) when a bucket is empty.
    """
    n_prev = scenario.population(t - 1)
    n_next = scenario.population(t)
    pin1_prev, pin0_prev = scenario.pinned(t - 1, z)
    pin1_next, _ = scenario.pinned(t, z)
    low, high = pin1_prev, n_prev - pin0_prev
    if not low <= x <= high:
        raise ValueError(
            f"count {x} outside the admissible range [{low}, {high}] "
            f"at round {t - 1} of scenario {scenario.spec()!r}"
        )
    p = x / n_prev
    p0, p1 = protocol.response_probabilities(p)
    p0, p1 = scenario.transform_responses(protocol, t, p, p0, p1)
    m1 = x - pin1_prev
    m0 = n_prev - x - pin0_prev
    ones_kept = int(rng.binomial(m1, p1)) if m1 > 0 else 0
    zeros_flipped = int(rng.binomial(m0, p0)) if m0 > 0 else 0
    free_ones = ones_kept + zeros_flipped

    delta = n_next - n_prev
    if delta > 0:
        free_ones += int(rng.binomial(delta, scenario.arrival_bias(t)))
    elif delta < 0:
        free = n_prev - pin1_prev - pin0_prev
        if -delta > free:
            raise ValueError(
                f"churn removes {-delta} agents at round {t} but only "
                f"{free} free agents exist"
            )
        free_ones -= int(rng.hypergeometric(free_ones, free - free_ones, -delta))
    return pin1_next + free_ones


_register_builtins()
