"""Batched-replica vectorized engine with per-replica counter-based streams.

On the complete graph the paper's dynamics collapse to the count chain
(:mod:`repro.dynamics.engine`), so an ensemble of ``R`` replicas is just a
length-``R`` integer vector and one lock-step round is
``z + Bin(m1, P1) + Bin(m0, P0)`` per replica (Prop 5) — one
:func:`counter_uniforms` call for draws 0 and 1 and one
:func:`binomial_icdf` call over the ``2R`` stacked binomials
(:func:`binomial_pair`).  The subtlety is reproducibility: a single shared
``Generator`` would make every replica's stream depend on *which other
replicas are in the batch and when they converge*.  This engine instead
gives each replica its own **counter-based stream**:

* :func:`replica_keys` derives one 64-bit key per replica from the
  :func:`~repro.dynamics.rng.spawn_seed_sequences` tree, so key ``j`` is a
  pure function of the seed and ``j`` — never of the batch size;
* :func:`counter_uniforms` hashes ``(key, round, draw)`` with a
  splitmix64-style mixer into one double in ``[0, 1)`` per replica — no
  state to carry, so any round of any replica is addressable in O(1);
* :func:`binomial_icdf` turns those uniforms into **exact** binomial
  variates via the inverse CDF (``min {k : CDF(k) >= u}``), using a
  Cornish-Fisher initial guess plus a vectorized verify/correct pass —
  ~20-50x faster than ``scipy.stats.binom.ppf`` and bit-for-bit the same
  answer away from the degenerate corners (see docs/ENGINES.md).

Because every function here is elementwise-deterministic, stepping one
replica through :func:`step_count_keyed` and stepping it inside any batch
through :func:`step_counts_keyed` produce identical bits — that is the
loop-vs-batched bit-identity contract the engine selector is built on.
A round of at most :data:`_FRONT_MAX` replicas runs through a scalar front
instead: the same hash, inverse CDF and response arithmetic in plain
Python per replica, bit for bit what the array kernel gives, at a fraction
of the fixed cost of one NumPy round (docs/ENGINES.md, "Per-round fixed
cost").

Engine selection (consumed by :func:`repro.dynamics.run.simulate_ensemble`
via its ``engine=`` keyword) lives here too: :data:`ENGINES` names the
backends and :func:`resolve_engine` normalizes a request (``None`` means
:data:`DEFAULT_ENGINE`).

>>> import numpy as np
>>> keys = replica_keys(2024, 4)
>>> np.array_equal(replica_keys(2024, 2), keys[:2])  # batch-size independent
True
>>> u = counter_uniforms(keys, t=1, draw=0)
>>> bool((0.0 <= u).all() and (u < 1.0).all())
True
>>> binomial_icdf(np.array([0.5]), np.array([10]), np.array([0.5]))
array([5])
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy import special

from repro.core.protocol import Protocol
from repro.dynamics.config import validate_count, validate_counts
from repro.dynamics.rng import SeedLike, _as_seed_sequence, _child_keys
from repro.telemetry import NULL_RECORDER, Recorder, current_span

__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "resolve_engine",
    "replica_keys",
    "counter_uniforms",
    "binomial_icdf",
    "binomial_pair",
    "step_count_keyed",
    "step_counts_keyed",
]

ENGINES = ("loop", "batched")
"""Every ensemble backend ``engine=`` accepts (contract in docs/ENGINES.md)."""

DEFAULT_ENGINE = "batched"
"""What ``engine=None`` resolves to wherever semantics allow."""

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_2 = _U64(0x94D049BB133111EB)
# Shift counts as uint64 scalars, built once rather than on every hash.
_S11, _S27, _S30, _S31 = _U64(11), _U64(27), _U64(30), _U64(31)
# The same constants as Python ints, for the scalar front.
_M64 = (1 << 64) - 1
_GOLDEN_INT, _MIX_1_INT, _MIX_2_INT = int(_GOLDEN), int(_MIX_1), int(_MIX_2)
_UNIT = 2.0 ** -53
_INT64 = np.dtype(np.int64)

_FRONT_MAX = 6
"""Rounds of at most this many replicas take the scalar front.

Measured by a same-process sweep of both kernels over R = 1..16
(docs/ENGINES.md, "Per-round fixed cost"): below it the scalar front's
per-replica cost beats the array kernel's per-round dispatch.
"""


def resolve_engine(engine: Optional[str]) -> str:
    """Normalize an ``engine=`` request into a concrete backend name.

    ``None`` resolves to :data:`DEFAULT_ENGINE`.  Unknown names raise
    ``ValueError`` listing the valid backends.

    >>> resolve_engine(None)
    'batched'
    >>> resolve_engine("loop")
    'loop'
    >>> resolve_engine("turbo")
    Traceback (most recent call last):
        ...
    ValueError: unknown engine 'turbo'; expected one of: loop, batched
    """
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of: " + ", ".join(ENGINES)
        )
    return engine


def replica_keys(seed: SeedLike, replicas: int) -> np.ndarray:
    """One 64-bit counter-stream key per replica, derived from ``seed``.

    Key ``j`` is the first word of state of the ``j``-th child in the
    ``SeedSequence`` spawn tree (:func:`~repro.dynamics.rng.
    spawn_seed_sequences`), so it depends on the seed and on ``j`` only —
    *not* on ``replicas``.  Asking for a larger batch extends the key
    vector without disturbing earlier entries, which is what makes a
    replica's statistics independent of batch membership:

    >>> import numpy as np
    >>> np.array_equal(replica_keys(7, 3), replica_keys(7, 8)[:3])
    True

    The keys are computed over the array of spawn indices with
    ``SeedSequence``'s own uint32 arithmetic — bit for bit what the
    children's ``generate_state(1, np.uint64)[0]`` gives, without one
    ``SeedSequence`` object per replica.

    When ``seed`` is a ``Generator`` it contributes entropy from its own
    stream (advancing it), exactly as :func:`~repro.dynamics.rng.spawn_rngs`
    would — the two derivations consume the generator identically.  A
    ``SeedSequence`` passed as ``seed`` is *not* advanced (numpy makes
    ``n_children_spawned`` read-only): two calls with it return the same
    keys, starting at its next unspawned child.
    """
    return _child_keys(_as_seed_sequence(seed), replicas)


def _mix(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (wrapping uint64 arithmetic)."""
    x = x + _GOLDEN
    x = (x ^ (x >> _S30)) * _MIX_1
    x = (x ^ (x >> _S27)) * _MIX_2
    return x ^ (x >> _S31)


def counter_uniforms(
    keys: np.ndarray,
    t: int,
    draw: Union[int, Sequence[int]],
) -> np.ndarray:
    """One double in ``[0, 1)`` per key for counter ``(round t, draw)``.

    Stateless: the value for a given ``(key, t, draw)`` triple is fixed
    forever, so a replica's whole stream is addressable without replaying
    earlier rounds — the property checkpoint resume and the loop engine
    lean on.  ``draw`` separates the independent variates a single round
    needs (0: ones kept, 1: zeros flipped; scenarios add 2 and 3).  A
    sequence of draw indices hashes them in one call and returns one row
    per draw — row ``i`` is bit-for-bit ``counter_uniforms(keys, t,
    draw[i])``.

    >>> import numpy as np
    >>> keys = replica_keys(0, 2)
    >>> np.array_equal(counter_uniforms(keys, 3, 0), counter_uniforms(keys, 3, 0))
    True
    >>> np.array_equal(counter_uniforms(keys, 3, 0), counter_uniforms(keys, 3, 1))
    False
    >>> rows = counter_uniforms(keys, 3, (0, 1))
    >>> rows.shape
    (2, 2)
    >>> np.array_equal(rows[1], counter_uniforms(keys, 3, 1))
    True
    """
    keys = np.asarray(keys, dtype=np.uint64)
    draws = np.asarray(draw, dtype=np.uint64)
    with np.errstate(over="ignore"):
        counter = _mix(_U64(t) * _GOLDEN + draws)
        h = _mix(keys ^ counter[..., None])
    return (h >> _S11).astype(np.float64) * (2.0 ** -53)


def _binomial_cdf(k, m, p):
    """``P(Bin(m, p) <= k)``: where both inverse CDFs read the binomial CDF.

    Called through the module's ``special`` at call time, on int64 arrays
    by :func:`binomial_icdf` and on Python ints by :func:`_icdf`; both
    resolve ``bdtr`` to its ``dld->d`` loop, so the two agree bit for bit.
    """
    return special.bdtr(k, m, p)


def binomial_icdf(u: np.ndarray, m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exact vectorized binomial inverse CDF: ``min {k : CDF(k; m, p) >= u}``.

    The sampling workhorse of the batched engine: feeding it the
    counter-based uniforms yields exact ``Binomial(m, p)`` variates, one
    per replica, independent of batch membership.  Strategy: a
    Cornish-Fisher (normal + skew-corrected) initial guess, one vectorized
    ``scipy.special.bdtr`` verification, a doubling "gallop" on the few
    elements whose CDF still sits below ``u``, and a pmf-based filter that
    routes only borderline elements to exact ``CDF(k-1)`` minimality
    checks.  All decisions are elementwise, so results never depend on the
    array the element rides in.

    Edge conventions (degenerate corners where the CDF is flat): ``u <= 0``
    returns 0, ``p >= 1`` returns ``m``, and ``p <= 0`` or ``m == 0``
    return 0 — each is the literal ``min {k : CDF(k) >= u}``.

    Inputs of any broadcastable shape (scalars included) are flattened on
    entry and the result takes their broadcast shape.

    >>> import numpy as np
    >>> binomial_icdf(np.array([0.0, 0.5, 1 - 2**-53]), np.array([8, 8, 8]),
    ...               np.array([0.3, 0.3, 0.3]))
    array([0, 2, 8])
    >>> int(binomial_icdf(0.999, 10, 0.5))
    9
    """
    u = np.asarray(u, dtype=np.float64)
    m = np.asarray(m, dtype=np.int64)
    p = np.asarray(p, dtype=np.float64)
    if not u.shape == m.shape == p.shape:
        u, m, p = np.broadcast_arrays(u, m, p)
    shape = u.shape
    u, m, p = u.ravel(), m.ravel(), p.ravel()
    # Degenerate corners are answered directly (and masked out of the
    # general path, whose special functions would warn or loop on them).
    degenerate = (m <= 0) | (p <= 0.0) | (p >= 1.0) | (u <= 0.0)
    any_degenerate = degenerate.any()
    if any_degenerate:
        m_eff = np.where(degenerate, 1, m)
        p_eff = np.where(degenerate, 0.5, p)
        u_eff = np.where(degenerate, 0.5, u)
    else:
        m_eff, p_eff, u_eff = m, p, u
    mf = m_eff.astype(np.float64)
    mu = mf * p_eff
    sig = np.sqrt(mu * (1.0 - p_eff))
    z = special.ndtri(np.minimum(np.maximum(u_eff, 1e-300), 1.0 - 2**-53))
    skew = (1.0 - 2.0 * p_eff) / np.maximum(sig, 1e-300)
    k = np.floor(mu + sig * (z + skew * (z * z - 1.0) / 6.0) + 0.5)
    k = np.minimum(np.maximum(k, 0.0), mf).astype(np.int64)
    cdf = _binomial_cdf(k, m_eff, p_eff)
    # Gallop up on the (rare) elements whose guess undershot: doubling
    # steps bound the loop by O(log m) subset-sized bdtr calls.
    low = cdf < u_eff
    step = 1
    while low.any():
        k[low] = np.minimum(k[low] + step, m_eff[low])
        cdf[low] = _binomial_cdf(k[low], m_eff[low], p_eff[low])
        low = cdf < u_eff
        step *= 2
    # Minimality: k must be the *first* index at or above u.  pmf(k)
    # filters the candidates — only where CDF(k) - pmf(k) could still
    # clear u (1e-9 safety margin for the exp/log round-off) is the exact
    # CDF(k-1) consulted, on that subset alone.
    pmf = np.exp(
        special.gammaln(mf + 1.0)
        - special.gammaln(k + 1.0)
        - special.gammaln(mf - k + 1.0)
        + special.xlogy(k, p_eff)
        + special.xlog1py(mf - k, -p_eff)
    )
    maybe_high = (k > 0) & (cdf - pmf >= u_eff - 1e-9)
    while maybe_high.any():
        idx = np.nonzero(maybe_high)[0]
        below = _binomial_cdf(k[idx] - 1, m_eff[idx], p_eff[idx])
        drop = below >= u_eff[idx]
        k[idx[drop]] -= 1
        again = idx[drop]
        again = again[k[again] > 0]
        maybe_high = np.zeros_like(maybe_high)
        if again.size:
            maybe_high[again] = (
                _binomial_cdf(k[again] - 1, m_eff[again], p_eff[again])
                >= u_eff[again]
            )
    if any_degenerate:
        k = np.where(degenerate, np.where((p >= 1.0) & (u > 0.0), m, 0), k)
    return k.reshape(shape)


def _icdf(u: float, m: int, p: float) -> int:
    """:func:`binomial_icdf` on one element, step for step, in plain Python.

    The scalar front's inverse CDF: the same degenerate corners, the same
    Cornish-Fisher guess, gallop and 1e-9 pmf filter, the same SciPy
    functions on the same float64 values, so every draw is bit for bit the
    array kernel's (the NaN path at ``m >= 2**31`` included).  The
    minimality walk asks ``CDF(k - 1) >= u`` once per step where the array
    asks it twice; the answers are the same.
    """
    if m <= 0 or p <= 0.0 or p >= 1.0 or u <= 0.0:
        return m if p >= 1.0 and u > 0.0 else 0
    mf = float(m)
    mu = mf * p
    sig = math.sqrt(mu * (1.0 - p))
    z = float(special.ndtri(min(max(u, 1e-300), 1.0 - 2**-53)))
    skew = (1.0 - 2.0 * p) / max(sig, 1e-300)
    guess = math.floor(mu + sig * (z + skew * (z * z - 1.0) / 6.0) + 0.5)
    k = int(min(max(guess, 0.0), mf))
    cdf = _binomial_cdf(k, m, p)
    step = 1
    while cdf < u:
        k = min(k + step, m)
        cdf = _binomial_cdf(k, m, p)
        step *= 2
    if k > 0:
        kf = float(k)
        pmf = np.exp(
            special.gammaln(mf + 1.0)
            - special.gammaln(kf + 1.0)
            - special.gammaln(mf - kf + 1.0)
            + special.xlogy(kf, p)
            + special.xlog1py(mf - kf, -p)
        )
        if cdf - pmf >= u - 1e-9:
            while k > 0 and _binomial_cdf(k - 1, m, p) >= u:
                k -= 1
    return k


def _mix_int(x: int) -> int:
    """:func:`_mix` on one Python int (wrapping 64-bit arithmetic)."""
    x = (x + _GOLDEN_INT) & _M64
    x = ((x ^ (x >> 30)) * _MIX_1_INT) & _M64
    x = ((x ^ (x >> 27)) * _MIX_2_INT) & _M64
    return x ^ (x >> 31)


def _front(
    protocol: Protocol,
    counts: list,
    keys: np.ndarray,
    t: int,
    n: int,
    pin1: int,
    pin0: int,
    pin1_next: int,
    transform: Optional[Callable] = None,
    delta: int = 0,
    bias: float = 0.5,
    depart: Optional[Callable] = None,
) -> np.ndarray:
    """One keyed round of a few replicas, elementwise in plain Python.

    The scalar front of both keyed kernels: per replica it does what the
    array round does, on Python ints and floats.  ``counts`` is the
    (validated) list of counts during round ``t``; ``n`` the population
    and ``pin1``/``pin0`` the pinned displays during it, ``pin1_next`` the
    pinned ones after it.  The clean round is the null world: pins
    ``(z, 1 - z, z)``, no ``transform``, ``delta == 0``.  A hostile world
    adds the response ``transform``, churn arrivals (``delta > 0``, draw
    2, each arrival a one w.p. ``bias``) or departures (``delta < 0``,
    draw 3 through the scalar hypergeometric inverse CDF ``depart``).
    Each ``(t, draw)`` counter is mixed once per round.
    """
    t = int(t)
    mix = _mix_int
    base = (t * _GOLDEN_INT) & _M64
    c0, c1 = mix(base), mix((base + 1) & _M64)
    if delta:
        c_churn = mix((base + (2 if delta > 0 else 3)) & _M64)
        free = n - pin1 - pin0
    nf = float(n)
    out = []
    keys = np.asarray(keys, dtype=np.uint64).tolist()
    for x, key in zip(counts, keys, strict=True):
        p = x / nf
        p0, p1 = protocol.response_probabilities(p)
        if transform is not None:
            p0, p1 = transform(protocol, t, p, p0, p1)
        free_ones = _icdf(
            (mix(key ^ c0) >> 11) * _UNIT, x - pin1, p1
        ) + _icdf((mix(key ^ c1) >> 11) * _UNIT, n - x - pin0, p0)
        if delta:
            u = (mix(key ^ c_churn) >> 11) * _UNIT
            if delta > 0:
                free_ones += _icdf(u, delta, bias)
            else:
                free_ones -= depart(u, free_ones, free - free_ones, -delta)
        out.append(pin1_next + free_ones)
    return np.array(out, dtype=np.int64)


def binomial_pair(
    keys: np.ndarray,
    t: int,
    m1: np.ndarray,
    p1: np.ndarray,
    m0: np.ndarray,
    p0: np.ndarray,
) -> np.ndarray:
    """``Bin(m1, P1) + Bin(m0, P0)`` per replica from draws 0 and 1 of round ``t``.

    The protocol step of every keyed kernel (Prop 5: ones kept plus zeros
    flipped).  Both draws are hashed by one :func:`counter_uniforms` call
    and inverted by one :func:`binomial_icdf` call over the ``2R``
    stacked ``[m1, m0]``, ``[P1, P0]`` and uniforms — each element's
    arithmetic is unchanged, so the result is bit-for-bit the sum of the
    two separate draws, at half the per-call overhead.  The clean kernel
    (:func:`step_counts_keyed`) and the scenario kernel
    (:func:`repro.dynamics.scenarios.scenario_step_counts`) both call it,
    which is what keeps the ``null`` scenario bit-identical to the clean
    engine.
    """
    r = len(keys)
    m = np.empty(2 * r, dtype=np.int64)
    m[:r], m[r:] = m1, m0
    p = np.empty(2 * r, dtype=np.float64)
    p[:r], p[r:] = p1, p0
    k = binomial_icdf(counter_uniforms(keys, t, (0, 1)).ravel(), m, p)
    return k[:r] + k[r:]


def _step_keyed(
    protocol: Protocol,
    n: int,
    z: int,
    counts: np.ndarray,
    keys: np.ndarray,
    t: int,
) -> np.ndarray:
    """One keyed lock-step round on arrays (the loop and batched engines)."""
    p0, p1 = protocol.response_probabilities(counts / n)
    m1 = counts - z
    m0 = n - counts - (1 - z)
    return z + binomial_pair(keys, t, m1, p1, m0, p0)


def step_counts_keyed(
    protocol: Protocol,
    n: int,
    z: int,
    counts: np.ndarray,
    keys: np.ndarray,
    t: int,
    recorder: Recorder = NULL_RECORDER,
) -> np.ndarray:
    """Advance many replicas one round, each on its own counter stream.

    The batched engine's kernel: ``counts[j]`` steps using only
    ``(keys[j], t)``, so the update is a pure elementwise function —
    slicing replicas out (or running them through :func:`step_count_keyed`
    one at a time) reproduces identical bits.  A round of at most
    :data:`_FRONT_MAX` replicas runs through the scalar front, which gives
    the array kernel's bits at a lower fixed cost.  With an enabled
    ``recorder``, one ``batch_steps`` tick and ``replica_steps +=
    len(counts)`` land on the innermost open telemetry span (mirroring
    :func:`repro.dynamics.engine.step_counts_batch`).

    >>> import numpy as np
    >>> from repro.protocols import voter
    >>> keys = replica_keys(11, 3)
    >>> counts = np.array([50, 50, 50], dtype=np.int64)
    >>> batch = step_counts_keyed(voter(1), 100, 1, counts, keys, t=1)
    >>> solo = [step_count_keyed(voter(1), 100, 1, 50, keys[j], t=1)
    ...         for j in range(3)]
    >>> batch.tolist() == solo
    True
    """
    counts = np.asarray(counts)
    if counts.ndim == 1 and counts.size <= _FRONT_MAX and counts.dtype is _INT64:
        xs = counts.tolist()
        if xs and (min(xs) < z or max(xs) > n - 1 + z):
            validate_counts(n, z, counts)
        out = _front(protocol, xs, keys, t, n, z, 1 - z, z)
    else:
        validate_counts(n, z, counts)
        out = _step_keyed(protocol, n, z, counts, keys, t)
    if recorder.enabled:
        span = current_span(recorder)
        span.incr("batch_steps")
        span.incr("replica_steps", int(counts.size))
    return out


def step_count_keyed(
    protocol: Protocol,
    n: int,
    z: int,
    x: int,
    key: np.uint64,
    t: int,
    recorder: Recorder = NULL_RECORDER,
) -> int:
    """Advance one replica one round on its counter stream (loop engine).

    The scalar reference the ``loop`` engine is built from: it routes a
    one-element array through the same kernel as
    :func:`step_counts_keyed`, which is what makes loop-vs-batched
    bit-identity hold *by construction* rather than by careful matching.
    With an enabled ``recorder`` the call attributes one ``steps`` tick to
    the innermost open span (the scalar-engine convention of
    :func:`repro.dynamics.engine.step_count`).
    """
    validate_count(n, z, x)
    counts = np.array([x], dtype=np.int64)
    keys = np.asarray([key], dtype=np.uint64)
    out = _step_keyed(protocol, n, z, counts, keys, t)
    if recorder.enabled:
        current_span(recorder).incr("steps")
    return int(out[0])
