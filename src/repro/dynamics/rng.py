"""Seeded random-number-generator management.

All stochastic code in this library takes an explicit
:class:`numpy.random.Generator`.  This module centralizes how generators are
created so that every experiment is reproducible from a single integer seed,
and so that ensembles of independent runs use provably independent streams
(via :class:`numpy.random.SeedSequence` spawning).

Two stream shapes come out of the same ``SeedSequence`` tree:

* :func:`spawn_rngs` — one full ``Generator`` per consumer (shards, worker
  processes, anything that draws an open-ended amount of randomness);
* :func:`spawn_seed_sequences` — the raw spawned children, whose first
  64-bit state word is the batched engine's (:mod:`repro.dynamics.batched`)
  *key* per replica for its counter-based streams.  The engine computes
  those words for a whole range of children at once, without building
  the ``SeedSequence`` objects.

Both walk the tree identically, so child ``j`` is a pure function of the
root and ``j`` — never of how many siblings were requested.  That is the
batch-membership-independence guarantee documented in docs/ENGINES.md.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

import numpy as np

__all__ = [
    "SeedLike",
    "make_rng",
    "spawn_seed_sequences",
    "spawn_rngs",
    "rng_stream",
]

SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]


def _as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalize any ``SeedLike`` into the ``SeedSequence`` root to spawn from.

    A generator contributes fresh entropy drawn from its own stream (so the
    derived root — and everything spawned from it — is a deterministic
    function of the generator's state, yet independent of its future
    output); a ``SeedSequence`` is the root already; anything else is
    handed to the ``SeedSequence`` constructor unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(seed.integers(0, 2**63, size=4).tolist())
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh OS entropy), an integer, a sequence of integers,
    a :class:`~numpy.random.SeedSequence`, or an existing generator (returned
    unchanged so call sites can be agnostic about what they were given).

    The same seed always yields the same stream:

    >>> make_rng(7).integers(0, 100, size=3).tolist()
    [94, 62, 68]
    >>> make_rng(7).integers(0, 100, size=3).tolist()
    [94, 62, 68]
    """
    if isinstance(seed, np.random.Generator):
        return seed
    # default_rng normalizes every remaining SeedLike itself (a
    # SeedSequence passes through; ints/sequences/None become one), so a
    # separate SeedSequence branch would be dead weight.
    return np.random.default_rng(seed)


def spawn_seed_sequences(seed: SeedLike, count: int) -> list[np.random.SeedSequence]:
    """Return ``count`` child ``SeedSequence`` objects spawned from ``seed``.

    The children are the first ``count`` nodes of the root's spawn tree, so
    child ``j`` depends only on the root and on ``j`` — requesting more (or
    fewer) siblings later never changes an earlier child:

    >>> a = spawn_seed_sequences(42, 5)
    >>> b = spawn_seed_sequences(42, 3)
    >>> [c.spawn_key for c in b] == [c.spawn_key for c in a[:3]]
    True

    This is the substrate both :func:`spawn_rngs` (full generators) and
    :func:`repro.dynamics.batched.replica_keys` (64-bit counter-stream
    keys) are built on.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return _as_seed_sequence(seed).spawn(count)


# ``SeedSequence``'s fixed uint32 hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(value) -> list:
    """``value`` as ``SeedSequence`` assembles entropy: little-endian uint32 words."""
    if isinstance(value, str):
        raise TypeError("string seed words are not supported")
    if isinstance(value, (int, np.integer)):
        value = int(value)
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    return [word for item in value for word in _uint32_words(item)]


def _hashmix(value, const):
    """``SeedSequence``'s ``hashmix``: the hashed value and the next constant."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _child_keys(root: np.random.SeedSequence, count: int) -> np.ndarray:
    """``generate_state(1, np.uint64)[0]`` of ``root``'s next ``count`` children.

    The children differ only in the last word of their spawn key, so the
    ``SeedSequence`` pool mixing runs once over the shared words (as Python
    ints) and once, vectorized, over the array of spawn indices.  ``root``
    is not advanced: numpy makes ``n_children_spawned`` read-only.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    first = root.n_children_spawned
    if first + count > _MASK32 + 1:
        raise ValueError("spawn indices past 2**32 - 1 are not supported")
    run = _uint32_words(root.entropy)
    # A spawned child pads its run entropy to the pool size (numpy gh-16539).
    run += [0] * (root.pool_size - len(run))
    entropy = run + _uint32_words(root.spawn_key)
    entropy.append(np.arange(first, first + count, dtype=np.uint64))
    const = _INIT_A
    pool = []
    for word in entropy[: root.pool_size]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(root.pool_size):
        for dst in range(root.pool_size):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[root.pool_size:]:
        for dst in range(root.pool_size):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    # generate_state: two uint32 words, read little-endian as one uint64.
    const = _INIT_B
    halves = []
    for i in range(2):
        value = pool[i % root.pool_size] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        halves.append(np.asarray(value ^ (value >> 16), dtype=np.uint64))
    return halves[0] | (halves[1] << np.uint64(32))


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Return ``count`` independent generators derived from ``seed``.

    Independence is guaranteed by ``SeedSequence.spawn`` rather than by
    arithmetic on seeds, which can create correlated streams.

    >>> streams = spawn_rngs(20240707, 2)
    >>> len(streams)
    2
    >>> streams[0].integers(0, 1000) != streams[1].integers(0, 1000)
    np.True_
    """
    return [np.random.default_rng(child) for child in spawn_seed_sequences(seed, count)]


def rng_stream(seed: SeedLike) -> Iterator[np.random.Generator]:
    """Yield an endless stream of independent generators derived from ``seed``.

    Useful when the number of consumers is not known up front; the ``k``-th
    generator yielded equals ``spawn_rngs(seed, k + 1)[k]`` for any ``k``.
    """
    root = _as_seed_sequence(seed)
    while True:
        (child,) = root.spawn(1)
        yield np.random.default_rng(child)
