"""The memory-less protocol abstraction (Section 1.1 of the paper).

A protocol is a pair of response functions ``g[b] : {0, ..., ell} -> [0, 1]``
for ``b in {0, 1}``: the probability that an agent currently holding opinion
``b``, having observed ``k`` ones among its ``ell`` uniform samples, adopts
opinion ``1`` in the next round.  Since agents are anonymous and memory-less,
this table is the *entire* protocol.

The paper allows the table to depend on ``n`` (agents know the population
size); all concrete protocols in this library are ``n``-independent tables,
and ``n``-dependence (e.g. a sample size growing with ``n``) is modelled by
:class:`ProtocolFamily`, a factory from ``n`` to a :class:`Protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "Protocol",
    "ProtocolFamily",
    "constant_family",
]

_PROBABILITY_TOLERANCE = 1e-12


def _as_probability_vector(values, ell: int, name: str) -> np.ndarray:
    vector = np.asarray(values, dtype=float)
    if vector.shape != (ell + 1,):
        raise ValueError(
            f"{name} must have shape ({ell + 1},) for sample size {ell}, "
            f"got shape {vector.shape}"
        )
    if np.any(vector < -_PROBABILITY_TOLERANCE) or np.any(
        vector > 1 + _PROBABILITY_TOLERANCE
    ):
        raise ValueError(f"{name} entries must lie in [0, 1], got {vector}")
    return np.clip(vector, 0.0, 1.0)


@dataclass(frozen=True)
class Protocol:
    """A memory-less opinion-update rule with sample size ``ell``.

    Attributes:
        ell: the sample size (number of uniform-with-replacement samples an
            agent observes each activation).
        g0: response vector for agents currently holding opinion 0;
            ``g0[k]`` is the probability of adopting opinion 1 after seeing
            ``k`` ones.
        g1: response vector for agents currently holding opinion 1.
        name: a human-readable label used in experiment output.
    """

    ell: int
    g0: np.ndarray
    g1: np.ndarray
    name: str = "protocol"

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError(f"sample size ell must be >= 1, got {self.ell}")
        object.__setattr__(self, "g0", _as_probability_vector(self.g0, self.ell, "g0"))
        object.__setattr__(self, "g1", _as_probability_vector(self.g1, self.ell, "g1"))
        self.g0.setflags(write=False)
        self.g1.setflags(write=False)
        # The Bernstein basis of Eq. 4 depends on ell only: build it once
        # instead of on every response evaluation.
        object.__setattr__(self, "_basis", _bernstein_basis(self.ell))

    # ------------------------------------------------------------------
    # Structural properties
    # ------------------------------------------------------------------

    def satisfies_boundary_conditions(self, tolerance: float = 0.0) -> bool:
        """Check the Proposition-3 conditions ``g[0](0) = 0`` and ``g[1](ell) = 1``.

        Any protocol solving the bit-dissemination problem must satisfy them:
        otherwise the all-0 (resp. all-1) consensus is not absorbing and the
        group almost surely leaves it, so convergence cannot be maintained.
        """
        return self.g0[0] <= tolerance and self.g1[self.ell] >= 1 - tolerance

    def is_oblivious(self, tolerance: float = 0.0) -> bool:
        """True if the update ignores the agent's own opinion (``g0 == g1``).

        Both the Voter and the Minority dynamics are oblivious.
        """
        return bool(np.all(np.abs(self.g0 - self.g1) <= tolerance))

    def is_opinion_symmetric(self, tolerance: float = 1e-12) -> bool:
        """True if relabelling the opinions 0 <-> 1 leaves the protocol unchanged.

        Formally: ``g[1-b](ell - k) = 1 - g[b](k)`` for all ``b, k``.  Symmetric
        protocols treat the two opinions identically, which is natural in the
        self-stabilizing setting where the correct opinion is adversarial.
        """
        flipped_g0 = 1.0 - self.g1[::-1]
        flipped_g1 = 1.0 - self.g0[::-1]
        return bool(
            np.all(np.abs(flipped_g0 - self.g0) <= tolerance)
            and np.all(np.abs(flipped_g1 - self.g1) <= tolerance)
        )

    # ------------------------------------------------------------------
    # Response probabilities (Eq. 4 of the paper)
    # ------------------------------------------------------------------

    def response_probabilities(self, p) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(P0(p), P1(p))`` for a fraction ``p`` of opinion-1 agents.

        ``P_b(p)`` is the probability that an agent holding opinion ``b``
        adopts opinion 1 in the next round when the current fraction of ones
        in the population is ``p`` (Eq. 4): the binomial mixture of the
        response vector.  Vectorized over ``p``.
        """
        p_array = np.asarray(p, dtype=float)
        if ((p_array < 0) | (p_array > 1)).any():
            raise ValueError("fractions p must lie in [0, 1]")
        weights = _binomial_weights(self.ell, p_array, self._basis)
        p0 = weights @ self.g0
        p1 = weights @ self.g1
        if np.isscalar(p) or p_array.ndim == 0:
            # _binomial_weights promotes scalars to shape (1, ell + 1).
            return float(p0[0]), float(p1[0])
        return p0, p1

    def flip(self) -> "Protocol":
        """Return the protocol with the two opinion labels exchanged."""
        return Protocol(
            ell=self.ell,
            g0=1.0 - self.g1[::-1],
            g1=1.0 - self.g0[::-1],
            name=f"{self.name}-flipped",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Protocol(name={self.name!r}, ell={self.ell}, "
            f"g0={np.round(self.g0, 6).tolist()}, g1={np.round(self.g1, 6).tolist()})"
        )


_DIRECT_BINOMIAL_MAX_ELL = 256


def _bernstein_basis(ell: int):
    """``(C(ell, k), k, ell - k)`` for the closed form, or None past the cutoff."""
    if ell > _DIRECT_BINOMIAL_MAX_ELL:
        return None
    k = np.arange(ell + 1)
    return _binomial_coefficients(ell), k, ell - k


def _binomial_weights(ell: int, p: np.ndarray, basis) -> np.ndarray:
    """Binomial(ell, p) pmf over k = 0..ell, vectorized over p.

    Returns an array of shape ``p.shape + (ell + 1,)``.  Computed from the
    closed form (``basis`` is :func:`_bernstein_basis` of ``ell``) for the
    small/constant ``ell`` of the lower bound, and in log space for the
    large ``ell = Theta(sqrt(n log n))`` of the [15] regime (where
    ``C(ell, k)`` overflows float64 past ``ell ~ 1000``).
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if basis is not None:
        coefficients, k, rest = basis
        return (
            coefficients
            * np.power(p[..., None], k)
            * np.power(1.0 - p[..., None], rest)
        )
    from scipy.stats import binom

    return binom.pmf(np.arange(ell + 1), ell, p[..., None])


def _binomial_coefficients(ell: int) -> np.ndarray:
    """Exact binomial coefficients C(ell, k) for k = 0..ell as floats."""
    coefficients = np.empty(ell + 1, dtype=float)
    value = 1
    for k in range(ell + 1):
        coefficients[k] = float(value)
        value = value * (ell - k) // (k + 1)
    return coefficients


@dataclass(frozen=True)
class ProtocolFamily:
    """A family ``n -> Protocol``, for sample sizes that depend on ``n``.

    The paper's lower bound applies to *constant* sample sizes; the [15]
    upper bound needs ``ell = Theta(sqrt(n log n))``.  A family captures both
    uniformly: ``constant_family`` wraps an ``n``-independent table, and e.g.
    ``minority_sqrt_family`` (in :mod:`repro.protocols.minority`) produces a
    minority table whose ``ell`` grows with ``n``.
    """

    factory: Callable[[int], Protocol]
    name: str = "family"

    def at(self, n: int) -> Protocol:
        if n < 2:
            raise ValueError(f"population size n must be >= 2, got {n}")
        protocol = self.factory(n)
        if not isinstance(protocol, Protocol):
            raise TypeError(
                f"factory for family {self.name!r} returned {type(protocol)!r}"
            )
        return protocol


def constant_family(protocol: Protocol) -> ProtocolFamily:
    """Wrap an ``n``-independent protocol as a :class:`ProtocolFamily`."""
    return ProtocolFamily(factory=lambda n: protocol, name=protocol.name)
