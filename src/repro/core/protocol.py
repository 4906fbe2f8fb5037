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
    # "+ 0.0" turns a -0.0 entry into +0.0, so the first term of Eq. 4's
    # sum is never -0.0: NumPy's add.reduce starts from +0.0, the float
    # front from that term, and the two agree only if it is not -0.0.
    return np.clip(vector, 0.0, 1.0) + 0.0


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
        # Eq. 4's constant tables, built once.  The array front reads C(ell, k)
        # (None past the closed form's cutoff) and the response vectors as
        # (ell + 1, 1|2, 1) stacks; the float front reads them as tuples
        # (None where a one-element array is cheaper).
        coefficients = None
        if self.ell <= _DIRECT_BINOMIAL_MAX_ELL:
            coefficients = _binomial_coefficients(self.ell)
        scalar_tables = None
        if self.ell <= _FLOAT_FRONT_MAX_ELL:
            scalar_tables = tuple(
                tuple(table.tolist()) for table in (coefficients, self.g0, self.g1)
            )
        object.__setattr__(
            self, "_coefficients",
            None if coefficients is None else coefficients[:, None, None],
        )
        object.__setattr__(self, "_scalar_tables", scalar_tables)
        object.__setattr__(
            self, "_responses", np.stack([self.g0, self.g1], axis=1)[:, :, None]
        )

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
        response vector.  Vectorized over ``p``; a Python ``float`` or
        ``int`` returns two floats, computed in plain Python arithmetic up
        to ``ell = 64`` and as a one-element array beyond.

        Every ``p`` goes through one operation order, so the bits do not
        depend on the front, on the batch size or, for ``ell <= 256``, on
        the IEEE-754 host: ``p**k`` and ``(1 - p)**k`` by repeated
        multiplication, ``w_k = (C(ell, k) * p**k) * (1 - p)**(ell - k)``,
        and ``P_b = w_0 g_b[0] + w_1 g_b[1] + ...`` summed left to right.
        Past ``ell = 256`` the weights are ``scipy.stats.binom.pmf``'s and
        the sum is the same.  A NaN ``p`` passes the range check and gives
        NaN.
        """
        if isinstance(p, (float, int)):
            if p < 0 or p > 1:
                raise ValueError("fractions p must lie in [0, 1]")
            if self._scalar_tables is None:
                p0, p1 = self._mixture_array(np.array([p], dtype=float))
                return float(p0[0]), float(p1[0])
            # The float front: plain Python arithmetic doing the array
            # front's IEEE-754 multiplies and adds in its order, so the bits
            # agree.  Inline, because simulate() calls it once per round.
            coefficients, g0, g1 = self._scalar_tables
            ell = self.ell
            p = float(p)
            q = 1.0 - p
            p_powers = [1.0, p]
            q_powers = [1.0, q]
            for k in range(1, ell):
                p_powers.append(p_powers[k] * p)
                q_powers.append(q_powers[k] * q)
            w = (coefficients[0] * p_powers[0]) * q_powers[ell]
            p0 = w * g0[0]
            p1 = w * g1[0]
            for k in range(1, ell + 1):
                w = (coefficients[k] * p_powers[k]) * q_powers[ell - k]
                p0 = p0 + w * g0[k]
                p1 = p1 + w * g1[k]
            return p0, p1
        p_array = np.asarray(p, dtype=float)
        if ((p_array < 0) | (p_array > 1)).any():
            raise ValueError("fractions p must lie in [0, 1]")
        p0, p1 = self._mixture_array(p_array.ravel())
        if p_array.ndim == 1:
            return p0, p1
        if p_array.ndim == 0:
            return float(p0[0]), float(p1[0])
        return p0.reshape(p_array.shape), p1.reshape(p_array.shape)

    def _mixture_array(self, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The array front: Eq. 4 over a 1-D ``p``, in the float front's order.

        Works k-major, on ``(ell + 1, 2, N)`` stacks, so that every step is
        an elementwise ufunc across ``N`` and the sum over ``k`` is a
        reduction over the outermost axis, which NumPy adds row by row.
        (Along the fastest axis it would sum pairwise; the ``2`` axis keeps
        that from happening at ``N = 1`` too.)
        """
        k = self.ell + 1
        stack = np.empty((k, 2, p.size))
        if self._coefficients is None:
            from scipy.stats import binom

            weights = binom.pmf(np.arange(k)[:, None, None], self.ell, p)
        else:
            # stack[j] = (p**j, q**j), each row the previous one times row 1.
            stack[0] = 1.0
            stack[1, 0] = p
            np.subtract(1.0, p, out=stack[1, 1])
            if k > 2 and p.size < _ROW_POWERS_MIN_SIZE:
                stack[2:] = stack[1]
                np.multiply.accumulate(stack[1:], axis=0, out=stack[1:])
            else:
                for row in range(2, k):
                    np.multiply(stack[row - 1], stack[1], out=stack[row])
            weights = self._coefficients * stack[:, :1]
            weights *= stack[::-1, 1:]
        terms = np.multiply(weights, self._responses, out=stack)
        p0, p1 = np.add.reduce(terms, axis=0)
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


# Past this sample size (the ell = Theta(sqrt(n log n)) regime of [15]) the
# weights come from scipy's log-space pmf: C(ell, k) overflows float64 past
# ell ~ 1000.
_DIRECT_BINOMIAL_MAX_ELL = 256
# Up to this sample size a float p costs less in plain Python than as a
# one-element array (the two cross near ell = 64).
_FLOAT_FRONT_MAX_ELL = 64
# Below this many fractions one ``multiply.accumulate`` call builds every
# power row; from it on, a call per row is cheaper, because accumulate
# walks the k axis innermost (strided) instead of the N axis.
_ROW_POWERS_MIN_SIZE = 128


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
