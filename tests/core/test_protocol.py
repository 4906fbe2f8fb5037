"""Unit tests for the Protocol abstraction."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import Protocol, ProtocolFamily, constant_family
from repro.protocols import majority, minority, random_protocol, voter


class TestConstruction:
    def test_valid_table_accepted(self):
        protocol = Protocol(ell=2, g0=[0.0, 0.5, 1.0], g1=[0.0, 0.5, 1.0])
        assert protocol.ell == 2

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Protocol(ell=3, g0=[0.0, 1.0], g1=[0.0, 0.5, 1.0, 1.0])

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Protocol(ell=1, g0=[0.0, 1.5], g1=[0.0, 1.0])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Protocol(ell=1, g0=[-0.2, 1.0], g1=[0.0, 1.0])

    def test_zero_sample_size_rejected(self):
        with pytest.raises(ValueError, match="ell"):
            Protocol(ell=0, g0=[0.0], g1=[1.0])

    def test_tables_are_read_only(self):
        protocol = voter(3)
        with pytest.raises(ValueError):
            protocol.g0[0] = 0.5

    def test_tiny_float_noise_is_clipped(self):
        protocol = Protocol(ell=1, g0=[-1e-15, 1.0], g1=[0.0, 1.0 + 1e-15])
        assert protocol.g0[0] == 0.0
        assert protocol.g1[1] == 1.0


class TestStructuralProperties:
    def test_voter_satisfies_boundary_conditions(self):
        assert voter(4).satisfies_boundary_conditions()

    def test_minority_satisfies_boundary_conditions(self):
        assert minority(5).satisfies_boundary_conditions()

    def test_violating_protocol_detected(self):
        bad = Protocol(ell=1, g0=[0.1, 1.0], g1=[0.0, 1.0])
        assert not bad.satisfies_boundary_conditions()

    def test_voter_is_oblivious(self):
        assert voter(2).is_oblivious()

    def test_minority_even_stay_tiebreak_not_oblivious(self):
        assert not minority(4, tie_break="stay").is_oblivious()

    def test_voter_is_opinion_symmetric(self):
        assert voter(3).is_opinion_symmetric()

    def test_minority_is_opinion_symmetric(self):
        assert minority(3).is_opinion_symmetric()
        assert minority(4).is_opinion_symmetric()

    def test_adopt_one_tiebreak_breaks_symmetry(self):
        assert not minority(4, tie_break="adopt-one").is_opinion_symmetric()

    def test_flip_is_involution(self):
        protocol = minority(4, tie_break="adopt-one")
        double_flip = protocol.flip().flip()
        np.testing.assert_allclose(double_flip.g0, protocol.g0)
        np.testing.assert_allclose(double_flip.g1, protocol.g1)

    def test_symmetric_protocol_equals_own_flip(self):
        protocol = minority(3)
        flipped = protocol.flip()
        np.testing.assert_allclose(flipped.g0, protocol.g0)
        np.testing.assert_allclose(flipped.g1, protocol.g1)


class TestResponseProbabilities:
    def test_voter_response_is_identity(self):
        protocol = voter(3)
        grid = np.linspace(0.0, 1.0, 9)
        p0, p1 = protocol.response_probabilities(grid)
        np.testing.assert_allclose(p0, grid, atol=1e-12)
        np.testing.assert_allclose(p1, grid, atol=1e-12)

    def test_scalar_input_gives_scalars(self):
        p0, p1 = voter(2).response_probabilities(0.3)
        assert isinstance(p0, float) and isinstance(p1, float)
        assert p0 == pytest.approx(0.3)

    def test_endpoints_follow_boundary_entries(self):
        protocol = minority(3)
        p0_at_0, p1_at_0 = protocol.response_probabilities(0.0)
        p0_at_1, p1_at_1 = protocol.response_probabilities(1.0)
        assert p0_at_0 == 0.0 and p1_at_0 == 0.0
        assert p0_at_1 == 1.0 and p1_at_1 == 1.0

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            voter(1).response_probabilities(1.2)

    def test_minority_ell3_closed_form(self):
        # P(adopt 1 | p) = 3 p (1-p)^2 + p^3 for minority at ell = 3.
        protocol = minority(3)
        grid = np.linspace(0.0, 1.0, 21)
        expected = 3 * grid * (1 - grid) ** 2 + grid**3
        p0, p1 = protocol.response_probabilities(grid)
        np.testing.assert_allclose(p0, expected, atol=1e-12)
        np.testing.assert_allclose(p1, expected, atol=1e-12)

    @given(st.integers(min_value=1, max_value=8), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_responses_are_probabilities(self, ell, p):
        rng = np.random.default_rng(ell * 1000 + int(p * 997))
        protocol = random_protocol(ell, rng, solving=False)
        p0, p1 = protocol.response_probabilities(p)
        assert -1e-12 <= p0 <= 1 + 1e-12
        assert -1e-12 <= p1 <= 1 + 1e-12

    def test_monotone_table_gives_monotone_response(self):
        # Majority's table is monotone in k, so P_b is monotone in p.
        protocol = majority(5)
        grid = np.linspace(0.0, 1.0, 33)
        p0, _ = protocol.response_probabilities(grid)
        assert np.all(np.diff(p0) >= -1e-12)


def _fraction_grid() -> np.ndarray:
    """p = k/n at 400 scattered k per n up to 10^6, with 1/n, 0, 1/2 and 1."""
    points = {0.0, 0.5, 1.0}
    for n in (7, 100, 1000, 10**4, 10**5, 10**6):
        points.add(1 / n)
        points.update(((j * 7919 + 13) % (n + 1)) / n for j in range(400))
    return np.array(sorted(points))


def _registry_protocols() -> dict:
    """Every registry protocol; minority-sqrt at ell = 23, 85 and 305."""
    from repro.protocols.registry import available_protocols, get_family

    out = {}
    for name in available_protocols():
        for n in (100, 1000, 10**4) if name == "minority-sqrt" else (1000,):
            out[f"{name}@{n}"] = get_family(name).at(n)
    return out


REGISTRY_PROTOCOLS = _registry_protocols()


def _bits(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


# sha256 of P0 then P1 over _fraction_grid(), for every entry of
# REGISTRY_PROTOCOLS with ell <= 256: only IEEE-754 multiplies and adds in
# a fixed order make these, so they hold on any conforming host.
RESPONSE_SHA256 = {
    "biased-voter-down@1000": "db7305bf4a7d9e9d69f30dc48ee942c9bb05ec7086cd2d65a8cf3cdbe789d4b8",
    "biased-voter-up@1000": "d80247ead304feb8de6059252ab3a84ceb53f9adb76f3dc599d4015b2bb544c7",
    "blend-half@1000": "ea5e2564d179d8cd6c3200c7289fd06050cb44c424dab2b02a6962dc153d7860",
    "double-lobe-0.3@1000": "a01f6d632542375b1d47bc171010e1c45232aa588efaed36f267ebd2e858bb88",
    "majority-3@1000": "e409ff03841ee6a9c38a11e3a3e0b5a5e99a09f47962226f928383e6535c78a6",
    "majority-5@1000": "f41d50d659d69b349720314326b29571462875354ad8f2c3938758718b0d01ce",
    "minority-3@1000": "967918a4f531a8b279815bb4852f431311b0974df19d157d601943ff0f5578e0",
    "minority-5@1000": "e462463d72a689dac5f324123aa8af047aac3962b2f108eae66423eb6cf6e96b",
    "minority-sqrt@100": "f47c3a93bc01883b180aeb09a94c6d6ee2d99132fe69772b6e442a3a4883e15e",
    "minority-sqrt@1000": "9b394277c225c20b8cc75f3f2f2cfe1573051a5cbc5a855c330fbf7ef8daa3e0",
    "two-choices@1000": "9ea2a3944fa07e95cb6301490124b58ce1d5c421f11b15956c3eeac7c746c2d5",
    "voter@1000": "952566a12008290c0329cde053435fcb877a1f2d84f077258c9f3c38df521223",
    "voter-3@1000": "19e31f1c7580f70017ef39bbd5911b4c2f0df9d8f6a1536c6a541db06ad1a917",
}


class TestResponseFronts:
    """A float, a one-element array and a batch all return the same bits."""

    @pytest.mark.parametrize("label", sorted(REGISTRY_PROTOCOLS))
    def test_bits_independent_of_front_and_batch(self, label):
        protocol = REGISTRY_PROTOCOLS[label]
        grid = _fraction_grid()
        batch0, batch1 = protocol.response_probabilities(grid)
        head0, head1 = protocol.response_probabilities(grid[:100])
        assert _bits(head0) == _bits(batch0[:100])
        assert _bits(head1) == _bits(batch1[:100])
        for i, p in enumerate(grid.tolist()):
            float0, float1 = protocol.response_probabilities(p)
            assert type(float0) is float and type(float1) is float
            row0, row1 = protocol.response_probabilities(grid[i:i + 1])
            assert _bits(float0) == _bits(row0) == _bits(batch0[i]), (label, p)
            assert _bits(float1) == _bits(row1) == _bits(batch1[i]), (label, p)

    @pytest.mark.parametrize("label", sorted(RESPONSE_SHA256))
    def test_bits_are_pinned(self, label):
        assert REGISTRY_PROTOCOLS[label].ell <= 256
        p0, p1 = REGISTRY_PROTOCOLS[label].response_probabilities(_fraction_grid())
        digest = hashlib.sha256(_bits(p0) + _bits(p1)).hexdigest()
        assert digest == RESPONSE_SHA256[label]

    @pytest.mark.parametrize("ell", [1, 2, 7, 8, 9, 63, 64, 65, 127, 256, 257])
    def test_random_tables_at_every_branch(self, ell):
        rng = np.random.default_rng(ell)
        protocol = Protocol(ell=ell, g0=rng.random(ell + 1), g1=rng.random(ell + 1))
        grid = np.concatenate([[0.0, 1.0, 0.5], rng.random(200)])
        batch0, batch1 = protocol.response_probabilities(grid)
        head0, head1 = protocol.response_probabilities(grid[:100])
        assert _bits(head0) == _bits(batch0[:100])
        assert _bits(head1) == _bits(batch1[:100])
        for i, p in enumerate(grid.tolist()):
            float0, float1 = protocol.response_probabilities(p)
            assert _bits(float0) == _bits(batch0[i])
            assert _bits(float1) == _bits(batch1[i])

    def test_shapes_follow_the_input(self):
        protocol = minority(3)
        grid = np.linspace(0.0, 1.0, 12)
        p0, p1 = protocol.response_probabilities(grid.reshape(3, 4))
        assert p0.shape == p1.shape == (3, 4)
        assert _bits(p0.ravel()) == _bits(protocol.response_probabilities(grid)[0])
        empty0, empty1 = protocol.response_probabilities(np.array([]))
        assert empty0.shape == empty1.shape == (0,)
        zero_d = protocol.response_probabilities(np.float32(0.25))
        assert zero_d == protocol.response_probabilities(0.25)
        assert protocol.response_probabilities(1) == (1.0, 1.0)

    def test_fronts_reject_and_pass_the_same_inputs(self):
        protocol = majority(5)
        for bad in (-0.1, 1.5, float("inf")):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                protocol.response_probabilities(bad)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                protocol.response_probabilities(np.array([0.5, bad]))
        nan = float("nan")
        assert all(np.isnan(protocol.response_probabilities(nan)))
        assert np.isnan(protocol.response_probabilities(np.array([nan]))).all()

    def test_negative_zero_table_entries_are_normalized(self):
        protocol = Protocol(ell=2, g0=[-0.0, 0.5, -0.0], g1=[0.0, 0.5, 1.0])
        assert _bits(protocol.g0[0]) == _bits(0.0)
        float0, _ = protocol.response_probabilities(1.0)
        batch0, _ = protocol.response_probabilities(np.array([1.0]))
        assert _bits(float0) == _bits(batch0) == _bits(0.0)


class TestProtocolFamily:
    def test_constant_family_returns_same_protocol(self):
        protocol = voter(1)
        family = constant_family(protocol)
        assert family.at(10) is protocol
        assert family.at(1000) is protocol

    def test_family_rejects_tiny_population(self):
        family = constant_family(voter(1))
        with pytest.raises(ValueError, match="n"):
            family.at(1)

    def test_family_type_checks_factory_output(self):
        family = ProtocolFamily(factory=lambda n: "nope", name="bad")
        with pytest.raises(TypeError):
            family.at(10)
