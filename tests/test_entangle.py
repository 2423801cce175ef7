import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphcavity.entangle import (
    BELL_TYPES,
    DegenerateStateError,
    QuantumLabel,
    TwoPhotonState,
    build_plane_wave_state,
    build_state,
    enumerate_catalog,
    enumerate_partitions,
    factorization_check,
    partition_by_id,
)
from sphcavity.verify import DEFAULT_TOLERANCES

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def brute_force_operator_state(bell, gamma_pair, alpha_pair, combine):
    """Independent Wick expansion of the two-creation-operator state.

    Enumerates the ordered two-particle basis explicitly and applies
    <x y| a+_p a+_q |0> = d_xp d_yq + d_xq d_yp term by term.
    """
    patterns = {
        "psi-minus": [((0, 0), (1, 1), +1), ((0, 1), (1, 0), -1)],
        "psi-plus": [((0, 0), (1, 1), +1), ((0, 1), (1, 0), +1)],
        "phi-plus": [((0, 0), (1, 0), +1), ((0, 1), (1, 1), +1)],
        "phi-minus": [((0, 0), (1, 0), +1), ((0, 1), (1, 1), -1)],
    }
    labels = sorted({combine(gamma_pair[i], alpha_pair[k])
                     for i in (0, 1) for k in (0, 1)})
    amplitudes = {}
    for x in labels:
        for y in labels:
            total = 0.0
            for (gi, ai), (gk, ak), sign in patterns[bell]:
                p = combine(gamma_pair[gi], alpha_pair[ai])
                q = combine(gamma_pair[gk], alpha_pair[ak])
                total += sign * ((x == p) * (y == q) + (x == q) * (y == p))
            if total != 0.0:
                amplitudes[(x, y)] = total
    norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
    return {k: a / norm for k, a in amplitudes.items()}, norm


class TestPartitions:
    def test_count_and_split(self):
        parts = enumerate_partitions()
        assert len(parts) == 10
        assert sum(1 for p in parts if len(p.alpha_fields) == 1) == 4
        assert sum(1 for p in parts if len(p.alpha_fields) == 2) == 6

    def test_complements(self):
        for p in enumerate_partitions():
            assert set(p.alpha_fields) | set(p.gamma_fields) == {"tau", "omega", "j", "m"}
            assert not set(p.alpha_fields) & set(p.gamma_fields)

    def test_deterministic_order(self):
        ids = [p.id for p in enumerate_partitions()]
        assert ids == ["tau", "omega", "j", "m", "tau+omega", "tau+j",
                       "tau+m", "omega+j", "omega+m", "j+m"]
        assert ids == [p.id for p in enumerate_partitions()]

    def test_lookup(self):
        p = partition_by_id("omega+j")
        assert p.alpha_fields == ("omega", "j")
        with pytest.raises(ValueError):
            partition_by_id("nope")


class TestCatalog:
    def test_forty_entries(self):
        catalog = enumerate_catalog()
        assert len(catalog) == 40

    def test_unique_identifiers(self):
        ids = [e.identifier for e in enumerate_catalog()]
        assert len(set(ids)) == 40

    def test_ten_of_each_bell_type(self):
        catalog = enumerate_catalog()
        for bell in BELL_TYPES:
            assert sum(1 for e in catalog if e.bell == bell) == 10


class TestQuantumLabel:
    def test_validation(self):
        QuantumLabel("E", 1, 2, -2).validate()
        with pytest.raises(ValueError):
            QuantumLabel("Q", 1, 1, 0).validate()
        with pytest.raises(ValueError):
            QuantumLabel("E", 0, 1, 0).validate()
        with pytest.raises(ValueError):
            QuantumLabel("E", 1, 1, 2).validate()

    def test_combine_respects_field_order(self):
        p = partition_by_id("omega")
        label = p.combine((3,), ("M", 2, -1))
        assert label == QuantumLabel("M", 3, 2, -1)


class TestBuildState:
    def test_frequency_entangled_psi_minus_amplitudes(self):
        # the canonical example: frequency-number entanglement with the
        # antisymmetric Bell pair; amplitudes are +-1/2 on four ordered pairs
        p = partition_by_id("omega")
        state = build_state(p, "psi-minus", ((1,), (2,)),
                            (("E", 1, 0), ("M", 2, 1)))
        l11 = QuantumLabel("E", 1, 1, 0)
        l22 = QuantumLabel("M", 2, 2, 1)
        l12 = QuantumLabel("E", 2, 1, 0)
        l21 = QuantumLabel("M", 1, 2, 1)
        assert_allclose(state.amplitude(l11, l22), 0.5, atol=1e-15)
        assert_allclose(state.amplitude(l12, l21), -0.5, atol=1e-15)
        assert_allclose(state.amplitude(l22, l11), 0.5, atol=1e-15)  # exchange
        assert state.amplitude(l11, l12) == 0.0

    def test_matches_brute_force_operator_expansion(self):
        values = {"tau": ("E", "M"), "omega": (1, 3), "j": (1, 2), "m": (0, -1)}
        signs = {"psi-minus": +1, "psi-plus": -1, "phi-plus": -1, "phi-minus": +1}
        for entry in enumerate_catalog():
            p = entry.partition
            alpha = tuple(tuple(values[f][i] for f in p.alpha_fields) for i in (0, 1))
            gamma = tuple(tuple(values[f][i] for f in p.gamma_fields) for i in (0, 1))
            state = build_state(p, entry.bell, alpha, gamma)
            ref, _ = brute_force_operator_state(
                entry.bell, gamma, alpha, lambda g, a: p.combine(a, g))
            for (x, y), amp in ref.items():
                expected = signs[entry.bell] * amp
                assert abs(state.amplitude(x, y) - expected) < 1e-14, entry.identifier

    def test_unit_norm(self):
        p = partition_by_id("j+m")
        state = build_state(p, "phi-minus", ((1, 0), (2, 1)), (("E", 1), ("M", 2)))
        assert abs(state.norm() - 1.0) < 1e-14

    def test_degenerate_psi_minus_is_zero(self):
        p = partition_by_id("omega")
        with pytest.raises(DegenerateStateError):
            build_state(p, "psi-minus", ((1,), (2,)), (("E", 1, 0), ("E", 1, 0)))

    def test_equal_entangling_values_rejected_for_psi(self):
        p = partition_by_id("omega")
        for bell in ("psi-minus", "psi-plus"):
            with pytest.raises(ValueError):
                build_state(p, bell, ((1,), (1,)), (("E", 1, 0), ("M", 2, 1)))

    def test_phi_plus_survives_equal_entangling_values(self):
        p = partition_by_id("omega")
        state = build_state(p, "phi-plus", ((1,), (1,)), (("E", 1, 0), ("M", 2, 1)))
        assert abs(state.norm() - 1.0) < 1e-14

    def test_phi_types_with_equal_gammas(self):
        # diagonal pairs pick up the double Wick contraction
        p = partition_by_id("omega")
        state = build_state(p, "phi-plus", ((1,), (2,)), (("E", 1, 0), ("E", 1, 0)))
        l1 = QuantumLabel("E", 1, 1, 0)
        l2 = QuantumLabel("E", 2, 1, 0)
        assert_allclose(state.amplitude(l1, l1), -INV_SQRT2, atol=1e-14)
        assert_allclose(state.amplitude(l2, l2), -INV_SQRT2, atol=1e-14)

    def test_invalid_combined_label_rejected(self):
        p = partition_by_id("m")
        with pytest.raises(ValueError):
            # m = 2 exceeds j = 1 once combined
            build_state(p, "psi-minus", ((2,), (0,)), (("E", 1, 1), ("E", 2, 1)))


class TestFactorization:
    def test_all_catalog_entries_factor(self):
        values = {"tau": ("E", "M"), "omega": (1, 2), "j": (1, 2), "m": (0, 1)}
        for entry in enumerate_catalog():
            p = entry.partition
            alpha = tuple(tuple(values[f][i] for f in p.alpha_fields) for i in (0, 1))
            gamma = tuple(tuple(values[f][i] for f in p.gamma_fields) for i in (0, 1))
            state = build_state(p, entry.bell, alpha, gamma)
            resid = factorization_check(state, p, entry.bell, alpha, gamma)
            assert resid < DEFAULT_TOLERANCES["entangle_factorization"], (entry.identifier, resid)
            assert resid < 1e-14

    def test_perturbed_amplitude_fails(self):
        p = partition_by_id("omega")
        alpha, gamma = ((1,), (2,)), (("E", 1, 0), ("M", 2, 1))
        state = build_state(p, "psi-minus", alpha, gamma)
        key = next(iter(state.amplitudes))
        state.amplitudes[key] += 1e-6
        resid = factorization_check(state, p, "psi-minus", alpha, gamma)
        assert resid >= DEFAULT_TOLERANCES["entangle_factorization"]

    def test_exchange_symmetry_explicit(self):
        p = partition_by_id("tau+omega")
        alpha, gamma = ((("E", 1)[0], 1), ("M", 2)), ((1, 0), (2, -1))
        state = build_state(p, "psi-plus", alpha, gamma)
        for (l1, l2) in list(state.amplitudes):
            assert state.amplitude(l1, l2) == state.amplitude(l2, l1)

    def test_bell_orthogonality(self):
        # overlap of psi-plus and phi-plus states on identical labels is zero
        p = partition_by_id("omega")
        alpha, gamma = ((1,), (2,)), (("E", 1, 0), ("M", 2, 1))
        s1 = build_state(p, "psi-plus", alpha, gamma)
        s2 = build_state(p, "phi-plus", alpha, gamma)
        keys = set(s1.amplitudes) | set(s2.amplitudes)
        overlap = 0.0
        for l1, l2 in keys:
            mult = 1.0 if l1 == l2 else 2.0
            overlap += mult * np.conj(s1.amplitude(l1, l2)) * s2.amplitude(l1, l2)
        assert abs(overlap) < 1e-14


class TestPlaneWaveStates:
    def test_factored_amplitudes(self):
        # two momentum labels, opposite helicities: the four Bell-type
        # constructions reproduce the factored amplitudes term for term
        k1, k2 = "k1", "k2"
        lam1, lam2 = +1, -1
        expected = {
            "psi-minus": {((k1, lam1), (k2, lam2)): 0.5, ((k1, lam2), (k2, lam1)): -0.5},
            "psi-plus": {((k1, lam1), (k2, lam2)): -0.5, ((k1, lam2), (k2, lam1)): -0.5},
            "phi-plus": {((k1, lam1), (k2, lam1)): -0.5, ((k1, lam2), (k2, lam2)): -0.5},
            "phi-minus": {((k1, lam1), (k2, lam1)): 0.5, ((k1, lam2), (k2, lam2)): -0.5},
        }
        for bell, amps in expected.items():
            state = build_plane_wave_state(bell, (k1, k2), (lam1, lam2))
            for (x, y), a in amps.items():
                assert_allclose(state.amplitude(x, y), a, atol=1e-14), bell
            assert abs(state.norm() - 1.0) < 1e-14

    def test_helicity_zero_rejected(self):
        with pytest.raises(ValueError):
            build_plane_wave_state("psi-minus", ("k1", "k2"), (0, 1))

    def test_degenerate_momenta_zero_state(self):
        with pytest.raises(DegenerateStateError):
            build_plane_wave_state("psi-minus", ("k1", "k1"), (+1, -1))


# (call, the pair argument it must name): each held one value or three where
# two are needed, once dropped the third silently or failed on unpacking
_OMEGA_GAMMA = (("E", 1, 0), ("M", 2, 1))
PAIR_LENGTH_CALLS = [
    (lambda: build_plane_wave_state("psi-plus", ("k1", "k2", "k3"), (1, -1)),
     "momentum_labels"),
    (lambda: build_plane_wave_state("psi-plus", ("k1",), (1, -1)), "momentum_labels"),
    (lambda: build_plane_wave_state("psi-plus", ("k1", "k2"), (1, -1, 1)), "helicities"),
    (lambda: build_plane_wave_state("psi-plus", ("k1", "k2"), (1,)), "helicities"),
    (lambda: build_state("omega", "psi-plus", ((1,), (2,), (3,)), _OMEGA_GAMMA),
     "alpha_values"),
    (lambda: build_state("omega", "psi-plus", ((1,),), _OMEGA_GAMMA), "alpha_values"),
    (lambda: build_state("omega", "psi-plus", ((1,), (2,)), _OMEGA_GAMMA + (("E", 1, 1),)),
     "gamma_values"),
    (lambda: build_state("omega", "psi-plus", ((1,), (2,)), _OMEGA_GAMMA[:1]), "gamma_values"),
    (lambda: factorization_check(TwoPhotonState(), "omega", "psi-plus", ((1,), (2,), (3,)),
                                 _OMEGA_GAMMA), "alpha_values"),
    (lambda: factorization_check(TwoPhotonState(), "omega", "psi-plus", ((1,), (2,)),
                                 _OMEGA_GAMMA[:1]), "gamma_values"),
]


@pytest.mark.parametrize("call,name", PAIR_LENGTH_CALLS,
                         ids=[f"{name}-{i}" for i, (_, name) in enumerate(PAIR_LENGTH_CALLS)])
def test_pair_arguments_need_exactly_two_values(call, name):
    with pytest.raises(ValueError, match=f"{name} must hold exactly two values"):
        call()


class TestTwoPhotonState:
    def test_norm_counts_ordered_pairs(self):
        state = TwoPhotonState()
        state.add("a", "b", 1.0)
        state.add("c", "c", 1.0)
        assert_allclose(state.norm(), math.sqrt(2 + 1))

    def test_zero_state_normalization_rejected(self):
        with pytest.raises(DegenerateStateError):
            TwoPhotonState().normalized()
