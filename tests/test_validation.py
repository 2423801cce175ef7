"""Integer labels across the package go through one range check
(specfun._check_int): a non-integer, a float-valued one such as 2.0
included, is a ValueError that names the argument, and numpy integers are
accepted wherever Python integers are."""

import numpy as np
import pytest

from sphcavity.angular import cg_s1, helicity_vsh, spherical_basis_vector, vsh, vsh_coupled
from sphcavity.entangle import QuantumLabel, build_plane_wave_state
from sphcavity.modes import boundary_residual, fibonacci_directions, mode_spec
from sphcavity.rotations import (helicity_polarization_vector, m_index,
                                 plane_to_spherical_coefficient)
from sphcavity.selection_rules import TransitionQuery, photon_parity, transition_allowed
from sphcavity.specfun import bessel_j_halfint, legendre_plm, scalar_harmonic, small_argument_j
from sphcavity.verify import (check_helicity_eigen, check_parity, check_plane_wave_expansion,
                              vsh_project)


def _zero_field(t, p):
    return np.zeros((3,) + np.shape(t))


def plane_wave_state(lam1, lam2):
    return build_plane_wave_state("psi-plus", ("k1", "k2"), (lam1, lam2))


# (call, the argument it must name); each call returned a value, or raised
# a TypeError or IndexError, before every module shared the check
NON_INTEGER_CALLS = [
    (lambda: photon_parity("E", 1.5), "j"),
    (lambda: TransitionQuery(1, 1, "M", 2.5, 0.01), "j"),
    (lambda: mode_spec("E", 2, 0.5, 1), "m"),
    (lambda: m_index(2, 1.5), "m"),
    (lambda: spherical_basis_vector(1.0), "mu"),
    (lambda: helicity_polarization_vector(1.0, 0.3, 0.2), "lam"),
    (lambda: plane_to_spherical_coefficient(2, 0.5, 1, 0.3, 0.2), "m"),
    (lambda: scalar_harmonic(2.5, 1, 0.3, 0.2), "l"),
    (lambda: legendre_plm(2.0, 1, 0.5), "l"),
    (lambda: vsh("E", 2.0, 1, 0.3, 0.2), "j"),
    (lambda: helicity_vsh(1, 2.0, 0, 0.3, 0.2), "j"),
    (lambda: small_argument_j(1.5, 0.1), "j"),
    (lambda: vsh_coupled(1.0, 1, 0, 0.3, 0.2), "j"),
    (lambda: cg_s1(1.5, 1.5, 1, 0), "l"),
    (lambda: QuantumLabel("E", 1.5, 1, 0).validate(), "omega"),
    (lambda: boundary_residual(mode_spec("E", 1, 0, 1), 2.5), "n_dirs"),
    # l_max past the default rule's reach, not sphere_quadrature's degree
    (lambda: vsh_project(_zero_field, 40), "l_max"),
    (lambda: fibonacci_directions(2.5), "n"),
    (lambda: fibonacci_directions(0), "n"),
    # the +-1 labels: a float one passed the old membership test
    (lambda: plane_wave_state(1.0, -1), "helicities"),
    (lambda: transition_allowed(1.0, -1, "E", 1), "parity_initial"),
    (lambda: transition_allowed(1, -1.0, "E", 1), "parity_final"),
    (lambda: TransitionQuery(1.0, -1, "E", 1, 1e-3), "parity_initial"),
    (lambda: check_parity(l_max=2.5), "l_max"),
    (lambda: check_helicity_eigen(l_max=2.5), "l_max"),
    # past the Bessel range: the order check named an argument never passed
    (lambda: check_plane_wave_expansion(2.0, 1.0, (0.7, 1.3), (2.1, 5.0), 61), "l_max"),
    (lambda: bessel_j_halfint(123, 1.0), "two_nu"),
]


@pytest.mark.parametrize("call,name", NON_INTEGER_CALLS,
                         ids=[f"{i}-{name}" for i, (_, name) in enumerate(NON_INTEGER_CALLS)])
def test_non_integer_label_is_a_named_value_error(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be in \[\S+, \S+\] and an integer, got"):
        call()


# (function, arguments whose integers are passed as Python and as numpy ints)
INTEGER_CALLS = [
    (photon_parity, ("E", 3)),
    (m_index, (2, -1)),
    (spherical_basis_vector, (-1,)),
    (helicity_polarization_vector, (-1, 0.3, 0.2)),
    (plane_to_spherical_coefficient, (2, 1, -1, 0.3, 0.2)),
    (scalar_harmonic, (3, -2, 0.3, 0.2)),
    (legendre_plm, (3, 2, 0.5)),
    (vsh, ("M", 2, 1, 0.3, 0.2)),
    (helicity_vsh, (-1, 2, 0, 0.3, 0.2)),
    (small_argument_j, (2, 0.1)),
    (vsh_coupled, (2, 3, -1, 0.3, 0.2)),
    (cg_s1, (2, 3, 1, 0)),
    (plane_wave_state, (1, -1)),
    (transition_allowed, (-1, -1, "M", 2)),
    (TransitionQuery, (1, -1, "E", 1, 1e-3)),
]


@pytest.mark.parametrize("func,args", INTEGER_CALLS, ids=[f.__name__ for f, _ in INTEGER_CALLS])
def test_numpy_integers_are_accepted(func, args):
    as_numpy = tuple(np.int64(a) if type(a) is int else a for a in args)
    assert np.array_equal(func(*as_numpy), func(*args))


def test_numpy_integer_labels_resolve_like_python_ones():
    assert QuantumLabel("M", np.int64(2), np.int64(3), np.int64(-3)).validate()
    spec = mode_spec("M", np.int64(2), np.int64(-1), np.int64(1))
    assert spec == mode_spec("M", 2, -1, 1)
    assert boundary_residual(spec, np.int64(8)) == boundary_residual(spec, 8)


def test_cached_coefficient_is_not_served_to_a_float_label():
    # cg_s1 is cached; 1.0 == 1, so an untyped cache would answer it
    assert cg_s1(1, 1, 0, 1) != 0.0
    for args in ((1.0, 1, 0, 1), (1, 1.0, 0, 1), (1, 1, 0.0, 1), (1, 1, 0, 1.0)):
        with pytest.raises(ValueError, match="and an integer, got 1.0|and an integer, got 0.0"):
            cg_s1(*args)
