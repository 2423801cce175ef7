import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sphcavity.angular import (
    Direction,
    _coupled_stack,
    _helicity_stack,
    _vsh_stack,
    antipode,
    cartesian_to_spherical_components,
    cg_s1,
    helicity_apply,
    helicity_vsh,
    spherical_basis_vector,
    spherical_to_cartesian_components,
    unit_radial,
    vsh,
    vsh_coupled,
)
from sphcavity.rotations import spherical_wave_helicity
from sphcavity.specfun import _Harmonics, scalar_harmonic

from _oracles import cg_by_diagonalization, gradient_form_vsh, ladder_form_coupled_vsh

SQ2 = math.sqrt(2.0)


def random_directions(rng, n, margin=0.05):
    return (rng.uniform(margin, np.pi - margin, n),
            rng.uniform(0.0, 2 * np.pi, n))


class TestBasisVectors:
    def test_values(self):
        assert_allclose(spherical_basis_vector(0), [0, 0, 1])
        assert_allclose(spherical_basis_vector(+1), [-1 / SQ2, -1j / SQ2, 0])
        assert_allclose(spherical_basis_vector(-1), [1 / SQ2, -1j / SQ2, 0])

    def test_orthonormality(self):
        for a in (+1, 0, -1):
            for b in (+1, 0, -1):
                ip = np.vdot(spherical_basis_vector(a), spherical_basis_vector(b))
                assert_allclose(ip, 1.0 if a == b else 0.0, atol=1e-16)

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            spherical_basis_vector(2)


class TestComponentConversion:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
    def test_round_trip_and_norm(self, parts):
        v = np.array(parts[:3]) + 1j * np.array(parts[3:])
        c = cartesian_to_spherical_components(v)
        back = spherical_to_cartesian_components(c)
        assert np.abs(back - v).max() < 1e-14
        assert abs(np.linalg.norm(c) - np.linalg.norm(v)) < 1e-13

    def test_known_values(self):
        c = cartesian_to_spherical_components([1.0, 0.0, 0.0])
        assert_allclose(c, [-1 / SQ2, 0.0, 1 / SQ2], atol=1e-16)

    def test_array_equals_point_calls(self, rng):
        # a point converts the same bits alone as in an array, both ways
        v = rng.normal(size=(3, 4, 5)) + 1j * rng.normal(size=(3, 4, 5))
        c = cartesian_to_spherical_components(v)
        back = spherical_to_cartesian_components(c)
        assert c.shape == back.shape == (3, 4, 5)
        for idx in np.ndindex(4, 5):
            col = (slice(None),) + idx
            assert np.array_equal(c[col], cartesian_to_spherical_components(v[col])), idx
            assert np.array_equal(back[col], spherical_to_cartesian_components(c[col])), idx
        assert np.abs(back - v).max() < 1e-14


class TestClebschGordan:
    def test_single_path(self):
        assert cg_s1(0, 1, 0, 0) == 1.0

    def test_against_diagonalization_oracle(self):
        for l in range(1, 5):
            table = cg_by_diagonalization(l)
            for (j, mu, m), ref in table.items():
                assert_allclose(cg_s1(l, j, mu, m), ref, atol=1e-12), (l, j, mu, m)

    def test_specific_value(self):
        # pinned from the J^2 diagonalization oracle
        ref = cg_by_diagonalization(1)[(1, +1, +1)]
        assert_allclose(cg_s1(1, 1, +1, +1), ref, atol=1e-14)
        assert_allclose(cg_s1(1, 1, +1, +1), -1 / SQ2, atol=1e-15)

    def test_row_orthogonality(self):
        for l in range(1, 5):
            for m in range(-l - 1, l + 2):
                for ja in (l - 1, l, l + 1):
                    for jb in (l - 1, l, l + 1):
                        if ja < 1 or jb < 1:
                            continue
                        dot = sum(cg_s1(l, ja, mu, m) * cg_s1(l, jb, mu, m)
                                  for mu in (+1, 0, -1))
                        expected = 1.0 if (ja == jb and abs(m) <= ja) else 0.0
                        assert_allclose(dot, expected, atol=1e-13)

    def test_out_of_range_magnetic_numbers(self):
        assert cg_s1(1, 2, +1, 3) == 0.0
        assert cg_s1(1, 1, -1, -2) == 0.0

    def test_invalid_coupling(self):
        with pytest.raises(ValueError):
            cg_s1(1, 3, 0, 0)
        with pytest.raises(ValueError):
            cg_s1(0, 0, 0, 0)
        with pytest.raises(ValueError):
            cg_s1(1, 1, 2, 0)


class TestCoupledVsh:
    def test_transversality_of_diagonal_family(self, rng):
        th, ph = random_directions(rng, 20)
        n = unit_radial(th, ph)
        for j in (1, 2, 3):
            for m in range(-j, j + 1):
                y = vsh_coupled(j, j, m, th, ph)
                assert np.abs((n * y).sum(axis=0)).max() < 1e-14

    def test_monopole_block(self, rng):
        th, ph = random_directions(rng, 5)
        y = vsh_coupled(1, 0, 0, th, ph)
        expected = np.zeros_like(y)
        expected[2] = 1.0 / math.sqrt(4 * math.pi)
        assert np.abs(y - expected).max() < 1e-15

    def test_zero_outside_m_range(self):
        assert np.abs(vsh_coupled(1, 1, 2, 0.3, 0.4)).max() == 0.0

    def test_ladder_operator_oracle(self, rng):
        # operator construction, free of any Clebsch-Gordan table
        th, ph = random_directions(rng, 12)
        for j in range(1, 5):
            for l in (j - 1, j, j + 1):
                if l < 0:
                    continue
                for m in range(-j, j + 1):
                    ours = vsh_coupled(j, l, m, th, ph)
                    ref = ladder_form_coupled_vsh(j, l, m, th, ph)
                    assert np.abs(ours - ref).max() < 1e-12, (j, l, m)

    def test_invalid_l(self):
        with pytest.raises(ValueError):
            vsh_coupled(1, 3, 0, 0.3, 0.4)
        with pytest.raises(ValueError):
            vsh_coupled(0, 0, 0, 0.3, 0.4)


class TestVsh:
    def test_magnetic_equals_coupled(self):
        d = Direction(math.pi / 2, 0.0)
        assert np.abs(vsh("M", 1, 0, *d) - vsh_coupled(1, 1, 0, *d)).max() < 1e-14

    def test_electric_combination(self, rng):
        th, ph = random_directions(rng, 30)
        for j in (1, 2, 3, 4):
            a = math.sqrt(j / (2 * j + 1))
            b = math.sqrt((j + 1) / (2 * j + 1))
            for m in range(-j, j + 1):
                combo = a * vsh_coupled(j, j + 1, m, th, ph) + b * vsh_coupled(j, j - 1, m, th, ph)
                assert np.abs(vsh("E", j, m, th, ph) - combo).max() < 1e-13

    def test_longitudinal_structure(self, rng):
        th, ph = random_directions(rng, 15)
        n = unit_radial(th, ph)
        y = vsh("L", 2, 1, th, ph)
        radial = (n * y).sum(axis=0)
        assert np.abs(radial - scalar_harmonic(2, 1, th, ph)).max() < 1e-13
        tangential = y - radial * n
        assert np.abs(tangential).max() < 1e-13

    def test_tangential_families(self, rng):
        th, ph = random_directions(rng, 15)
        n = unit_radial(th, ph)
        for kind in ("E", "M"):
            for j in (1, 3):
                y = vsh(kind, j, 1, th, ph)
                assert np.abs((n * y).sum(axis=0)).max() < 1e-13

    def test_gradient_form_oracle(self, rng):
        th, ph = random_directions(rng, 12, margin=0.15)
        for j in range(1, 5):
            for m in range(-j, j + 1):
                ye_ref, ym_ref = gradient_form_vsh(j, m, th, ph)
                assert np.abs(vsh("E", j, m, th, ph) - ye_ref).max() < 1e-12
                assert np.abs(vsh("M", j, m, th, ph) - ym_ref).max() < 1e-12

    def test_parity_operator(self, rng):
        # (P V)(n) = -V(-n); E and L have parity (-1)^j, M has (-1)^(j+1)
        th, ph = random_directions(rng, 10)
        tha, pha = antipode(th, ph)
        for kind, parity in (("E", lambda j: (-1) ** j),
                             ("M", lambda j: (-1) ** (j + 1)),
                             ("L", lambda j: (-1) ** j)):
            for j in (1, 2, 3):
                for m in (-j, 0, j):
                    acted = -vsh(kind, j, m, tha, pha)
                    assert np.abs(acted - parity(j) * vsh(kind, j, m, th, ph)).max() < 1e-13

    def test_cross_products(self, rng):
        th, ph = random_directions(rng, 20)
        n = unit_radial(th, ph)
        for j in (1, 2, 4):
            for m in (-j, 0, j - 1):
                ye = vsh("E", j, m, th, ph)
                ym = vsh("M", j, m, th, ph)
                assert np.abs(np.cross(n, ye, axis=0) - 1j * ym).max() < 1e-13
                assert np.abs(-1j * np.cross(n, ym, axis=0) - ye).max() < 1e-13

    def test_j0_transverse_kinds_rejected(self):
        for kind in ("E", "M"):
            with pytest.raises(ValueError):
                vsh(kind, 0, 0, 0.3, 0.4)
        # longitudinal j=0 exists
        y = vsh("L", 0, 0, 0.3, 0.4)
        assert np.abs(y - unit_radial(0.3, 0.4) / math.sqrt(4 * math.pi)).max() < 1e-15

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            vsh("X", 1, 0, 0.3, 0.4)


class TestHelicity:
    def test_eigen_equation(self, rng):
        th, ph = random_directions(rng, 15)
        for j in (1, 2, 3):
            for m in (-j, 0, j):
                for lam in (+1, 0, -1):
                    y = helicity_vsh(lam, j, m, th, ph)
                    assert np.abs(helicity_apply(th, ph, y) - lam * y).max() < 1e-13

    def test_zero_helicity_is_longitudinal(self, rng):
        th, ph = random_directions(rng, 8)
        assert np.abs(helicity_vsh(0, 2, 1, th, ph) - vsh("L", 2, 1, th, ph)).max() == 0.0

    def test_orthogonality_of_opposite_helicities(self):
        from sphcavity.verify import sphere_quadrature

        quad = sphere_quadrature(10)
        tg, pg = quad.grid
        for j in (1, 2):
            for m in (0, 1):
                yp = helicity_vsh(+1, j, m, tg, pg)
                ym = helicity_vsh(-1, j, m, tg, pg)
                overlap = quad.integrate((np.conj(yp) * ym).sum(axis=0))
                assert abs(overlap) < 1e-12
                norm = quad.integrate((np.conj(yp) * yp).sum(axis=0))
                assert abs(norm - 1.0) < 1e-12

    def test_matches_wigner_construction(self, rng):
        # same eigenfunctions as the rotation-matrix route, including the
        # sign conventions: lam=+1 flips, lam=-1 agrees
        th, ph = random_directions(rng, 6)
        for j in (1, 2, 3):
            for m in range(-j, j + 1):
                for lam, sign in ((+1, -1.0), (-1, +1.0)):
                    mine = helicity_vsh(lam, j, m, th, ph)
                    for k in range(len(th)):
                        ref = spherical_wave_helicity(j, m, lam, th[k], ph[k])
                        assert np.abs(mine[:, k] - sign * ref).max() < 1e-13

    def test_square_of_operator_on_transverse(self, rng):
        th, ph = random_directions(rng, 10)
        y = helicity_vsh(+1, 2, 1, th, ph)
        twice = helicity_apply(th, ph, helicity_apply(th, ph, y))
        assert np.abs(twice - y).max() < 1e-14

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            helicity_vsh(2, 1, 0, 0.3, 0.4)


class TestSharedTable:
    def test_private_builders_equal_public_calls_bitwise(self, rng):
        th, ph = random_directions(rng, 40, margin=0.0)
        th[:2] = 0.0, np.pi
        table = _Harmonics(9, th, ph)  # one table serves every function below
        for j in range(0, 9):
            for m in range(-j, j + 1):
                for l in (j - 1, j, j + 1):
                    if l >= 0 and (j, l) != (0, 0):
                        assert (_coupled_stack(table, [(j, l, m)])[0].tobytes()
                                == vsh_coupled(j, l, m, th, ph).tobytes()), (j, l, m)
                for kind in ("E", "M", "L") if j else ("L",):
                    assert (_vsh_stack(table, [(kind, j, m)])[0].tobytes()
                            == vsh(kind, j, m, th, ph).tobytes()), (kind, j, m)
                for lam in (+1, 0, -1) if j else (0,):
                    assert (_helicity_stack(table, [(lam, j, m)])[0].tobytes()
                            == helicity_vsh(lam, j, m, th, ph).tobytes()), (lam, j, m)


class TestHelicityApply:
    def test_basis_eigenvectors_along_z(self):
        e_plus = spherical_basis_vector(+1)
        out = helicity_apply(0.0, 0.0, e_plus)
        assert np.abs(out - e_plus).max() < 1e-15
        out0 = helicity_apply(0.0, 0.0, spherical_basis_vector(0))
        assert np.abs(out0).max() < 1e-15
        e_minus = spherical_basis_vector(-1)
        assert np.abs(helicity_apply(0.0, 0.0, e_minus) + e_minus).max() < 1e-15

    def test_swaps_electric_and_magnetic(self, rng):
        # (S.n) Y^E = -Y^M and (S.n) Y^M = -Y^E in this convention
        th, ph = random_directions(rng, 10)
        for j in (1, 2):
            ye = vsh("E", j, 1, th, ph)
            ym = vsh("M", j, 1, th, ph)
            assert np.abs(helicity_apply(th, ph, ye) + ym).max() < 1e-13
            assert np.abs(helicity_apply(th, ph, ym) + ye).max() < 1e-13


class TestDirection:
    def test_antipode(self):
        d = Direction(0.3, 0.4)
        a = d.antipode()
        assert_allclose([a.theta, a.phi], [np.pi - 0.3, 0.4 + np.pi])
        assert np.abs(a.unit_vector() + d.unit_vector()).max() < 1e-15
