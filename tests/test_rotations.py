import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from _oracles import mp_wigner_small_d
from sphcavity.angular import helicity_apply, unit_radial
from sphcavity.rotations import (
    MAX_WIGNER_J,
    _small_d_orders,
    euler_to_rotation_matrix,
    helicity_polarization_vector,
    inverse_angles,
    plane_to_spherical_coefficient,
    rotate_cartesian,
    rotate_jm_coefficients,
    rotate_spherical,
    rotation_matrix_to_euler,
    spherical_wave_helicity,
    wigner_d_matrix,
    wigner_entry,
    wigner_small_d,
)
from sphcavity.specfun import scalar_harmonic
from sphcavity.verify import check_dmatrix_unitarity, sphere_quadrature

GOLDEN_D1 = np.array([
    [0.5, 1 / math.sqrt(2), 0.5],
    [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)],
    [0.5, -1 / math.sqrt(2), 0.5],
])

angles_st = st.floats(-2 * math.pi, 2 * math.pi)


class TestWignerMatrix:
    def test_golden_quarter_turn(self):
        d = wigner_d_matrix(1, 0.0, math.pi / 2, 0.0)
        assert np.abs(d - GOLDEN_D1).max() < 1e-15

    def test_identity_at_zero_angles(self):
        for j in (0, 1, 3, 8):
            d = wigner_d_matrix(j, 0.0, 0.0, 0.0)
            assert np.abs(d - np.eye(2 * j + 1)).max() == 0.0

    @settings(max_examples=40, deadline=None)
    @given(j=st.integers(0, 8), a=angles_st, b=angles_st, g=angles_st)
    def test_unitarity(self, j, a, b, g):
        d = wigner_d_matrix(j, a, b, g)
        assert np.abs(d @ d.conj().T - np.eye(2 * j + 1)).max() < 1e-12

    def test_small_d_real_and_transpose(self, rng):
        for j in (1, 2, 5):
            beta = rng.uniform(0, np.pi)
            d = wigner_small_d(j, beta)
            assert np.isrealobj(d)
            assert np.abs(wigner_small_d(j, -beta) - d.T).max() < 1e-13

    def test_entry_accessor(self):
        d = wigner_d_matrix(1, 0.0, math.pi / 2, 0.0)
        assert_allclose(wigner_entry(d, 1, 1, 1), 0.5)
        assert_allclose(wigner_entry(d, 1, 0, 1), -1 / math.sqrt(2))
        assert_allclose(wigner_entry(d, 1, -1, 0), -1 / math.sqrt(2))

    def test_j_range(self):
        with pytest.raises(ValueError):
            wigner_d_matrix(21, 0, 0, 0)
        with pytest.raises(ValueError):
            wigner_d_matrix(-1, 0, 0, 0)

    def test_representation_property(self, rng):
        # D(angles of R_a R_b) = D(a) D(b), checked via Euler extraction
        for _ in range(4):
            a = rng.uniform(0, 2 * np.pi, 3)
            b = rng.uniform(0, 2 * np.pi, 3)
            r_comb = euler_to_rotation_matrix(*a) @ euler_to_rotation_matrix(*b)
            comb = rotation_matrix_to_euler(r_comb)
            assert np.abs(euler_to_rotation_matrix(*comb) - r_comb).max() < 1e-12
            for j in (1, 2, 3):
                lhs = wigner_d_matrix(j, *comb)
                rhs = wigner_d_matrix(j, *a) @ wigner_d_matrix(j, *b)
                assert np.abs(lhs - rhs).max() < 1e-11

    def test_inverse_angles(self, rng):
        a, b, g = rng.uniform(0, 2 * np.pi, 3)
        for j in (1, 3):
            prod = wigner_d_matrix(j, a, b, g) @ wigner_d_matrix(j, *inverse_angles(a, b, g))
            assert np.abs(prod - np.eye(2 * j + 1)).max() < 1e-13


class TestWignerAccuracy:
    BETAS = (0.0, 0.05, 0.3, math.pi / 2, 1.1, math.pi - 0.05, math.pi, 2 * math.pi - 0.05)

    @pytest.mark.parametrize("j", [0, 1, 2, 8, MAX_WIGNER_J])
    def test_small_d_against_mpmath(self, j):
        for beta in self.BETAS:
            err = np.abs(wigner_small_d(j, beta) - mp_wigner_small_d(j, beta)).max()
            assert err <= 1e-13, (j, beta, err)

    def test_unitarity_to_advertised_edge(self):
        # the suite check covers every j <= MAX_WIGNER_J; keep its worst
        # residual well inside the 1e-12 tolerance, near beta = 0 and 2 pi too
        for seed in range(30):
            assert check_dmatrix_unitarity(seed=seed)[0] <= 5e-14, seed
        for beta in (1e-3, 0.011, 0.05, math.pi - 0.05, math.pi + 0.011, 2 * math.pi - 0.05):
            d = wigner_d_matrix(MAX_WIGNER_J, 0.4, beta, 1.3)
            assert np.abs(d @ d.conj().T - np.eye(2 * MAX_WIGNER_J + 1)).max() <= 5e-14, beta


class TestBatchIndependence:
    # a point's value must not depend on the other angles in the call

    @pytest.mark.parametrize("j", [0, 1, 4, MAX_WIGNER_J])
    def test_small_d_equals_scalar_calls(self, j, rng):
        betas = np.concatenate([rng.uniform(-7.0, 7.0, 13), [0.0, math.pi, 2 * math.pi]])
        stacked = np.stack([wigner_small_d(j, b) for b in betas], axis=-1)
        assert np.array_equal(wigner_small_d(j, betas), stacked)
        grid = wigner_small_d(j, betas.reshape(4, 4))
        assert np.array_equal(grid, stacked.reshape(stacked.shape[:2] + (4, 4)))

    @pytest.mark.parametrize("orders", [range(MAX_WIGNER_J + 1), [1, 2, 3, 4], [20], [0], [7, 2]])
    def test_order_sweep_equals_one_order_calls(self, orders, rng):
        # one recurrence sweep for several orders: each order bit for bit its
        # own wigner_small_d call
        for beta in (0.0, math.pi, 1e-9, math.pi - 1e-9, rng.uniform(-7.0, 7.0),
                     rng.uniform(-7.0, 7.0, 6), rng.uniform(-7.0, 7.0, (3, 4))):
            for j, d in zip(orders, _small_d_orders(orders, beta)):
                assert d.tobytes() == wigner_small_d(j, beta).tobytes(), (j, beta)

    def test_order_sweep_at_chosen_points(self, rng):
        # with points, order j is formed at its own columns of beta alone
        betas = np.append(rng.uniform(0.0, 2 * math.pi, MAX_WIGNER_J + 1), 0.0)
        points = [[j, -1] for j in range(MAX_WIGNER_J + 1)]
        for j, d in enumerate(_small_d_orders(range(MAX_WIGNER_J + 1), betas, points)):
            assert d.tobytes() == wigner_small_d(j, betas[[j, -1]]).tobytes(), j

    def test_spherical_wave_grid_equals_point_calls(self):
        tg, pg = sphere_quadrature(14).grid
        for j, m, lam in ((1, 0, +1), (2, -2, -1), (4, 3, +1)):
            grid = spherical_wave_helicity(j, m, lam, tg, pg)
            assert grid.shape == (3,) + tg.shape
            for idx in np.ndindex(tg.shape):
                point = spherical_wave_helicity(j, m, lam, tg[idx], pg[idx])
                assert np.array_equal(grid[(slice(None),) + idx], point), (j, m, lam, idx)

    def test_scalar_angle_shapes(self):
        for j in (0, 1, 3):
            assert wigner_small_d(j, 0.4).shape == (2 * j + 1, 2 * j + 1)
            assert wigner_d_matrix(j, 0.1, 0.4, 0.2).shape == (2 * j + 1, 2 * j + 1)
        assert helicity_polarization_vector(+1, 0.4, 0.2).shape == (3,)
        assert spherical_wave_helicity(2, 1, -1, 0.4, 0.2).shape == (3,)
        assert np.ndim(plane_to_spherical_coefficient(2, 1, -1, 0.4, 0.2)) == 0

    def test_array_angle_shapes(self):
        th, ph = np.linspace(0.1, 3.0, 5)[:, None], np.linspace(0.0, 6.0, 4)[None, :]
        assert wigner_d_matrix(2, ph, th, 0.0).shape == (5, 5, 5, 4)
        assert helicity_polarization_vector(0, th, ph).shape == (3, 5, 4)
        assert plane_to_spherical_coefficient(3, -1, +1, th, ph).shape == (5, 4)

    def test_polarization_helicity_on_arrays(self, rng):
        th = rng.uniform(0.05, np.pi - 0.05, (6, 5))
        ph = rng.uniform(0.0, 2 * np.pi, (6, 5))
        for lam in (+1, -1):
            e = helicity_polarization_vector(lam, th, ph)
            assert np.abs(helicity_apply(th, ph, e) - lam * e).max() < 1e-13
            assert np.abs((unit_radial(th, ph) * e).sum(axis=0)).max() < 1e-13


class TestEulerMatrix:
    def test_quarter_turn_about_y(self):
        r = euler_to_rotation_matrix(0.0, math.pi / 2, 0.0)
        assert np.abs(r @ [1.0, 0.0, 0.0] - [0.0, 0.0, 1.0]).max() < 1e-15

    def test_orthogonality(self, rng):
        r = euler_to_rotation_matrix(*rng.uniform(0, 2 * np.pi, 3))
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-14
        assert abs(np.linalg.det(r) - 1.0) < 1e-14

    def test_euler_round_trip(self, rng):
        for _ in range(10):
            r = euler_to_rotation_matrix(*rng.uniform(0.01, 2 * np.pi - 0.01, 3))
            angles = rotation_matrix_to_euler(r)
            assert np.abs(euler_to_rotation_matrix(*angles) - r).max() < 1e-12

    def test_gimbal_cases(self):
        for beta in (0.0, math.pi):
            r = euler_to_rotation_matrix(0.7, beta, 0.0)
            angles = rotation_matrix_to_euler(r)
            assert np.abs(euler_to_rotation_matrix(*angles) - r).max() < 1e-12


class TestRotateComponents:
    def test_worked_example(self):
        # x-axis vector, quarter frame turn about y: spherical components
        # (-1/sqrt2, 0, 1/sqrt2) -> (0, 1, 0)
        out = rotate_spherical(np.array([-1 / math.sqrt(2), 0, 1 / math.sqrt(2)]),
                               0.0, math.pi / 2, 0.0)
        assert np.abs(out - np.array([0.0, 1.0, 0.0])).max() < 1e-15

    def test_cartesian_worked_example(self):
        out = rotate_cartesian([1.0, 0.0, 0.0], 0.0, math.pi / 2, 0.0)
        assert np.abs(out - np.array([0.0, 0.0, 1.0])).max() < 1e-12

    def test_cartesian_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3 Cartesian components"):
            rotate_cartesian([1.0, 0.0], 0.1, 0.2, 0.3)

    def test_identity(self, rng):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        out = rotate_spherical(v, 0.0, 0.0, 0.0)
        assert np.abs(out - v).max() == 0.0

    @settings(max_examples=40, deadline=None)
    @given(parts=st.lists(st.floats(-3, 3), min_size=6, max_size=6),
           a=angles_st, b=angles_st, g=angles_st)
    def test_norm_preserved(self, parts, a, b, g):
        v = np.array(parts[:3]) + 1j * np.array(parts[3:])
        out = rotate_spherical(v, a, b, g)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rotate_spherical(np.ones(4), 0, 0, 0)


class TestRotateCoefficients:
    def test_scalar_harmonic_reconstruction(self, rng):
        # rotated coefficients must reproduce Y_lm evaluated at the
        # back-rotated direction
        for _ in range(2):
            a, b, g = rng.uniform(0, 2 * np.pi, 3)
            r = euler_to_rotation_matrix(a, b, g)
            for l in range(1, 5):
                for m in (-l, 0, l - 1):
                    c = np.zeros(2 * l + 1, dtype=complex)
                    c[l - m] = 1.0
                    cp = rotate_jm_coefficients(l, c, a, b, g)
                    for _ in range(20):
                        th = rng.uniform(0.05, np.pi - 0.05)
                        ph = rng.uniform(0, 2 * np.pi)
                        x_old = r.T @ unit_radial(th, ph)
                        th_old = math.acos(np.clip(x_old[2], -1, 1))
                        ph_old = math.atan2(x_old[1], x_old[0]) % (2 * math.pi)
                        direct = scalar_harmonic(l, m, th_old, ph_old)
                        resummed = sum(cp[l - mp] * scalar_harmonic(l, mp, th, ph)
                                       for mp in range(-l, l + 1))
                        assert abs(direct - resummed) < 1e-10

    def test_j0_invariant(self, rng):
        c = np.array([1.7 + 0.3j])
        out = rotate_jm_coefficients(0, c, *rng.uniform(0, 2 * np.pi, 3))
        assert np.abs(out - c).max() == 0.0

    def test_composition(self, rng):
        a = rng.uniform(0, 2 * np.pi, 3)
        b = rng.uniform(0, 2 * np.pi, 3)
        comb = rotation_matrix_to_euler(euler_to_rotation_matrix(*a)
                                        @ euler_to_rotation_matrix(*b))
        j = 2
        c = rng.normal(size=2 * j + 1) + 1j * rng.normal(size=2 * j + 1)
        two_step = rotate_jm_coefficients(j, rotate_jm_coefficients(j, c, *b), *a)
        one_step = rotate_jm_coefficients(j, c, *comb)
        assert np.abs(two_step - one_step).max() < 1e-11

    def test_norm_preserved(self, rng):
        j = 3
        c = rng.normal(size=2 * j + 1) + 1j * rng.normal(size=2 * j + 1)
        out = rotate_jm_coefficients(j, c, *rng.uniform(0, 2 * np.pi, 3))
        assert abs(np.linalg.norm(out) - np.linalg.norm(c)) < 1e-12

    def test_length_validation(self):
        with pytest.raises(ValueError):
            rotate_jm_coefficients(2, np.ones(3), 0, 0, 0)


class TestPolarizationVector:
    def test_along_z_is_basis_vector(self):
        from sphcavity.angular import spherical_basis_vector

        for lam in (+1, 0, -1):
            e = helicity_polarization_vector(lam, 0.0, 0.0)
            assert np.abs(e - spherical_basis_vector(lam)).max() < 1e-15

    def test_helicity_and_transversality(self, rng):
        for _ in range(15):
            th = rng.uniform(0.05, np.pi - 0.05)
            ph = rng.uniform(0, 2 * np.pi)
            n = unit_radial(th, ph)
            for lam in (+1, -1):
                e = helicity_polarization_vector(lam, th, ph)
                assert np.abs(helicity_apply(th, ph, e) - lam * e).max() < 1e-13
                assert abs((n * e).sum()) < 1e-13
                assert abs(np.vdot(e, e) - 1.0) < 1e-13

    def test_rotation_preserves_helicity(self, rng):
        # rotating the propagation label and mixing the spin components
        # with the same rotation leaves the state a helicity eigenstate
        for _ in range(10):
            th, ph = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi)
            angles = rng.uniform(0, 2 * np.pi, 3)
            r = euler_to_rotation_matrix(*angles)
            for lam in (+1, -1):
                v = helicity_polarization_vector(lam, th, ph)
                v_new = r @ v
                n_new = r @ unit_radial(th, ph)
                th_new = math.acos(np.clip(n_new[2], -1, 1))
                ph_new = math.atan2(n_new[1], n_new[0]) % (2 * math.pi)
                assert np.abs(helicity_apply(th_new, ph_new, v_new) - lam * v_new).max() < 1e-12
                # and it coincides with the eigenvector at the new direction
                # up to a pure phase
                e_new = helicity_polarization_vector(lam, th_new, ph_new)
                overlap = np.vdot(e_new, v_new)
                assert abs(abs(overlap) - 1.0) < 1e-12


class TestSphericalWaveHelicity:
    def test_helicity_eigenfunction(self, rng):
        for _ in range(10):
            th, ph = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi)
            for j, m, lam in ((1, 0, +1), (2, -1, -1), (3, 2, +1)):
                psi = spherical_wave_helicity(j, m, lam, th, ph)
                assert np.abs(helicity_apply(th, ph, psi) - lam * psi).max() < 1e-12
                assert abs((unit_radial(th, ph) * psi).sum()) < 1e-13

    def test_orthonormality(self):
        quad = sphere_quadrature(14)
        tg, pg = quad.grid
        lam = +1
        entries = [(1, 0), (1, 1), (2, 0), (2, -2), (3, 1)]

        def sample(j, m):
            out = np.empty((3,) + tg.shape, dtype=complex)
            for it in range(tg.shape[0]):
                for ip in range(tg.shape[1]):
                    out[:, it, ip] = spherical_wave_helicity(j, m, lam, tg[it, ip], pg[it, ip])
            return out

        fields = {key: sample(*key) for key in entries}
        for a in entries:
            for b in entries:
                g = quad.integrate((np.conj(fields[a]) * fields[b]).sum(axis=0))
                assert abs(g - (1.0 if a == b else 0.0)) < 1e-12, (a, b)

    def test_transformation_law(self, rng):
        # rotating argument and components together equals resummation
        # with the coefficient transformation
        j, lam = 2, +1
        for _ in range(3):
            angles = rng.uniform(0, 2 * np.pi, 3)
            r = euler_to_rotation_matrix(*angles)
            m = rng.integers(-j, j + 1)
            c = np.zeros(2 * j + 1, dtype=complex)
            c[j - m] = 1.0
            cp = rotate_jm_coefficients(j, c, *angles)
            for _ in range(6):
                th, ph = rng.uniform(0.15, np.pi - 0.15), rng.uniform(0, 2 * np.pi)
                x_old = r.T @ unit_radial(th, ph)
                th_old = math.acos(np.clip(x_old[2], -1, 1))
                ph_old = math.atan2(x_old[1], x_old[0]) % (2 * math.pi)
                lhs = r @ spherical_wave_helicity(j, m, lam, th_old, ph_old)
                rhs = sum(cp[j - mp] * spherical_wave_helicity(j, mp, lam, th, ph)
                          for mp in range(-j, j + 1))
                assert np.abs(lhs - rhs).max() < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            spherical_wave_helicity(1, 0, 0, 0.5, 0.5)
        with pytest.raises(ValueError):
            spherical_wave_helicity(1, 2, 1, 0.5, 0.5)


class TestPlaneToSpherical:
    def test_along_z_selects_m_equals_lambda(self):
        for j in (1, 2, 3):
            for lam in (+1, -1):
                for m in range(-j, j + 1):
                    coeff = plane_to_spherical_coefficient(j, m, lam, 0.0, 0.0)
                    expected = math.sqrt((2 * j + 1) / (4 * math.pi)) if m == lam else 0.0
                    assert abs(coeff - expected) < 1e-14

    def test_row_sum(self, rng):
        th, ph = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi)
        for j in (1, 2, 4):
            total = sum(abs(plane_to_spherical_coefficient(j, m, +1, th, ph)) ** 2
                        for m in range(-j, j + 1))
            assert abs(total - (2 * j + 1) / (4 * math.pi)) < 1e-13

    def test_band_limited_projection(self, rng):
        # <plane wave | F> computed through the expansion coefficients
        # equals the pointwise smeared value conj(e^(lam)(p)) . F(p)
        lam = +1
        terms = [(j, m, complex(rng.normal(), rng.normal()))
                 for j in (1, 2, 3) for m in range(-j, j + 1)]
        th_p, ph_p = 1.1, 2.3

        def field(th, ph):
            return sum(c * spherical_wave_helicity(j, m, lam, th, ph)
                       for j, m, c in terms)

        via_coeffs = sum(np.conj(plane_to_spherical_coefficient(j, m, lam, th_p, ph_p)) * c
                         for j, m, c in terms)
        direct = np.vdot(helicity_polarization_vector(lam, th_p, ph_p), field(th_p, ph_p))
        assert abs(via_coeffs - direct) < 1e-11

    def test_validation(self):
        with pytest.raises(ValueError):
            plane_to_spherical_coefficient(1, 0, 0, 0.5, 0.5)

    @pytest.mark.parametrize("func", [spherical_wave_helicity, plane_to_spherical_coefficient])
    @pytest.mark.parametrize("j", [MAX_WIGNER_J + 1, 2.0, 0])
    def test_j_outside_the_wigner_range_is_named(self, func, j):
        # j past the d^j table, or not an integer, fails on j itself
        with pytest.raises(ValueError, match=r"j must be in \[1, 20\] and an integer"):
            func(j, 0, 1, 0.3, 0.2)
