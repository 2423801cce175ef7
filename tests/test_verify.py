import math
import random

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphcavity import CheckReport
from sphcavity import modes as md
from sphcavity.angular import (_coupled_stack, antipode, helicity_apply, helicity_vsh,
                               unit_radial, vsh, vsh_coupled)
from sphcavity.modes import CavityConfig, mode_spec, spherical_bessel_zeros
from sphcavity.rotations import (_spherical_waves, helicity_polarization_vector, m_index,
                                 spherical_wave_helicity, wigner_d_matrix, wigner_entry)
from sphcavity.specfun import HarmonicConvention, _Harmonics, scalar_harmonic, spherical_bessel_j
from sphcavity.verify import (
    DEFAULT_TOLERANCES,
    _family,
    _mode_energies,
    check_bessel_integral,
    check_bessel_recurrences,
    check_cross_products,
    check_dmatrix_unitarity,
    check_dual_condition,
    check_helicity_eigen,
    check_mode_boundary,
    check_mode_energy,
    check_mode_equipartition,
    check_mode_tables,
    check_orthonormality,
    check_parity,
    check_plane_wave_expansion,
    check_vsh_fourier,
    radial_quadrature,
    run_suite,
    sphere_quadrature,
    suite_check_names,
    vsh_project,
)


class TestSphereQuadrature:
    def test_total_solid_angle(self):
        quad = sphere_quadrature(8)
        tg, _ = quad.grid
        total = quad.integrate(np.ones_like(tg))
        assert_allclose(total, 4 * np.pi, rtol=1e-13)

    def test_harmonic_normalization(self):
        quad = sphere_quadrature(10)
        tg, pg = quad.grid
        y = scalar_harmonic(2, 1, tg, pg)
        assert abs(quad.integrate(np.conj(y) * y) - 1.0) < 1e-12

    def test_harmonic_orthogonality(self):
        quad = sphere_quadrature(10)
        tg, pg = quad.grid
        a = scalar_harmonic(2, 1, tg, pg)
        b = scalar_harmonic(3, 1, tg, pg)
        assert abs(quad.integrate(np.conj(a) * b)) < 1e-12

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            sphere_quadrature(65)

    def test_radial_rule(self):
        r, w = radial_quadrature(64, 2.0)
        assert_allclose(np.sum(w * r * r), 8.0 / 3.0, rtol=1e-13)

    @pytest.mark.parametrize("r_max", [-1.0, 0.0, math.nan, math.inf])
    def test_radial_rule_needs_a_finite_positive_radius(self, r_max):
        # r_max = -1 gave negative nodes and weights
        with pytest.raises(ValueError, match="^r_max must be finite and strictly positive"):
            radial_quadrature(3, r_max)

    @pytest.mark.parametrize("n", [0, 2.0])
    def test_radial_rule_node_count(self, n):
        with pytest.raises(ValueError, match=r"^n must be in \[1, inf\] and an integer"):
            radial_quadrature(n, 1.0)


class TestCheckReport:
    def test_pass_flag(self):
        assert CheckReport("x", 1e-12, 1e-10).passed
        assert not CheckReport("x", 1e-8, 1e-10).passed

    def test_impossible_tolerance_fails(self):
        report, = run_suite(only=["orthonormality_scalar"],
                            tolerances={"orthonormality_scalar": 1e-30})
        assert not report.passed

    def test_as_dict(self):
        d = CheckReport("x", 0.0, 1.0, details="note").as_dict()
        assert d["pass"] is True
        assert d["details"] == "note"


class TestIndividualChecks:
    def test_orthonormality_families(self):
        for family in ("scalar", "coupled", "eml", "helicity"):
            resid, details = check_orthonormality(family, 4)
            assert resid < DEFAULT_TOLERANCES[f"orthonormality_{family}"], (resid, details)

    def test_plane_wave_expansion_converges_with_lmax(self):
        args = (5.0, 1.0, (0.7, 1.3), (2.1, 5.0))
        r10, _ = check_plane_wave_expansion(*args, 10)
        r20, _ = check_plane_wave_expansion(*args, 20)
        assert r20 < r10 / 1e3

    def test_plane_wave_exact_at_origin(self):
        resid, _ = check_plane_wave_expansion(2.0, 0.0, (0.3, 0.3), (1.0, 1.0), 0)
        assert resid < 1e-15

    def test_bessel_integral_orthogonal_case(self):
        tol = DEFAULT_TOLERANCES["bessel_integral"]
        resid, _ = check_bessel_integral(1.5, 1, 2)
        assert resid < tol
        resid_diag, _ = check_bessel_integral(1.5, 1, 1)
        assert resid_diag < tol

    def test_bessel_integral_sine_case(self):
        # nu = 1/2 reduces to sine orthogonality with zeros at n pi
        resid, _ = check_bessel_integral(0.5, 1, 2)
        assert resid < 1e-10
        resid, _ = check_bessel_integral(nu=0.5, alpha_idx=3, beta_idx=3)
        assert resid < DEFAULT_TOLERANCES["bessel_integral"]
        assert_allclose(spherical_bessel_zeros(0, 64), np.pi * np.arange(1, 65),
                        rtol=1e-14, atol=0)

    def test_bessel_integral_validation(self):
        with pytest.raises(ValueError):
            check_bessel_integral(1.0, 1, 2)
        # zero #0 does not exist, and must not be read as the last zero found
        with pytest.raises(ValueError, match=r"alpha_idx must be in \[1, inf\] and an integer"):
            check_bessel_integral(1.5, 0, 2)

    @pytest.mark.parametrize("zeros", [(30, 31), (64, 64)])
    def test_bessel_integral_count_edge(self, zeros):
        # the radial rule grows with the largest zero, up to count = 64
        assert check_bessel_integral(1.5, *zeros)[0] <= 1e-15

    def test_vsh_fourier_zero_argument(self):
        # at kr = 0 only the l = 0 transform survives: the j-1 term of the
        # electric transform reduces to g_0(0) = 4 pi for j = 1, and for
        # j = 2 both terms vanish
        for j in (1, 2):
            resid, _ = check_vsh_fourier(j, "E", 0.0)
            assert resid < DEFAULT_TOLERANCES["vsh_fourier"]

    def test_mode_tables_documents_skipped_roots(self):
        resid, details = check_mode_tables()
        assert resid < DEFAULT_TOLERANCES["mode_tables"]
        for value in ("14.06", "9.09", "16.92"):
            assert value in details

    def test_dual_condition(self):
        resid, details = check_dual_condition()
        assert resid < DEFAULT_TOLERANCES["dual_condition"]
        assert "holds" in details

    def test_mode_checks_reject_empty_range(self):
        # the mode checks take spectrum's range: j_max = 0 holds no mode
        # to check, and must not pass with residual 0
        for check in (check_mode_energy, check_mode_equipartition, check_mode_boundary):
            with pytest.raises(ValueError, match="j_max"):
                check(j_max=0)

    @pytest.mark.parametrize("call,match", [
        pytest.param(lambda: check_vsh_fourier(-1, "scalar", 1.0), r"j must be in \[0, 4\]",
                     id="vsh_fourier-scalar"),
        pytest.param(lambda: check_vsh_fourier(-3, "M", 1.0), r"j must be in \[1, 4\]",
                     id="vsh_fourier-M"),
        pytest.param(lambda: check_dmatrix_unitarity(j_max=-1), "j_max",
                     id="dmatrix_unitarity"),
        pytest.param(lambda: check_mode_boundary(n_dirs=0), "n_dirs", id="mode_boundary-n_dirs"),
        pytest.param(lambda: vsh_project(lambda t, p: np.zeros((3,) + t.shape), -1), "l_max",
                     id="vsh_project"),
    ])
    def test_checks_reject_empty_range(self, call, match):
        # each range holds no j (or no direction) to check, and must be
        # rejected by the argument's name, not pass with residual 0 or fail
        # deeper down
        with pytest.raises(ValueError, match=match):
            call()


def _full_field_integrals(spec, radial, quad):
    """int |A|^2 d3r and int |B|^2 d3r of one mode by the 3-d product rule on
    the full fields: one _fields call on the (r, theta, phi) grid, then the
    sum over each shell and over the radial nodes."""
    tg, pg = quad.grid
    r, wr = radial
    (a,), (b,) = md._fields([spec], r[None, :, None, None], tg, pg)

    def integral(v):
        shell = quad.integrate((np.abs(v) ** 2).sum(axis=0)) * r * r
        return float(np.sum(wr * shell.real))

    return integral(a), integral(b)


def _full_field_energies(spec, radial, quad):
    """Electric and magnetic energies of one mode from _full_field_integrals."""
    config = spec.config
    mu0 = 1.0 / (config.epsilon0 * config.wave_speed**2)
    a2, b2 = _full_field_integrals(spec, radial, quad)
    return 0.25 * spec.omega**2 * config.epsilon0 * a2, 0.25 / mu0 * b2


class TestModeEnergies:
    # the full fields on sphere rules of degree 2j + pad, both exact since
    # |A|^2 and |B|^2 have degree <= 2j + 2, times the radial rule of
    # _mode_energies, ceil(x_max) + 24 nodes (45 here): the closed angular
    # sum must agree with the full 3-d product rule, for every m alike
    @pytest.mark.parametrize("pad", [6, 8])
    def test_separable_sum_equals_full_field_integral(self, pad):
        config = CavityConfig()
        js = (1, 2, 5, 8)
        specs = [mode_spec(tau, j, m, n) for tau in ("E", "M") for j in js
                 for m in (-j, 0, j) for n in (3, 1)]
        radial = radial_quadrature(math.ceil(max(s.x_root for s in specs)) + 24, config.radius)
        # one call over every j group; the members of a group are not adjacent
        got = _mode_energies(specs)
        for spec, energies in zip(specs, got):
            quad = sphere_quadrature(2 * spec.index.j + pad)
            want = _full_field_energies(spec, radial, quad)
            assert_allclose(energies, want, rtol=1e-13, atol=0, err_msg=str(spec.index))
        # the radial rule follows from the largest root, not from the last
        # spec: the reversed list takes the same rule
        assert_allclose(_mode_energies(specs[::-1])[::-1], got, rtol=1e-15, atol=0)

    def test_coupled_rows_are_orthonormal_to_the_spectrum_edge(self):
        # _mode_energies closes the angular integral by the orthonormality of
        # the Y_{j,l,m}, l = j-1, j, j+1: held here on an exact sphere rule for
        # every j of spectrum's range, not only orthonormality_coupled's j <= 8
        for j in range(1, 21):
            quad = sphere_quadrature(2 * (j + 2) + 2)
            Y = _Harmonics(j + 1, *quad.grid)
            labels = [(j, l, m) for m in sorted({0, 1, j}) for l in (j - 1, j, j + 1)]
            t = _coupled_stack(Y, labels).reshape(len(labels), -1)
            w = np.broadcast_to(quad.weights, (3,) + quad.weights.shape).ravel()
            gram = t.conj() @ (t * w).T
            assert np.abs(gram - np.eye(len(labels))).max() <= 1e-13, j

    def test_spectrum_edge(self):
        # the advertised spectrum corner (20, 32), where the largest root is
        # x ~ 130: both radial rules grow with it
        assert check_mode_energy(j_max=20, n_max=32)[0] <= 1e-13
        assert check_mode_equipartition(j_max=20, n_max=32)[0] <= 1e-13

    def test_boundary_spectrum_edge(self):
        # the same corner for mode_boundary: the wall residuals of all 1280
        # modes, relative to their RMS fields
        resid = check_mode_boundary(j_max=20, n_max=32)[0]
        assert resid < DEFAULT_TOLERANCES["mode_boundary"]
        assert resid <= 1e-13

    @pytest.mark.parametrize("tau,j,m,n,config", [
        pytest.param("E", 1, 0, 1, CavityConfig(), id="E-1"),
        pytest.param("M", 2, 0, 2, CavityConfig(), id="M-2-0-2"),
        pytest.param("E", 3, -2, 1, CavityConfig(radius=2.0), id="E-3--2-1-R2"),
        pytest.param("M", 1, 1, 1, CavityConfig.si(0.01), id="M-1-1-1-SI")])
    def test_rms_fields_are_one_photon_scale(self, tau, j, m, n, config):
        # the one-photon normalization fixes int |E|^2 d3r = 2 hbar omega / eps0
        # and, by equipartition, int |B|^2 d3r = 2 hbar omega / (eps0 c^2): the
        # RMS fields over V = 4 pi R^3 / 3 that the wall residual divides by
        spec = mode_spec(tau, j, m, n, config)
        volume = 4.0 / 3.0 * math.pi * config.radius**3
        a2, b2 = _full_field_integrals(spec, radial_quadrature(80, config.radius),
                                       sphere_quadrature(2 * j + 8))
        e_rms = spec.omega * math.sqrt(a2 / volume)
        b_rms = math.sqrt(b2 / volume)
        want = math.sqrt(2.0 * config.hbar * spec.omega / (config.epsilon0 * volume))
        assert_allclose([e_rms, config.wave_speed * b_rms], want, rtol=1e-12, atol=0)


class TestStackedChecks:
    """The stacked checks evaluate whole stacks of basis members or orders;
    each must read, bit for bit, the residual of a member-by-member loop over
    the public functions with the check's points, except vsh_fourier, whose
    quadrature sums run in another order (within 1e-15)."""

    @staticmethod
    def directions(seed, n, margin):
        # the checks' draw order: every theta, then every phi
        rng = random.Random(seed)
        th = [rng.uniform(margin, math.pi - margin) for _ in range(n)]
        return np.array(th), np.array([rng.uniform(0.0, 2 * math.pi) for _ in range(n)])

    @staticmethod
    def gram_resid(members, quad):
        s = np.stack(members).reshape(len(members), -1)
        w = np.broadcast_to(quad.weights, (3,) + quad.weights.shape).ravel()
        return np.abs(s.conj() @ (s * w).T - np.eye(len(s))).max()

    def test_parity(self):
        th, ph = self.directions(20260810, 24, 0.1)
        tha, pha = antipode(th, ph)
        resid = 0.0
        for l in range(5):
            for m in range(-l, l + 1):
                y0 = (-1.0) ** l * scalar_harmonic(l, m, th, ph)
                ya = scalar_harmonic(l, m, tha, pha, HarmonicConvention.LANDAU_LIFSHITZ)
                resid = max(resid, np.abs(scalar_harmonic(l, m, tha, pha) - y0).max(),
                            np.abs(ya - 1j**l * y0).max())
        for kind, shift in (("E", 0), ("M", 1), ("L", 0)):
            for j in range(0 if kind == "L" else 1, 5):
                for m in range(-j, j + 1):
                    expected = (-1.0) ** (j + shift) * vsh(kind, j, m, th, ph)
                    resid = max(resid, np.abs(-vsh(kind, j, m, tha, pha) - expected).max())
        assert check_parity()[0] == resid

    def test_helicity_eigen(self):
        th, ph = self.directions(20260811, 16, 0.1)
        resid = 0.0
        for j in range(5):
            for m in range(-j, j + 1):
                for lam in (+1, 0, -1) if j else (0,):
                    y = helicity_vsh(lam, j, m, th, ph)
                    resid = max(resid, np.abs(helicity_apply(th, ph, y) - lam * y).max())
                    if lam:
                        twice = helicity_apply(th, ph, helicity_apply(th, ph, y))
                        resid = max(resid, np.abs(twice - y).max())
        assert check_helicity_eigen()[0] == resid

    def test_cross_products(self):
        th, ph = self.directions(11, 40, 0.05)
        n = unit_radial(th, ph)
        resid = 0.0
        for j in range(1, 5):
            for m in range(-j, j + 1):
                ye, ym = vsh("E", j, m, th, ph), vsh("M", j, m, th, ph)
                resid = max(resid, np.abs(np.cross(n, ye, axis=0) - 1j * ym).max(),
                            np.abs(-1j * np.cross(n, ym, axis=0) - ye).max())
        assert check_cross_products()[0] == resid

    def test_bessel_recurrences(self):
        x = np.linspace(0.5, 50.0, 199)
        h = 1e-6 * np.maximum(1.0, x)
        resid = 0.0
        for l in range(11):
            deriv = (spherical_bessel_j(l, x + h) - spherical_bessel_j(l, x - h)) / (2 * h)
            jl = spherical_bessel_j(l, x)
            resid = max(resid, np.abs(deriv - (l / x) * jl + spherical_bessel_j(l + 1, x)).max())
            if l >= 1:
                resid = max(resid, np.abs(
                    deriv - spherical_bessel_j(l - 1, x) + ((l + 1) / x) * jl).max())
        assert check_bessel_recurrences()[0] == resid

    def test_orthonormality_spherical_wave(self):
        quad = sphere_quadrature(14)
        tg, pg = quad.grid
        resid = self.gram_resid([spherical_wave_helicity(j, m, lam, tg, pg) for lam in (+1, -1)
                                 for j in range(1, 5) for m in range(-j, j + 1)], quad)
        assert check_orthonormality("spherical_wave", 4)[0] == resid

    def test_orthonormality_coupled(self):
        quad = sphere_quadrature(14)
        tg, pg = quad.grid
        resid = self.gram_resid([vsh_coupled(j, l, m, tg, pg) for j in range(5)
                                 for l in (j - 1, j, j + 1) if l >= 0 and (j, l) != (0, 0)
                                 for m in range(-j, j + 1)], quad)
        assert check_orthonormality("coupled", 4)[0] == resid

    def test_orthonormality_eml(self):
        quad = sphere_quadrature(14)
        tg, pg = quad.grid
        resid = self.gram_resid([vsh(kind, j, m, tg, pg) for kind in "LEM"
                                 for j in range(0 if kind == "L" else 1, 5)
                                 for m in range(-j, j + 1)], quad)
        assert check_orthonormality("eml", 4)[0] == resid

    def test_orthonormality_helicity(self):
        quad = sphere_quadrature(14)
        tg, pg = quad.grid
        resid = self.gram_resid([helicity_vsh(lam, j, m, tg, pg) for lam in (+1, 0, -1)
                                 for j in range(0 if lam == 0 else 1, 5)
                                 for m in range(-j, j + 1)], quad)
        assert check_orthonormality("helicity", 4)[0] == resid

    @pytest.mark.parametrize("grid", ["sphere", "directions"])
    @pytest.mark.parametrize("family,public", [
        ("coupled", vsh_coupled),
        ("eml", vsh),
        ("helicity", helicity_vsh),
    ])
    def test_family_members_equal_public_functions(self, family, public, grid):
        # every member of a stacked family, through l_max = 6, against its
        # public per-member function, on a product grid and on a 1-d set
        # that includes both poles
        if grid == "sphere":
            tg, pg = sphere_quadrature(18).grid
        else:
            tg, pg = self.directions(8, 30, 0.0)
            tg[:2] = 0.0, math.pi
        labels, members = _family(family, 6, tg, pg)
        assert members.shape == (len(labels), 3) + tg.shape
        for label, member in zip(labels, members):
            assert np.array_equal(member, public(*label, tg, pg)), label

    @pytest.mark.parametrize("j,kind,kr", [(0, "scalar", 1.0), (1, "M", 2.5), (2, "E", 3.0),
                                           (2, "coupled", 2.0)])
    def test_vsh_fourier(self, j, kind, kr):
        # one quad.integrate per (direction, member)
        quad = sphere_quadrature(min(64, 2 * math.ceil(kr) + 2 * j + 24))
        tg, pg = quad.grid
        rng = random.Random(5)

        def g(l):
            return 4 * np.pi * 1j**l * spherical_bessel_j(l, kr)

        a, b = math.sqrt(j / (2 * j + 1)), math.sqrt((j + 1) / (2 * j + 1))
        resid = 0.0
        for _ in range(3):
            th, ph = rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2 * math.pi)
            cosang = (unit_radial(tg, pg) * unit_radial(th, ph).reshape(3, 1, 1)).sum(axis=0)
            kernel = np.exp(1j * kr * cosang)
            for m in range(-j, j + 1):
                if kind == "scalar":
                    pairs = [(scalar_harmonic(j, m, tg, pg), g(j) * scalar_harmonic(j, m, th, ph))]
                elif kind == "coupled":
                    pairs = [(vsh_coupled(j, l, m, tg, pg), g(l) * vsh_coupled(j, l, m, th, ph))
                             for l in (j - 1, j, j + 1)]
                elif kind == "M":
                    pairs = [(vsh("M", j, m, tg, pg), g(j) * vsh("M", j, m, th, ph))]
                else:
                    pairs = [(vsh("E", j, m, tg, pg),
                              a * g(j + 1) * vsh_coupled(j, j + 1, m, th, ph)
                              + b * g(j - 1) * vsh_coupled(j, j - 1, m, th, ph))]
                for f, rhs in pairs:
                    lhs = quad.integrate(f * kernel)
                    scale = max(1.0, np.abs(rhs).max())
                    resid = max(resid, np.abs(lhs - rhs).max() / scale)
        assert abs(check_vsh_fourier(j, kind, kr)[0] - resid) <= 1e-15

    def test_spherical_waves_rows(self):
        # each row against the defining product, one D^(j) entry times the
        # polarization vector, and against the public per-member function
        th, ph = self.directions(4, 12, 0.0)
        for j in range(1, 21):
            for lam in (+1, -1):
                for t, p in ((th, ph), (th[0], ph[0])):
                    rows = _spherical_waves([j], t, p, (lam,))[0]
                    dmat = wigner_d_matrix(j, p, t, 0.0)
                    for m in range(-j, j + 1):
                        amp = math.sqrt((2 * j + 1) / (4 * math.pi)) * wigner_entry(dmat, j, lam, m)
                        want = amp * helicity_polarization_vector(lam, t, p)
                        assert np.array_equal(rows[m_index(j, m)], want), (j, m, lam)
                        assert np.array_equal(spherical_wave_helicity(j, m, lam, t, p), want)

    @pytest.mark.parametrize("grid", ["sphere", "directions"])
    def test_spherical_wave_family_equals_public_calls(self, grid):
        # one d^j sweep for all orders and one polarization vector per
        # helicity: every member bit for bit a public per-member call
        if grid == "sphere":
            tg, pg = sphere_quadrature(18).grid
        else:
            tg, pg = self.directions(8, 30, 0.0)
            tg[:2] = 0.0, math.pi
        labels, members = _family("spherical_wave", 6, tg, pg)
        want = np.stack([spherical_wave_helicity(j, m, lam, tg, pg) for lam, j, m in labels])
        assert members.tobytes() == want.tobytes()
        # the order sweep shared by a subset of orders and one helicity
        waves = _spherical_waves([2, 5], tg, pg, (-1,))
        for j, w in zip((2, 5), waves):
            for m in range(-j, j + 1):
                one = spherical_wave_helicity(j, m, -1, tg, pg)
                assert w[m_index(j, m)].tobytes() == one.tobytes(), (j, m)

    def test_dmatrix_unitarity(self):
        # the check's draws, three per j, through the public D-matrix
        rng = random.Random(9)
        resid = 0.0
        for j in range(21):
            d = wigner_d_matrix(j, *(rng.uniform(0.0, 2 * math.pi) for _ in range(3)))
            d0 = wigner_d_matrix(j, 0.0, 0.0, 0.0)
            resid = max(resid, np.abs(d @ d.conj().T - np.eye(2 * j + 1)).max(),
                        np.abs(d0 - np.eye(2 * j + 1)).max())
        assert check_dmatrix_unitarity()[0] == resid


class TestVshProject:
    def test_single_basis_function(self):
        coeffs, resid = vsh_project(lambda t, p: vsh("M", 2, 1, t, p), 3)
        assert resid < DEFAULT_TOLERANCES["completeness"]
        assert abs(coeffs[("M", 2, 1)] - 1.0) < 1e-13
        others = [abs(v) for k, v in coeffs.items() if k != ("M", 2, 1)]
        assert max(others) < 1e-13

    def test_random_combination_recovered(self, rng):
        terms = [("E", 2, 1, 0.7 - 0.2j), ("L", 0, 0, 1.1 + 0.5j),
                 ("M", 4, -3, -0.3 + 0.9j), ("L", 3, 2, 0.25j)]

        def field(t, p):
            out = np.zeros((3,) + t.shape, dtype=complex)
            for kind, l, m, c in terms:
                out += c * vsh(kind, l, m, t, p)
            return out

        coeffs, resid = vsh_project(field, 4)
        assert resid < 1e-11
        for kind, l, m, c in terms:
            assert abs(coeffs[(kind, l, m)] - c) < 1e-11

    def test_radial_monopole_is_longitudinal(self):
        def field(t, p):
            from sphcavity.angular import unit_radial

            return unit_radial(t, p) / math.sqrt(4 * math.pi) + 0j

        coeffs, resid = vsh_project(field, 2)
        assert resid < DEFAULT_TOLERANCES["completeness"]
        assert abs(coeffs[("L", 0, 0)] - 1.0) < 1e-13
        others = [abs(v) for k, v in coeffs.items() if k != ("L", 0, 0)]
        assert max(others) < 1e-13

    @staticmethod
    def member_by_member(field_fn, l_max, quad):
        # the oracle: each E/M/L member integrated on its own with the public vsh
        tg, pg = quad.grid
        f = field_fn(tg, pg)
        return {(kind, j, m): complex(quad.integrate((np.conj(vsh(kind, j, m, tg, pg)) * f)
                                                     .sum(axis=0)))
                for kind in "LEM" for j in range(0 if kind == "L" else 1, l_max + 1)
                for m in range(-j, j + 1)}

    @pytest.mark.parametrize("degree", [None, 26])
    def test_matches_member_by_member_oracle(self, rng, degree):
        # a random field of l <= 6 projected through l_max = 8, on the default
        # rule and on an explicit one of higher degree
        terms = [(kind, j, m, complex(*rng.normal(size=2)))
                 for kind in "LEM" for j in range(0 if kind == "L" else 1, 7)
                 for m in range(-j, j + 1)]

        def field(t, p):
            return sum(c * vsh(kind, j, m, t, p) for kind, j, m, c in terms)

        quad = None if degree is None else sphere_quadrature(degree)
        coeffs, resid = vsh_project(field, 8, quadrature=quad)
        want = self.member_by_member(field, 8, quad or sphere_quadrature(2 * (8 + 2) + 2))
        assert list(coeffs) == list(want)
        assert max(abs(coeffs[k] - want[k]) for k in want) < 1e-13
        assert max(abs(coeffs[kind, j, m] - c) for kind, j, m, c in terms) < 1e-13
        assert resid < 1e-13


def test_swapped_electric_weights_fail_completeness(monkeypatch):
    # planted defect: Y^E = b Y_{j,j+1,m} + a Y_{j,j-1,m} with a and b swapped,
    # in the test field (angular) and in the projection (verify's name)
    import sphcavity.angular as ang
    import sphcavity.verify as vf

    right = ang._eml_terms

    def swapped(kind, j):
        if kind != "E":
            return right(kind, j)
        (lp, a), (lm, b) = right(kind, j)
        return ((lp, b), (lm, a))

    monkeypatch.setattr(ang, "_eml_terms", swapped)
    monkeypatch.setattr(vf, "_eml_terms", swapped)
    resid, _ = vf.check_completeness()
    assert resid >= DEFAULT_TOLERANCES["completeness"]
    assert resid > 1e-3


class TestSuite:
    def test_default_suite_all_pass(self):
        reports = run_suite()
        assert all(r.tolerance == DEFAULT_TOLERANCES[r.name] for r in reports)
        failed = [r.name for r in reports if not r.passed]
        assert not failed, failed

    def test_reports_sorted_by_name(self):
        reports = run_suite(only=["orthonormality"])
        names = [r.name for r in reports]
        assert names == sorted(names)

    def test_only_filter(self):
        reports = run_suite(only=["bessel"])
        assert {r.name for r in reports} == {"bessel_integral", "bessel_recurrences"}

    def test_one_string_is_one_filter(self):
        # not one filter per character, which matched every check
        assert [r.name for r in run_suite(only="parity")] == ["parity"]

    def test_unknown_filter(self):
        with pytest.raises(ValueError):
            run_suite(only=["zzz_nothing"])

    def test_tolerance_override_forces_failure(self):
        reports = run_suite(only=["dmatrix_golden"],
                            tolerances={"dmatrix_golden": 1e-30})
        assert not reports[0].passed

    def test_unknown_tolerance_name_raises(self):
        # a misspelt override must not run the check at its default
        with pytest.raises(ValueError, match="dmatrix_gloden"):
            run_suite(only=["dmatrix_golden"], tolerances={"dmatrix_gloden": 1e-30})
        with pytest.raises(ValueError, match="bogus"):
            run_suite(tolerances={"bogus": 1.0})

    def test_every_check_has_default_tolerance(self):
        assert set(suite_check_names()) == set(DEFAULT_TOLERANCES)
