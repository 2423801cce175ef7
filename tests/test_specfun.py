import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sphcavity.specfun import (
    HarmonicConvention,
    _bessel_orders,
    _Harmonics,
    _series_cutoff,
    _upward_pair,
    bessel_j_halfint,
    legendre_plm,
    scalar_harmonic,
    small_argument_j,
    spherical_bessel_j,
)

from _oracles import (
    mp_scalar_harmonic,
    mp_spherical_jl,
    mp_spherical_jy,
    scipy_scalar_harmonic,
    series_spherical_jl,
)

CS = HarmonicConvention.CONDON_SHORTLEY
LL = HarmonicConvention.LANDAU_LIFSHITZ


class TestSphericalBessel:
    def test_origin_values(self):
        assert spherical_bessel_j(0, 0.0) == 1.0
        for l in (1, 2, 5, 20):
            assert spherical_bessel_j(l, 0.0) == 0.0

    def test_j0_at_pi(self):
        assert abs(spherical_bessel_j(0, math.pi)) < 1e-14

    def test_j1_first_zero(self):
        # 4.49341 is the first zero of j_1 to the quoted digits
        assert abs(spherical_bessel_j(1, 4.49341)) < 1e-5

    def test_j2_series_value(self):
        # frozen from the 50-term ascending series (and mpmath)
        expected = series_spherical_jl(2, 1.0)
        assert_allclose(spherical_bessel_j(2, 1.0), expected, rtol=1e-12)
        assert_allclose(expected, 0.062035052011373861, rtol=1e-14)

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 8, 12, 20])
    def test_high_precision_grid(self, l):
        xs = np.concatenate([np.linspace(0.01, 2.0, 9),
                             np.linspace(2.5, 30.0, 12),
                             np.linspace(35.0, 100.0, 6)])
        vals = spherical_bessel_j(l, xs)
        for x, v in zip(xs, vals):
            ref = mp_spherical_jl(l, float(x))
            assert abs(v - ref) <= 1e-12 * max(abs(ref), 1e-30), (l, x)

    def test_large_order(self):
        for x in (1.0, 10.0, 50.0):
            ref = mp_spherical_jl(40, x)
            assert_allclose(spherical_bessel_j(40, x), ref, rtol=1e-10, atol=1e-300)
            ref60 = mp_spherical_jl(60, x)
            assert_allclose(spherical_bessel_j(60, x), ref60, rtol=1e-9, atol=1e-300)

    def test_array_input(self):
        x = np.array([0.0, 0.5, 5.0, 50.0])
        out = spherical_bessel_j(3, x)
        assert out.shape == x.shape
        for xi, oi in zip(x, out):
            assert oi == spherical_bessel_j(3, float(xi))

    @pytest.mark.parametrize("l", [3, 20, 60])
    def test_value_independent_of_batch(self, l):
        # a point's value must not depend on the other arguments in the call
        xs = np.concatenate([np.linspace(0.05, 2 * l + 10, 41),
                             [l - 1e-9, float(l), l + 1e-9]])
        for x in xs:
            alone = spherical_bessel_j(l, x)
            assert spherical_bessel_j(l, np.array([x, 200.0]))[0] == alone, x
            assert spherical_bessel_j(l, np.array([0.5, x]))[1] == alone, x

    def test_upward_pair_per_lane_orders(self):
        # lanes sorted by order, one run per order: each lane stops at its
        # own order, bit-identical to its order alone (a one-run call)
        rng = np.random.default_rng(7)
        ls = np.sort(rng.integers(0, 60, 200))
        xs = ls + rng.uniform(1e-3, 250.0, 200)
        orders, counts = np.unique(ls, return_counts=True)
        lo, hi = _upward_pair(list(zip(orders.tolist(), counts.tolist())), xs)
        for l, x, a, b in zip(ls.tolist(), xs, lo, hi):
            assert (a, b) == tuple(_upward_pair([(l, 1)], np.array([x]))), (l, x)
            assert a == spherical_bessel_j(l, x)
        # the runs count rows of a 2-D x: each row as its order alone
        rows = np.array([[2.0, 3.5, 100.0], [5.0, 7.0, 9.0],
                         [6.0, 50.0, 250.0], [40.0, 41.0, 299.0]])
        pair = _upward_pair([(2, 1), (5, 2), (40, 1)], rows)
        for l, row, a, b in zip((2, 5, 5, 40), rows, *pair):
            assert np.stack([a, b]).tobytes() == np.stack(_upward_pair([(l, 3)], row)).tobytes(), l
        with np.errstate(all="raise"):  # finished lanes are not carried on
            _upward_pair([(0, 1), (59, 1)], np.array([1e-3, 59.0]))

    @pytest.mark.parametrize("orders", [range(61), [5], [0, 1, 2], range(0, 61, 7), [59, 60]])
    def test_order_rows_equal_one_order_calls(self, orders):
        # the multi-order evaluator runs the lanes of all orders at once:
        # each row bit for bit the call with that order alone, across every
        # order's series cutoff (one ulp either side) and x = l
        cuts = np.array([_series_cutoff(l) for l in range(61)])
        xs = np.concatenate([[0.0], cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 400.0),
                             np.arange(61.0), np.geomspace(1e-6, 300.0, 119)])
        for x in (xs, xs.reshape(4, -1), 2.0):
            rows = _bessel_orders(orders, x)
            assert rows.shape == (len(orders),) + np.shape(x)
            for l, row in zip(orders, rows):
                assert row.tobytes() == np.asarray(spherical_bessel_j(l, x)).tobytes(), l

    @pytest.mark.parametrize("l", range(61))
    def test_series_term_count(self, l):
        # the series regime runs a fixed number of terms: up to one ulp below
        # its cutoff it must agree with the 50-term series to 2 ulp
        cut = np.nextafter(_series_cutoff(l), 0.0)
        xs = np.append(np.geomspace(0.01 * cut, cut, 24, endpoint=False), cut)
        for x, v in zip(xs, spherical_bessel_j(l, xs)):
            ref = series_spherical_jl(l, float(x))
            assert abs(v - ref) <= 2 * np.spacing(abs(ref)), (l, x)

    def test_order_rows_validate(self):
        with pytest.raises(ValueError, match="order"):
            _bessel_orders([3, 61], 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            _bessel_orders([3, 4], [1.0, -1.0])

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 20, 40, 59, 60])
    def test_accuracy_to_advertised_edge(self, l):
        # the regime seams are the series cutoff and x = l (one ulp either side)
        xs = np.concatenate([np.geomspace(1e-3, 300.0, 165),
                             [_series_cutoff(l)],
                             [np.nextafter(float(l), -1.0), float(l),
                              np.nextafter(float(l), 400.0)] if l else []])
        vals = spherical_bessel_j(l, xs)
        for x, v in zip(xs, vals):
            jl, yl = mp_spherical_jy(l, float(x))
            scale = math.hypot(jl, yl) if x > l else abs(jl)
            assert abs(v - jl) <= 1e-13 * scale, (l, x)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spherical_bessel_j(2, -0.5)
        with pytest.raises(ValueError):
            spherical_bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            spherical_bessel_j(61, 1.0)
        with pytest.raises(ValueError):
            spherical_bessel_j(2, np.inf)

    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(0, 10), x=st.floats(0.5, 50.0))
    def test_recurrence_upward(self, l, x):
        # j_{l-1} + j_{l+1} = ((2l+1)/x) j_l
        lhs = spherical_bessel_j(l + 1, x)
        if l == 0:
            rhs = spherical_bessel_j(0, x) / x - np.cos(x) / x  # j_{-1} = cos(x)/x
            assert abs(lhs - (spherical_bessel_j(0, x) * (1.0 / x) - np.cos(x) / x)) < 1e-10
        else:
            rhs = (2 * l + 1) / x * spherical_bessel_j(l, x) - spherical_bessel_j(l - 1, x)
            assert abs(lhs - rhs) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(0, 10), x=st.floats(0.5, 50.0))
    def test_derivative_recurrences(self, l, x):
        h = 1e-6 * max(1.0, x)
        deriv = (spherical_bessel_j(l, x + h) - spherical_bessel_j(l, x - h)) / (2 * h)
        jl = spherical_bessel_j(l, x)
        assert abs(deriv - (l / x) * jl + spherical_bessel_j(l + 1, x)) < 1e-8
        if l >= 1:
            assert abs(deriv - spherical_bessel_j(l - 1, x) + ((l + 1) / x) * jl) < 1e-8


class TestHalfIntegerBessel:
    def test_consistency_with_spherical(self):
        xs = np.linspace(0.1, 60.0, 77)
        for l in range(0, 12):
            lhs = bessel_j_halfint(2 * l + 1, xs)
            rhs = np.sqrt(2 * xs / np.pi) * spherical_bessel_j(l, xs)
            assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)

    def test_half_order_sine(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x; vanishes at pi
        assert abs(bessel_j_halfint(1, math.pi)) < 1e-14

    def test_three_halves_zero(self):
        assert abs(bessel_j_halfint(3, 4.49341)) < 1e-5

    def test_five_halves_value(self):
        # sqrt(2x/pi) * j_2(x) at x = 4.49341 with j_2 in closed trig form
        x = 4.49341
        j2 = (3.0 / x**2 - 1.0) * math.sin(x) / x - 3.0 * math.cos(x) / x**2
        expected = math.sqrt(2 * x / math.pi) * j2
        assert_allclose(bessel_j_halfint(5, x), expected, rtol=1e-13)
        assert_allclose(expected, 0.3674133935, rtol=1e-9)

    def test_rejects_even_or_negative(self):
        for bad in (0, 2, 4, -1, -3):
            with pytest.raises(ValueError):
                bessel_j_halfint(bad, 1.0)

    @pytest.mark.parametrize("x", [-1.0, [2.0, -0.5]])
    def test_negative_argument_raises_before_any_warning(self, x):
        # x is validated before sqrt(2x/pi) is taken, so no RuntimeWarning
        # precedes the ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-negative"):
                bessel_j_halfint(3, x)


class TestLegendre:
    def test_against_scipy(self):
        from scipy.special import lpmv

        x = np.linspace(-0.99, 0.99, 41)
        for l in range(0, 12):
            for m in range(0, l + 1):
                ours = legendre_plm(l, m, x)
                # scipy's lpmv includes the Condon-Shortley (-1)^m factor
                theirs = (-1.0) ** m * lpmv(m, l, x)
                assert_allclose(ours, theirs, rtol=1e-11, atol=1e-11)

    def test_validation(self):
        with pytest.raises(ValueError):
            legendre_plm(2, 3, 0.5)
        with pytest.raises(ValueError):
            legendre_plm(2, -1, 0.5)
        for bad in (1.5, -1.0 - 1e-12, np.nan, np.inf, -np.inf, [0.5, 2.0], [0.5, np.nan]):
            with pytest.raises(ValueError):
                legendre_plm(2, 1, bad)
        assert legendre_plm(2, 1, 1.0) == 0.0  # the end points stay valid
        assert legendre_plm(3, 0, -1.0) == -1.0

    def test_equals_recurrence_loop_bitwise(self):
        # the two-term loop legendre_plm used before the recurrence was shared
        # with the harmonic table; same arithmetic, so equal bit for bit
        def loop_plm(l, m, x):
            somx2 = np.sqrt(np.maximum(0.0, 1.0 - x * x))
            pmm = np.full_like(x, math.prod(range(2 * m - 1, 0, -2), start=1.0)) * somx2**m
            if l == m:
                return pmm
            pm1 = (2 * m + 1) * x * pmm
            for ll in range(m + 2, l + 1):
                pmm, pm1 = pm1, ((2 * ll - 1) * x * pm1 - (ll + m - 1) * pmm) / (ll - m)
            return pm1

        x = np.concatenate([[-1.0, 0.0, 1.0], np.cos(np.linspace(1e-3, np.pi - 1e-3, 97))])
        for l in range(0, 61):
            for m in range(0, l + 1):
                assert legendre_plm(l, m, x).tobytes() == loop_plm(l, m, x).tobytes(), (l, m)
                assert legendre_plm(l, m, x[5]) == loop_plm(l, m, np.asarray(x[5]))


class TestScalarHarmonic:
    def test_monopole_constant(self):
        val = scalar_harmonic(0, 0, 1.234, 5.0, CS)
        assert_allclose(val, 1.0 / math.sqrt(4 * math.pi), rtol=1e-15)
        assert scalar_harmonic(0, 0, 0.3, 0.1, LL) == val  # i^0 = 1

    def test_landau_lifshitz_pole_value(self):
        # Y_10 at theta=0 gains the i^1 phase in this convention
        val = scalar_harmonic(1, 0, 0.0, 0.0, LL)
        assert_allclose(val, 1j * math.sqrt(3 / (4 * math.pi)), rtol=1e-14)

    def test_explicit_l2_m1(self):
        # direct associated-Legendre product: Y_21 = -sqrt(15/8pi) cos sin e^{i phi}
        th, ph = math.pi / 3, math.pi / 4
        expected = (-math.sqrt(15.0 / (8 * math.pi)) * math.cos(th) * math.sin(th)
                    * np.exp(1j * ph))
        assert_allclose(scalar_harmonic(2, 1, th, ph, CS), expected, rtol=1e-13)

    def test_against_scipy(self, rng):
        th = rng.uniform(0.05, np.pi - 0.05, 12)
        ph = rng.uniform(0, 2 * np.pi, 12)
        for l in range(0, 7):
            for m in range(-l, l + 1):
                assert_allclose(scalar_harmonic(l, m, th, ph, CS),
                                scipy_scalar_harmonic(l, m, th, ph),
                                rtol=1e-12, atol=1e-13)

    def test_convention_phase_relation(self, rng):
        th = rng.uniform(0.05, np.pi - 0.05, 8)
        ph = rng.uniform(0, 2 * np.pi, 8)
        for l in range(0, 7):
            for m in range(-l, l + 1):
                cs = scalar_harmonic(l, m, th, ph, CS)
                ll = scalar_harmonic(l, m, th, ph, LL)
                assert_allclose(ll, 1j**l * cs, rtol=1e-14)
                assert_allclose(np.abs(ll), np.abs(cs), rtol=1e-14)

    def test_parity(self, rng):
        th = rng.uniform(0.05, np.pi - 0.05, 10)
        ph = rng.uniform(0, 2 * np.pi, 10)
        for conv in (CS, LL):
            for l in range(0, 6):
                for m in range(-l, l + 1):
                    flipped = scalar_harmonic(l, m, np.pi - th, ph + np.pi, conv)
                    assert_allclose(flipped, (-1.0) ** l * scalar_harmonic(l, m, th, ph, conv),
                                    rtol=1e-12, atol=1e-14)

    def test_orthonormality_both_conventions(self):
        from sphcavity.verify import sphere_quadrature

        quad = sphere_quadrature(12)
        tg, pg = quad.grid
        for conv in (CS, LL):
            for (la, ma), (lb, mb) in (((3, 2), (3, 2)), ((4, 1), (2, 1)),
                                       ((5, -3), (5, -3)), ((6, 0), (4, 0))):
                g = quad.integrate(np.conj(scalar_harmonic(la, ma, tg, pg, conv))
                                   * scalar_harmonic(lb, mb, tg, pg, conv))
                expected = 1.0 if (la, ma) == (lb, mb) else 0.0
                assert abs(g - expected) < 1e-12

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            scalar_harmonic(2, 3, 0.5, 0.5)

    def test_near_poles_against_mpmath(self):
        # the sectoral seed sin(theta)^m keeps full relative accuracy within
        # 1e-4 of either pole, where sqrt(1 - cos^2) loses about 8 digits
        th = np.array([1e-4, 1e-3, 1e-2, np.pi - 1e-3, np.pi - 1e-4])
        worst = 0.0
        for l in range(1, 61):
            for m in sorted({1, l // 2, l, -l}):
                ours = scalar_harmonic(l, m, th, 0.3)
                ref = np.array([mp_scalar_harmonic(l, m, t, 0.3) for t in th])
                worst = max(worst, float(np.max(np.abs(ours - ref) / np.abs(ref))))
        assert worst < 2e-13


class TestHarmonicTable:
    def test_against_mpmath(self):
        # every m of l <= 8 and of l = 30, 59, 60 from one table at three
        # interior directions, and from a point table at the first of them
        th, ph = np.array([0.7, 1.9, 2.6]), np.array([5.9, 0.4, 3.1])
        grid, point = _Harmonics(60, th, ph), _Harmonics(60, th[0], ph[0])
        assert grid.shape == th.shape and point.shape == ()
        for l in [*range(9), 30, 59, 60]:
            bound = 2e-14 * math.sqrt((2 * l + 1) / (4 * math.pi))
            for m in range(-l, l + 1):
                ref = np.array([mp_scalar_harmonic(l, m, t, p) for t, p in zip(th, ph)])
                assert np.abs(grid(l, m) - ref).max() <= bound, (l, m)
                assert abs(point(l, m) - ref[0]) <= bound, (l, m)

    def test_broadcast_grid_and_shared_entries(self):
        th = np.linspace(0.0, np.pi, 7)[:, None]
        ph = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)[None, :]
        table = _Harmonics(4, th, ph)
        assert table.shape == (7, 5)
        for l, m in ((0, 0), (3, -2), (4, 4)):
            assert table(l, m).shape == (7, 5)
            assert table(l, m) is table(l, m)  # formed once


class TestSmallArgument:
    def test_at_zero(self):
        assert small_argument_j(0, 0.0, 0) == 1.0

    def test_leading_coefficient_j1(self):
        assert_allclose(small_argument_j(1, 1e-3, 0), 1e-3 / 3.0, rtol=1e-15)

    def test_agrees_with_bessel(self):
        assert_allclose(small_argument_j(2, 1e-2, 0),
                        spherical_bessel_j(2, 1e-2), rtol=1e-4)

    def test_error_halves_quadratically(self):
        # relative error of the leading term is O(x^2)
        for j in (1, 3):
            errs = []
            for x in (0.2, 0.1):
                exact = spherical_bessel_j(j, x)
                errs.append(abs(small_argument_j(j, x, 0) / exact - 1.0))
            assert errs[1] < errs[0] / 3.0

    def test_first_correction_improves(self):
        x = 0.2
        exact = spherical_bessel_j(3, x)
        err0 = abs(small_argument_j(3, x, 0) - exact)
        err1 = abs(small_argument_j(3, x, 1) - exact)
        assert err1 < err0 / 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            small_argument_j(-1, 0.1)
        with pytest.raises(ValueError):
            small_argument_j(1, 0.1, order=2)
