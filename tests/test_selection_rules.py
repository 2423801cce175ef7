import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphcavity.selection_rules import (
    RATIO_KINDS,
    TransitionQuery,
    photon_parity,
    scaling_ratio,
    transition_allowed,
)
from sphcavity.specfun import spherical_bessel_j


class TestPhotonParity:
    def test_electric_values(self):
        assert photon_parity("E", 1) == -1
        assert photon_parity("E", 2) == +1
        assert photon_parity("E", 3) == -1

    def test_magnetic_values(self):
        assert photon_parity("M", 1) == +1
        assert photon_parity("M", 2) == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            photon_parity("X", 1)
        with pytest.raises(ValueError):
            photon_parity("E", 0)


class TestTransitionAllowed:
    def test_electric_dipole_needs_parity_change(self):
        assert transition_allowed(+1, -1, "E", 1) is True
        assert transition_allowed(+1, +1, "E", 1) is False

    def test_magnetic_dipole_preserves_parity(self):
        assert transition_allowed(+1, +1, "M", 1) is True
        assert transition_allowed(+1, -1, "M", 1) is False

    def test_full_truth_table(self):
        for pi in (+1, -1):
            for pf in (+1, -1):
                for tau in ("E", "M"):
                    for j in (1, 2, 3):
                        expected = pi * pf == photon_parity(tau, j)
                        assert transition_allowed(pi, pf, tau, j) == expected

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            transition_allowed(0, 1, "E", 1)


class TestTransitionQuery:
    def test_allowed_property(self):
        q = TransitionQuery(+1, -1, "E", 1, ka=1e-3)
        assert q.allowed is True

    def test_warns_for_large_ka(self):
        with pytest.warns(UserWarning) as record:
            TransitionQuery(+1, -1, "E", 1, ka=0.5)
        # reported at the caller's line, not inside the generated __init__
        assert record[0].filename == __file__

    def test_validation(self):
        with pytest.raises(ValueError):
            TransitionQuery(+1, -1, "E", 1, ka=-1.0)
        for ka in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="ka must be a finite number > 0"):
                TransitionQuery(+1, -1, "E", 1, ka)
        with pytest.raises(ValueError):
            TransitionQuery(+2, -1, "E", 1, ka=1e-3)


class TestScalingRatio:
    def test_magnetic_over_electric_exact(self):
        # direct substitution: (ka)^2 / ((j+1)(2j+1)) at j=1, ka=1e-3
        assert scaling_ratio("M_over_E", 1, 1e-3) == 1e-6 / 6.0
        assert_allclose(scaling_ratio("M_over_E", 1, 1e-3), 1.6667e-7, rtol=1e-4)

    def test_magnetic_step_exact(self):
        assert scaling_ratio("M_step", 1, 1e-3) == 1e-6 / 25.0

    def test_electric_step_exact(self):
        assert scaling_ratio("E_step", 2, 1e-2) == 4 * 1e-4 / (3 * 5 * 7)
        assert_allclose(scaling_ratio("E_step", 2, 1e-2), 3.8095e-6, rtol=1e-4)

    def test_quadratic_scaling_law(self):
        # doubling ka multiplies every ratio by exactly 4
        for kind in RATIO_KINDS:
            for j in (1, 2, 5):
                ka = 1e-3
                assert scaling_ratio(kind, j, 2 * ka) == 4 * scaling_ratio(kind, j, ka)

    def test_decreasing_in_j(self):
        for kind in RATIO_KINDS:
            vals = [scaling_ratio(kind, j, 1e-3) for j in range(1, 8)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_consistent_with_bessel_amplitudes(self):
        # the magnetic mode amplitude goes as j_j(ka) and the electric one
        # as sqrt((j+1)/(2j+1)) j_{j-1}(ka); the probability ratio of the
        # squares matches the leading-order formula to O((ka)^2) relative
        ka = 1e-2
        for j in (1, 2, 3):
            num = spherical_bessel_j(j, ka) ** 2
            den = (j + 1) / (2 * j + 1) * spherical_bessel_j(j - 1, ka) ** 2
            exact = num / den
            approx = scaling_ratio("M_over_E", j, ka)
            assert abs(approx / exact - 1.0) < 10 * ka * ka

    def test_warns_for_large_ka(self):
        with pytest.warns(UserWarning) as record:
            scaling_ratio("M_over_E", 1, 0.2)
        assert record[0].filename == __file__

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_ratio("bogus", 1, 1e-3)
        with pytest.raises(ValueError):
            scaling_ratio("M_over_E", 0, 1e-3)
        with pytest.raises(ValueError):
            scaling_ratio("M_over_E", 1, 0.0)
        for ka in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="ka must be a finite number > 0"):
                scaling_ratio("M_over_E", 1, ka)
