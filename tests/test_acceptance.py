"""Acceptance criteria for the cavity-mode package.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS line (run with ``pytest -s`` to see them).  The full
battery runs in well under a minute.
"""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sphcavity.modes as md
from sphcavity.angular import helicity_apply, helicity_vsh, unit_radial, vsh, vsh_coupled
from sphcavity.entangle import (
    DegenerateStateError,
    build_state,
    enumerate_catalog,
    enumerate_partitions,
    factorization_check,
    partition_by_id,
)
from sphcavity.modes import find_roots, mode_spec
from sphcavity.rotations import rotate_cartesian, wigner_d_matrix
from sphcavity.selection_rules import scaling_ratio
from sphcavity.specfun import scalar_harmonic
from sphcavity.verify import (
    DEFAULT_TOLERANCES,
    ELECTRIC_REFERENCE_TABLE,
    MAGNETIC_REFERENCE_TABLE,
    MAGNETIC_TABLE_SKIPPED_ROOTS,
    check_bessel_integral,
    check_bessel_recurrences,
    check_dual_condition,
    check_mode_boundary,
    check_mode_energy,
    check_mode_equipartition,
    check_mode_tables,
    check_orthonormality,
    check_plane_wave_expansion,
    check_vsh_fourier,
)


def report(number, text):
    print(f"\nACCEPTANCE {number:02d}: PASS - {text}")


def test_criterion_01_magnetic_table_reproduction():
    md._ROOT_CACHE.clear()
    start = time.perf_counter()
    results = {j: find_roots("M", j, 5) for j in MAGNETIC_REFERENCE_TABLE}
    elapsed = time.perf_counter() - start
    worst = 0.0
    for j, row in MAGNETIC_REFERENCE_TABLE.items():
        for ref in row:
            worst = max(worst, min(abs(x - ref) / ref for x in results[j]))
    assert worst < 5e-5, worst
    # the published rows skip one true root each for j = 1, 2, 3; the
    # solver's sequence contains them
    for j, skipped in MAGNETIC_TABLE_SKIPPED_ROOTS.items():
        assert min(abs(x - skipped) / skipped for x in results[j]) < 5e-5
    # and the discrepancy is documented in the verification output
    _, details = check_mode_tables()
    assert "absent from the magnetic reference rows" in details
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    report(1, f"magnetic reference values reproduced to {worst:.1e} relative; "
              f"skipped roots found and documented; {elapsed * 1e3:.0f} ms")


def test_criterion_02_electric_table_reproduction():
    md._ROOT_CACHE.clear()
    start = time.perf_counter()
    worst = 0.0
    for j, row in ELECTRIC_REFERENCE_TABLE.items():
        roots = find_roots("E", j, 4)
        for n, ref in enumerate(row):
            worst = max(worst, abs(roots[n] - ref) / ref)
    elapsed = time.perf_counter() - start
    assert worst < 5e-5, worst
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    report(2, f"all 16 electric reference values match positionally "
              f"to {worst:.1e} relative; {elapsed * 1e3:.0f} ms")


def test_criterion_03_dual_frequency_conditions():
    min_dist = np.inf
    for j in range(1, 7):
        re = find_roots("E", j, 8)
        rm = find_roots("M", j, 8)
        min_dist = min(min_dist, min(abs(a - b) for a in re for b in rm))
        assert re[0] < rm[0], f"electric root must be lowest at j={j}"
    assert min_dist > 1e-6
    assert check_dual_condition()[0] < DEFAULT_TOLERANCES["dual_condition"]
    report(3, f"electric/magnetic root sets disjoint for j <= 6 "
              f"(min distance {min_dist:.3f}); electric always lower")


def test_criterion_04_energy_normalization_and_equipartition():
    start = time.perf_counter()
    energy, _ = check_mode_energy(j_max=3, n_max=3)
    assert energy < 1e-8, energy
    equi, _ = check_mode_equipartition(j_max=2, n_max=2)
    assert equi < 1e-6, equi
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    report(4, f"mode energies equal one quantum to {energy:.1e} "
              f"(j<=3, n<=3); equipartition to {equi:.1e} "
              f"(j<=2, n<=2); {elapsed:.1f} s")


def test_criterion_05_boundary_conditions():
    resid, _ = check_mode_boundary(j_max=3, n_max=2, n_dirs=50)
    assert resid < 1e-7, resid
    report(5, f"tangential E and normal B at the wall below "
              f"{resid:.1e} of the RMS fields for all j <= 3, n <= 2")


def test_criterion_06_angular_algebra_suite():
    worst_gram = 0.0
    for family in ("scalar", "coupled", "eml", "helicity"):
        resid, details = check_orthonormality(family, 4)
        assert resid < 1e-11, (resid, details)
        worst_gram = max(worst_gram, resid)
    rng = np.random.default_rng(6)
    th = rng.uniform(0.05, np.pi - 0.05, 100)
    ph = rng.uniform(0, 2 * np.pi, 100)
    # parity under (P V)(n) = -V(-n)
    worst_parity = 0.0
    for kind, parity in (("E", lambda j: (-1) ** j), ("M", lambda j: (-1) ** (j + 1)),
                         ("L", lambda j: (-1) ** j)):
        for j in range(1, 5):
            for m in (-j, 0, j):
                acted = -vsh(kind, j, m, np.pi - th, ph + np.pi)
                worst_parity = max(worst_parity, float(
                    np.abs(acted - parity(j) * vsh(kind, j, m, th, ph)).max()))
    assert worst_parity < 1e-12
    # helicity eigen-equation
    worst_hel = 0.0
    for j in range(1, 5):
        for lam in (+1, 0, -1):
            y = helicity_vsh(lam, j, min(j, 1), th, ph)
            worst_hel = max(worst_hel, float(
                np.abs(helicity_apply(th, ph, y) - lam * y).max()))
    assert worst_hel < 1e-12
    # linear-combination identities at 100 random directions
    worst_combo = 0.0
    for j in range(1, 5):
        a, b = math.sqrt(j / (2 * j + 1)), math.sqrt((j + 1) / (2 * j + 1))
        for m in range(-j, j + 1):
            yp = vsh_coupled(j, j + 1, m, th, ph)
            ym = vsh_coupled(j, j - 1, m, th, ph)
            worst_combo = max(worst_combo, float(np.abs(
                vsh("E", j, m, th, ph) - (a * yp + b * ym)).max()))
            worst_combo = max(worst_combo, float(np.abs(
                vsh("L", j, m, th, ph) - (a * ym - b * yp)).max()))
            worst_combo = max(worst_combo, float(np.abs(
                vsh("M", j, m, th, ph) - vsh_coupled(j, j, m, th, ph)).max()))
    assert worst_combo < 1e-12
    report(6, f"Gram residual {worst_gram:.1e} (<1e-11); parity {worst_parity:.1e}, "
              f"helicity {worst_hel:.1e}, linear combinations {worst_combo:.1e} (<1e-12)")


def test_criterion_07_rotation_golden_tests():
    golden = np.array([[0.5, 1 / math.sqrt(2), 0.5],
                       [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)],
                       [0.5, -1 / math.sqrt(2), 0.5]])
    d1 = wigner_d_matrix(1, 0.0, math.pi / 2, 0.0)
    golden_resid = float(np.abs(d1 - golden).max())
    assert golden_resid < 1e-15
    rotated = rotate_cartesian([1.0, 0.0, 0.0], 0.0, math.pi / 2, 0.0)
    worked = float(np.abs(rotated - np.array([0, 0, 1.0])).max())
    assert worked < 1e-12
    rng = np.random.default_rng(7)
    unit_resid = 0.0
    for j in range(0, 9):
        d = wigner_d_matrix(j, *rng.uniform(0, 2 * np.pi, 3))
        unit_resid = max(unit_resid, float(
            np.abs(d @ d.conj().T - np.eye(2 * j + 1)).max()))
    assert unit_resid < 1e-12
    report(7, f"quarter-turn matrix exact to {golden_resid:.1e}; worked vector "
              f"rotation to {worked:.1e}; unitarity j<=8 to {unit_resid:.1e}")


def test_criterion_08_identity_suite():
    pw, _ = check_plane_wave_expansion(2.0, 1.0, (0.7, 1.3), (2.1, 5.0), 20)
    assert pw < 1e-10, pw
    worst_fourier = 0.0
    for j, kind, kr in ((0, "scalar", 1.0), (1, "M", 2.5), (2, "E", 3.0),
                        (2, "coupled", 2.0)):
        resid, details = check_vsh_fourier(j, kind, kr)
        assert resid < 1e-9, (resid, details)
        worst_fourier = max(worst_fourier, resid)
    rec, _ = check_bessel_recurrences()
    assert rec < 1e-8, rec
    worst_integral = 0.0
    for nu, a, b in ((1.5, 1, 1), (1.5, 1, 2), (0.5, 1, 2)):
        resid, details = check_bessel_integral(nu, a, b)
        assert resid < 1e-9, (resid, details)
        worst_integral = max(worst_integral, resid)
    report(8, f"plane wave {pw:.1e} (<1e-10); transforms "
              f"{worst_fourier:.1e} (<1e-9); recurrences {rec:.1e} "
              f"(<1e-8); radial integral {worst_integral:.1e} (<1e-9)")


def test_criterion_09_entanglement_catalog():
    assert len(enumerate_partitions()) == 10
    catalog = enumerate_catalog()
    assert len(catalog) == 40
    values = {"tau": ("E", "M"), "omega": (1, 2), "j": (1, 2), "m": (0, 1)}
    worst = 0.0
    for entry in catalog:
        p = entry.partition
        alpha = tuple(tuple(values[f][i] for f in p.alpha_fields) for i in (0, 1))
        gamma = tuple(tuple(values[f][i] for f in p.gamma_fields) for i in (0, 1))
        state = build_state(p, entry.bell, alpha, gamma)
        resid = factorization_check(state, p, entry.bell, alpha, gamma)
        assert resid < 1e-14, entry.identifier
        worst = max(worst, resid)
        for (l1, l2) in state.amplitudes:
            assert state.amplitude(l1, l2) == state.amplitude(l2, l1)
    with pytest.raises(DegenerateStateError, match="zero"):
        build_state(partition_by_id("omega"), "psi-minus",
                    ((1,), (2,)), (("E", 1, 0), ("E", 1, 0)))
    report(9, f"10 partitions, 40 catalog entries; factorization residual "
              f"{worst:.1e} (<1e-14); degenerate construction reported as zero")


def test_criterion_10_scaling_ratios():
    assert scaling_ratio("M_over_E", 1, 1e-3) == 1e-6 / 6.0
    assert_allclose(scaling_ratio("M_over_E", 1, 1e-3), 1.6667e-7, rtol=1e-4)
    assert scaling_ratio("E_step", 2, 1e-2) == 4 * (1e-2 * 1e-2) / 105
    assert scaling_ratio("M_step", 1, 1e-3) == 4e-8
    for kind in ("M_over_E", "E_step", "M_step"):
        for j in (1, 2, 4):
            assert scaling_ratio(kind, j, 2e-3) == 4 * scaling_ratio(kind, j, 1e-3)
    report(10, "leading-order ratios reproduced exactly; (ka)^2 law verified "
               "by the factor-4 doubling test")
