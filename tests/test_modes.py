import dataclasses
import importlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

import sphcavity
import sphcavity.modes as md
from sphcavity.angular import unit_phi, unit_radial, unit_theta
from sphcavity.modes import (
    CavityConfig,
    ModeIndex,
    RootFindingError,
    boundary_residual,
    electric_root_equation,
    fibonacci_directions,
    find_roots,
    hamiltonian_energy,
    magnetic_root_equation,
    mode_field,
    mode_spec,
    normalization_constant,
    spectrum,
    spherical_bessel_zeros,
)
from sphcavity.specfun import bessel_j_halfint
from sphcavity.verify import (DEFAULT_TOLERANCES, ELECTRIC_REFERENCE_TABLE,
                              MAGNETIC_REFERENCE_TABLE)

from _oracles import energy_normalization_constant, fd_curl, scan_roots_bisection


class TestRootEquations:
    def test_magnetic_vanishes_at_reference_root(self):
        assert abs(magnetic_root_equation(1, 4.49341)) < 1e-5

    @pytest.mark.parametrize("equation", [magnetic_root_equation, electric_root_equation])
    def test_negative_argument_raises_before_any_warning(self, equation):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-negative"):
                equation(2, -1.0)

    def test_magnetic_positive_before_first_zero(self):
        assert magnetic_root_equation(1, math.pi / 2) > 0

    def test_magnetic_second_zero_j2(self):
        # root absent from the j=2 reference row, found by bisection
        root = scan_roots_bisection(lambda x: special.jv(2.5, x), 2)[1]
        assert abs(root - 9.09501) < 1e-4
        assert abs(magnetic_root_equation(2, root)) < 1e-10

    @pytest.mark.parametrize("j,x", [(1, 2.74371), (4, 6.06195), (1, 6.11676)])
    def test_electric_vanishes_at_reference_roots(self, j, x):
        assert abs(electric_root_equation(j, x)) < 1e-4

    def test_electric_equals_radial_derivative_condition(self):
        # electric condition <=> d/dx [x j_j(x)] = 0
        for j in (1, 2, 3):
            for x in find_roots("E", j, 3):
                h = 1e-6
                d = ((x + h) * special.spherical_jn(j, x + h)
                     - (x - h) * special.spherical_jn(j, x - h)) / (2 * h)
                assert abs(d) < 1e-8

    def test_j_validation(self):
        with pytest.raises(ValueError):
            magnetic_root_equation(0, 1.0)
        with pytest.raises(ValueError):
            electric_root_equation(0, 1.0)

    @pytest.mark.parametrize("call", [
        lambda: normalization_constant("M", 2.0, 5.76346),
        lambda: normalization_constant("E", 61, 70.0),
        lambda: normalization_constant("M", 60, 70.0),
        lambda: electric_root_equation(60, 70.0),
        lambda: electric_root_equation(2.0, 7.0),
        lambda: magnetic_root_equation(61, 70.0),
        lambda: magnetic_root_equation(2.0, 7.0),
    ])
    def test_j_outside_the_bessel_range_is_named(self, call):
        # each fails on j, not on a Bessel order or two_nu derived from it
        with pytest.raises(ValueError, match="j must be in"):
            call()

    def test_magnetic_edge_order(self):
        # J_{60+1/2} is the highest half-integer order the evaluator holds
        assert magnetic_root_equation(60, 70.0) == bessel_j_halfint(121, 70.0)


class TestFindRoots:
    def test_against_bisection_oracle(self):
        for j in range(1, 5):
            mag = scan_roots_bisection(lambda x: special.jv(j + 0.5, x), 6)
            assert_allclose(find_roots("M", j, 6), mag, atol=1e-9)
            ele = scan_roots_bisection(
                lambda x: j * special.jv(j + 1.5, x) - (j + 1) * special.jv(j - 0.5, x), 6)
            assert_allclose(find_roots("E", j, 6), ele, atol=1e-9)

    def test_magnetic_reference_membership(self):
        for j, row in MAGNETIC_REFERENCE_TABLE.items():
            roots = find_roots("M", j, 5)
            for ref in row:
                assert min(abs(r - ref) / ref for r in roots) < 5e-5

    def test_magnetic_complete_sequence_j1(self):
        # the reference row lists 17.2208 in the n=4 slot, but the solver's
        # sequence includes the true 4th zero 14.0662
        roots = find_roots("M", 1, 4)
        assert_allclose(roots, [4.49341, 7.72525, 10.9041, 14.0662], rtol=5e-5)

    def test_magnetic_j4_row(self):
        assert_allclose(find_roots("M", 4, 4),
                        [8.18256, 11.7049, 15.0397, 18.3013], rtol=5e-5)

    def test_electric_reference_positional(self):
        for j, row in ELECTRIC_REFERENCE_TABLE.items():
            assert_allclose(find_roots("E", j, 4), row, rtol=5e-5)

    def test_electric_j3_pair(self):
        assert_allclose(find_roots("E", 3, 2), [4.97342, 8.72175], rtol=5e-5)

    def test_strictly_increasing(self):
        for tau in ("E", "M"):
            roots = find_roots(tau, 2, 10)
            assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_interlacing_electric_magnetic(self):
        for j in (1, 2, 5):
            ele = find_roots("E", j, 6)
            mag = find_roots("M", j, 6)
            fences = [0.0] + mag
            for n, r in enumerate(ele):
                assert fences[n] < r < fences[n + 1]

    def test_asymptotic_spacing(self):
        # beyond the first several roots the spacing approaches pi
        roots = find_roots("M", 3, 12)
        gaps = np.diff(roots)[6:]
        assert np.all(np.abs(gaps - math.pi) < 0.05 * math.pi)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_roots("M", 0, 2)
        with pytest.raises(ValueError):
            find_roots("M", 1, 0)
        with pytest.raises(ValueError):
            find_roots("M", 1, 65)
        with pytest.raises(ValueError):
            find_roots("X", 1, 2)
        with pytest.raises(ValueError):
            find_roots("M", 60, 1)  # j_{j+1} would exceed the Bessel order limit
        with pytest.raises(ValueError):
            spherical_bessel_zeros(-1, 1)
        with pytest.raises(ValueError):
            spherical_bessel_zeros(60, 1)

    @pytest.mark.parametrize("func, args, name", [
        (find_roots, ("M", 2.0, 3), "j"),
        (find_roots, ("M", 3, 2.0), "count"),
        (spherical_bessel_zeros, (1.5, 2), "l"),
        (spherical_bessel_zeros, (2, np.float64(3)), "count"),
        (mode_spec, ("E", 2.0, 0, 1), "j"),
        (mode_spec, ("E", 2, 0, 1.0), "n"),
        (spectrum, (2.0, 2), "j_max"),
        (spectrum, (2, 2.0), "n_max"),
    ], ids=lambda v: v.__name__ if callable(v) else None)
    def test_non_integer_order_or_count_is_a_named_value_error(self, func, args, name):
        with pytest.raises(ValueError, match=rf"^{name} must be in \[\d+, \d+\] and an integer"):
            func(*args)

    def test_numpy_integers_are_accepted(self):
        assert find_roots("M", np.int64(3), np.int32(2)) == find_roots("M", 3, 2)
        assert spectrum(np.int64(2), np.int64(2)) == spectrum(2, 2)

    @pytest.mark.parametrize("tau", ["M", "E"])
    @pytest.mark.parametrize("j", [30, 45, 59])
    def test_large_j_against_scipy(self, tau, j):
        # the scan starts at x = j, where the root functions are far from
        # underflow; every root is checked with scipy's spherical_jn
        x = np.array(find_roots(tau, j, 64))
        jj = special.spherical_jn(j, x)
        if tau == "M":
            f, slope = jj, special.spherical_jn(j, x, derivative=True)
            oracle = scan_roots_bisection(lambda t: special.jv(j + 0.5, t), 64)
        else:
            # f = d/dx [x j_j], slope = (x j_j)'' = (j(j+1)/x^2 - 1) x j_j
            f = (j + 1) * jj - x * special.spherical_jn(j + 1, x)
            slope = (j * (j + 1) / x**2 - 1) * x * jj
            oracle = scan_roots_bisection(
                lambda t: j * special.jv(j + 1.5, t) - (j + 1) * special.jv(j - 0.5, t), 64)
        assert np.abs(f / (x * slope)).max() <= 1e-12
        assert_allclose(x, oracle, atol=1e-9)  # same ordinals, no root skipped


class TestRootCache:
    @pytest.fixture
    def cache(self, monkeypatch):
        fresh = {}
        monkeypatch.setattr(md, "_ROOT_CACHE", fresh)
        return fresh

    def test_first_request_fills_the_whole_entry(self, cache):
        # the first request solves all 64 roots; every later one, shorter or
        # longer, is served as a prefix of that one entry
        short = find_roots("M", 3, 12)
        full = cache[("M", 3)]
        assert cache == {("M", 3): full}
        assert len(full.roots) == len(full.dens) == md._MAX_COUNT
        assert tuple(short) == full.roots[:12]
        assert find_roots("M", 3, 5) == short[:5]
        longer = find_roots("M", 3, 20)
        assert cache == {("M", 3): full}
        assert tuple(longer) == full.roots[:20] and longer[:12] == short

    @pytest.mark.parametrize("tau", ["M", "E"])
    def test_fresh_solve_equals_cached_prefix_bitwise(self, cache, tau):
        # every point of the root functions is evaluated independently of
        # its batch, so a short solve reproduces the long one's prefix
        # exactly: the cached entry holds the roots a solve of n alone finds
        for j in (1, 2, 7, 20, 33, 46, 59):
            cache.clear()
            full = find_roots(tau, j, 64)
            dens = cache[(tau, j)].dens
            for n in (1, 2, 5, 13, 34, 63):
                cache.clear()
                assert find_roots(tau, j, n) == full[:n], (j, n)
                roots, alone_dens, _ = md._newton_roots([(tau, j)], n)
                assert roots[0].tolist() == full[:n], (j, n)
                assert alone_dens[0].tolist() == list(dens[:n]), (j, n)

    def test_electric_request_solves_only_its_own_lane(self, cache, monkeypatch):
        # an electric guard reads its own scan, so an E request makes a
        # one-lane pass and caches its entry alone; a corrupted magnetic
        # entry of the same j leaves its roots and denominators unchanged
        solve, passes = md._newton_roots, []

        def counted(lanes, count):
            passes.append(list(lanes))
            return solve(lanes, count)
        monkeypatch.setattr(md, "_newton_roots", counted)
        find_roots("E", 4, 6)
        assert passes == [[("E", 4)]]
        assert set(cache) == {("E", 4)}
        assert len(cache[("E", 4)].roots) == len(cache[("E", 4)].dens) == md._MAX_COUNT
        clean = find_roots("E", 2, 3), cache[("E", 2)]
        cache.clear()
        find_roots("M", 2, 1)
        corrupted = cache[("M", 2)] = cache[("M", 2)]._replace(
            roots=tuple(x - 2.0 for x in cache[("M", 2)].roots))
        assert (find_roots("E", 2, 3), cache[("E", 2)]) == clean
        assert cache[("M", 2)] is corrupted

    def test_batched_spectrum_equals_single_solves_bitwise(self, cache):
        # spectrum solves every j of one tau in one batch; each lane must
        # reproduce the solve of its (tau, j) alone, roots and norm_const
        specs = {(s.index.tau, s.index.j, s.index.n): s for s in spectrum(20, 32)}
        batched = dict(cache)
        for tau in ("M", "E"):
            for j in range(1, 21):
                cache.clear()
                roots = find_roots(tau, j, 32)
                assert batched[(tau, j)] == cache[(tau, j)], (tau, j)
                assert batched[(tau, j)].roots[:32] == tuple(roots), (tau, j)
                for n, x in enumerate(roots, start=1):
                    spec = specs[(tau, j, n)]
                    assert spec.x_root == x
                    assert spec.norm_const == normalization_constant(tau, j, x), (tau, j, n)
                    assert spec == mode_spec(tau, j, 0, n)

    def test_cached_norms_equal_the_closed_form_bitwise(self, cache):
        # an entry's denominators hold no cavity: filled under one cavity,
        # they give every cavity's constants bit for bit as
        # normalization_constant does at the root, over the whole range
        si = CavityConfig.si(0.01)
        for tau in ("M", "E"):
            for j in range(1, 60):
                mode_spec(tau, j, 0, 1, si)
        assert len(cache) == 2 * 59
        for config in (CavityConfig(), si, CavityConfig(radius=2.0)):
            for tau in ("M", "E"):
                for j in range(1, 60):
                    for n in range(1, md._MAX_COUNT + 1):
                        spec = mode_spec(tau, j, -j, n, config)
                        expected = normalization_constant(tau, j, spec.x_root, config)
                        assert spec.norm_const == expected, (config, tau, j, n)
            for spec in spectrum(20, 32, config):
                tau, j, _, n = spec.index
                assert spec.x_root == cache[(tau, j)].roots[n - 1]
                assert spec.norm_const == normalization_constant(tau, j, spec.x_root, config), (
                    config, spec.index)
        assert len(cache) == 2 * 59

    def test_warm_requests_evaluate_no_bessel_function(self, cache, monkeypatch):
        # a cold request makes one solver pass, whose last upward pair is at
        # its final roots, for their denominators; a warm spectrum, mode_spec
        # or hamiltonian_energy evaluates no Bessel function, in any cavity
        pair, solve = md._upward_pair, md._newton_roots
        # the points of each pair call outside a pass, and of each pass
        # its pair calls' points and its result
        outside, inside, passes = [], [], []

        def counted_pair(runs, x):
            (inside[-1] if inside else outside).append(x.copy())
            return pair(runs, x)

        def counted_solve(lanes, count):
            inside.append([])
            try:
                out = solve(lanes, count)
            finally:
                points = inside.pop()
            passes.append((points, out))
            return out

        def bessel(*args):
            outside.append(args)
            raise AssertionError("a Bessel function outside the solver pass")
        monkeypatch.setattr(md, "_upward_pair", counted_pair)
        monkeypatch.setattr(md, "_newton_roots", counted_solve)
        monkeypatch.setattr(md, "bessel_j_halfint", bessel)
        monkeypatch.setattr(md, "_bessel_orders", bessel)

        def work(request):
            outside.clear()
            passes.clear()
            request()
            for pairs, (roots, _, _) in passes:
                assert np.array_equal(np.sort(pairs[-1]), np.sort(roots.ravel()))
            return len(passes), len(outside)

        assert work(lambda: spectrum(20, 32)) == (1, 0)
        assert work(lambda: mode_spec("E", 21, 2, 5)) == (1, 0)
        assert work(lambda: find_roots("M", 30, 3)) == (1, 0)
        assert work(lambda: spectrum(20, 32)) == (0, 0)
        assert work(lambda: spectrum(20, 32, CavityConfig.si(0.01))) == (0, 0)
        assert work(lambda: mode_spec("E", 20, -3, 64)) == (0, 0)
        assert work(lambda: mode_spec("M", 30, 1, 64, CavityConfig(radius=2.0))) == (0, 0)
        assert work(lambda: hamiltonian_energy({("E", 3, 1, 2): 2, ("M", 20, 0, 32): 1,
                                                ModeIndex("E", 21, -1, 64): 1})) == (0, 0)

    def test_partly_filled_cache(self, cache):
        # cached entries serve prefixes and the (tau, j) not cached are
        # solved, exactly as one find_roots call per (tau, j): every entry
        # holds all 64 roots, whichever call of whatever length made it
        keys = [(tau, j) for tau in ("M", "E") for j in range(1, 8)]
        expected = {}
        for key in keys:
            cache.clear()
            find_roots(*key, 64)
            expected[key] = cache[key]
        cache.clear()
        fresh = spectrum(7, 12)
        assert cache == expected
        cache.clear()
        find_roots("M", 3, 40)
        find_roots("E", 3, 2)
        find_roots("E", 5, 30)
        find_roots("M", 6, 1)
        assert cache == {key: expected[key] for key in [("M", 3), ("E", 3), ("E", 5), ("M", 6)]}
        assert spectrum(7, 12) == fresh
        assert cache == expected

    def test_electric_table_ignores_cached_magnetic_entries(self, cache):
        # an electric-only table solves and caches only electric lanes, and
        # gives the same modes whatever the cached magnetic entries hold
        config = CavityConfig()
        clean = md._spectrum(3, 3, config, ("E",))
        assert set(cache) == {("E", j) for j in (1, 2, 3)}
        cache.clear()
        find_roots("M", 2, 1)
        cache[("M", 2)] = cache[("M", 2)]._replace(
            roots=tuple(x - 2.0 for x in cache[("M", 2)].roots))
        assert md._spectrum(3, 3, config, ("E",)) == clean
        assert [s for s in spectrum(3, 3) if s.index.tau == "E"] == clean

    def test_bessel_zeros_are_the_cached_guarded_magnetic_roots(self, cache, monkeypatch):
        # served from and kept in find_roots' cache, and checked by its guard
        zeros = spherical_bessel_zeros(4, 6)
        assert set(cache) == {("M", 4)} and len(cache[("M", 4)].roots) == md._MAX_COUNT
        assert cache[("M", 4)].roots[:6] == tuple(zeros)
        assert find_roots("M", 4, 3) == zeros[:3]
        assert spherical_bessel_zeros(4, 2) == zeros[:2]
        solve = md._newton_roots

        def skip_second(lanes, count):
            roots, dens, zeros_below = solve(lanes, count + 1)
            return np.delete(roots, 1, axis=1), np.delete(dens, 1, axis=1), zeros_below
        monkeypatch.setattr(md, "_newton_roots", skip_second)
        with pytest.raises(RootFindingError, match="interlacing violated for M j=5"):
            spherical_bessel_zeros(5, 4)
        assert ("M", 5) not in cache

    def test_magnetic_guard_catches_a_skipped_root(self, cache, monkeypatch):
        # a solver that skips the second root of every lane it is asked for
        solve = md._newton_roots

        def skip_second(lanes, count):
            roots, dens, zeros_below = solve(lanes, count + 1)
            return np.delete(roots, 1, axis=1), np.delete(dens, 1, axis=1), zeros_below
        monkeypatch.setattr(md, "_newton_roots", skip_second)
        with pytest.raises(RootFindingError, match="interlacing violated for M j=3"):
            find_roots("M", 3, 5)
        with pytest.raises(RootFindingError, match="interlacing violated for E j=3"):
            find_roots("E", 3, 5)
        with pytest.raises(RootFindingError, match="interlacing violated for E j=7"):
            mode_spec("E", 7, 0, 1)
        with pytest.raises(RootFindingError, match="interlacing violated for M j=1"):
            spectrum(4, 6)
        assert cache == {}

    def test_one_scan_brackets_every_root(self, cache):
        # over the advertised range the count-th root lies at least one grid
        # step before the end of the single bracketing scan (_scan_grid)
        for tau in ("M", "E"):
            for j in range(1, 60):
                end = md._scan_grid(j, 64)[-1]
                assert find_roots(tau, j, 64)[-1] <= end - md._SCAN_STEP, (tau, j)
        for l in range(60):
            end = md._scan_grid(max(l, md._SCAN_STEP), 64)[-1]
            assert spherical_bessel_zeros(l, 64)[-1] <= end - md._SCAN_STEP, l

    def test_no_bracket_holds_a_companion_zero(self, cache):
        # the interlacing guard counts its companion's sign changes through
        # the last bracket, which is the count below the last root only if no
        # bracket holds a companion zero: within 2 _SCAN_STEP of every root
        # over the advertised range, j_{l+1} (M) or j_l (E) keeps one sign
        offsets = np.linspace(-2.0, 2.0, 9) * md._SCAN_STEP
        lanes = [("M", l) for l in range(60)] + [("E", j) for j in range(1, 60)]
        for tau, l in lanes:
            roots = np.array(md._roots((tau,), [l])[tau][0].roots)
            companion = special.spherical_jn(l + 1 if tau == "M" else l, roots[:, None] + offsets)
            signs = np.signbit(companion)
            assert (signs == signs[:, :1]).all() and np.all(companion != 0), (tau, l)

    def test_unbracketed_order_raises_naming_it(self, cache, monkeypatch):
        # a root function with no sign change at order 7, alone or in a batch
        bessel_zero = md._bessel_zero

        def flat_at_7(l, x, jl, jl1):
            f, df = bessel_zero(l, x, jl, jl1)
            return np.where(np.asarray(l) == 7, 1.0, f), df
        monkeypatch.setattr(md, "_bessel_zero", flat_at_7)
        with pytest.raises(RootFindingError, match="root 1 of order 7 below"):
            spherical_bessel_zeros(7, 3)
        with pytest.raises(RootFindingError, match="root 1 of order 7 below"):
            spectrum(8, 2)
        assert cache == {}

    @pytest.mark.parametrize("count", [1, 2, 7, 32])
    def test_lanes_in_any_order_equal_their_solves_alone(self, count):
        # the pass refines its lanes in order of l, some orders shared by
        # both taus; each lane's roots, denominators and companion count come
        # back in the order asked, bit for bit those of the lane alone, and
        # every lane's companion changes sign count - 1 times below its last
        # root: j_{l+1} for M, j_l for E
        lanes = [("E", 7), ("M", 59), ("M", 3), ("E", 3), ("M", 7)]
        roots, dens, zeros_below = md._newton_roots(lanes, count)
        assert roots.shape == dens.shape == (len(lanes), count)
        assert zeros_below.shape == (len(lanes),)
        for lane, r, d, z in zip(lanes, roots, dens, zeros_below):
            alone, alone_dens, alone_below = md._newton_roots([lane], count)
            assert r.tobytes() == alone[0].tobytes(), lane
            assert d.tobytes() == alone_dens[0].tobytes(), lane
            assert z == alone_below[0], lane
            assert z == count - 1, lane

    def test_spectrum_makes_one_solver_pass(self, cache, monkeypatch):
        # both types of every j share one scan and one Newton batch
        solve, passes = md._newton_roots, []

        def counted(*args):
            passes.append(args)
            return solve(*args)
        monkeypatch.setattr(md, "_newton_roots", counted)
        spectrum(20, 32)
        assert len(passes) == 1
        assert sorted(passes[0][0]) == sorted((tau, j) for tau in "EM" for j in range(1, 21))
        assert passes[0][1] == md._MAX_COUNT
        spectrum(20, 32)
        assert len(passes) == 1

    def test_each_multipole_is_solved_once(self, cache, monkeypatch):
        # the first request for a (tau, j) solves all 64 roots, so no later
        # request of any length, through any entry point, solves it again
        solve, passes = md._newton_roots, []

        def counted(lanes, count):
            passes.append((sorted(lanes), count))
            return solve(lanes, count)
        monkeypatch.setattr(md, "_newton_roots", counted)
        find_roots("M", 3, 2)
        find_roots("M", 3, 40)
        mode_spec("M", 3, 0, 64)
        spherical_bessel_zeros(3, 10)
        assert passes == [([("M", 3)], md._MAX_COUNT)]
        find_roots("E", 3, 1)
        spectrum(3, 10)
        assert passes == [([("M", 3)], md._MAX_COUNT), ([("E", 3)], md._MAX_COUNT),
                          ([("E", 1), ("E", 2), ("M", 1), ("M", 2)], md._MAX_COUNT)]

    def test_magnetic_condition_planted_as_electric_trips_the_guard(self, cache, monkeypatch):
        # electric lanes solving the magnetic condition bracket the zeros of
        # j_j, their companion, so every bracket holds one companion zero
        monkeypatch.setattr(md, "_electric", md._bessel_zero)
        with pytest.raises(RootFindingError, match="interlacing violated for E"):
            spectrum(3, 3)
        with pytest.raises(RootFindingError, match="interlacing violated for E"):
            find_roots("E", 5, 4)


def _fresh_python(code: str) -> str:
    src = str(Path(sphcavity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


def test_package_reexports_every_module_all():
    # each module's __all__ is the one list of its public names
    seen = set()
    for name in ("angular", "entangle", "modes", "rotations", "selection_rules",
                 "specfun", "verify"):
        module = importlib.import_module(f"sphcavity.{name}")
        assert not seen & set(module.__all__), name
        seen |= set(module.__all__)
        for public in module.__all__:
            assert getattr(sphcavity, public) is getattr(module, public), public


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, sphcavity; print('scipy.optimize' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_oracles_load_no_sphcavity():
    # the oracles must stay independent of the code paths they check
    tests = str(Path(__file__).resolve().parent)
    code = (f"import sys; sys.path.insert(0, {tests!r}); import _oracles; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sphcavity'))")
    assert _fresh_python(code).strip() == "[]"


def test_suite_run_leaves_numpy_random_unloaded():
    # the sampling checks draw from random.Random, so a fresh suite run
    # never pays for numpy's lazy numpy.random import
    code = ("import sys; from sphcavity.verify import run_suite; run_suite(); "
            "print('numpy.random' in sys.modules)")
    assert _fresh_python(code).strip() == "False"


def test_import_with_cli_loads_no_scipy():
    # importing any scipy module would dominate the start-up of a CLI command
    code = ("import sys, sphcavity, sphcavity.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code).strip() == "[]"


class TestNormalization:
    def test_magnetic_reference_value(self):
        x = find_roots("M", 1, 1)[0]
        c = normalization_constant("M", 1, x)
        assert_allclose(c, 4.343, rtol=2e-4)
        assert_allclose(c, energy_normalization_constant("M", 1, x), rtol=1e-11)

    def test_magnetic_energy_oracle(self):
        for j in (1, 2, 3):
            for n in (1, 2):
                x = find_roots("M", j, n)[n - 1]
                assert_allclose(normalization_constant("M", j, x),
                                energy_normalization_constant("M", j, x), rtol=1e-11)

    def test_electric_energy_oracle(self):
        for j in (1, 2, 3):
            for n in (1, 2):
                x = find_roots("E", j, n)[n - 1]
                assert_allclose(normalization_constant("E", j, x),
                                energy_normalization_constant("E", j, x), rtol=1e-11)

    def test_radius_scaling(self):
        x = find_roots("M", 1, 1)[0]
        c1 = normalization_constant("M", 1, x, CavityConfig(radius=1.0))
        c2 = normalization_constant("M", 1, x, CavityConfig(radius=2.0))
        assert_allclose(c2, c1 / 2.0, rtol=1e-14)

    def test_rejects_non_root(self):
        with pytest.raises(ValueError):
            normalization_constant("M", 1, 5.0)

    @pytest.mark.parametrize("tau", ["M", "E"])
    def test_root_test_agrees_with_the_public_equations(self, tau):
        # normalization_constant tests the condition on its own upward pair:
        # it accepts x exactly where x lies above every root and the public
        # equation is within 1e-4 of zero, on a grid up to x = 290 and across
        # the accepting band around each of the 64 roots
        equation = magnetic_root_equation if tau == "M" else electric_root_equation
        for j in (1, 5, 20, 40, 59):
            roots = np.array(find_roots(tau, j, 64))
            h = 1e-6
            width = 2e-4 * h / np.abs(equation(j, roots + h) - equation(j, roots - h))
            x = np.concatenate([np.arange(j + 0.01, 290.0, 0.25),
                                (roots[:, None] + np.linspace(-2.9, 2.9, 15) * width[:, None]).ravel()])
            above = x > j if tau == "M" else x * x > j * (j + 1)
            accept = above & (np.abs(equation(j, x)) <= 1e-4)
            assert 0 < np.count_nonzero(accept) < len(x)
            for xi, ok in zip(x.tolist(), accept.tolist()):
                try:
                    normalization_constant(tau, j, xi)
                except ValueError:
                    assert not ok, (tau, j, xi)
                else:
                    assert ok, (tau, j, xi)

    def test_rejects_points_below_every_root(self):
        # J_{j+1/2}(x) ~ x^{j+1/2}: the residual test alone passes a small x
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for tau, j, x in (("M", 5, 0.5), ("E", 5, 0.3)):
                with pytest.raises(ValueError, match="below every"):
                    normalization_constant(tau, j, x)
            # the 6-digit reference roots are still accepted
            for tau, x in (("M", 4.49341), ("E", 2.74371)):
                assert_allclose(normalization_constant(tau, 1, x),
                                normalization_constant(tau, 1, find_roots(tau, 1, 1)[0]),
                                rtol=1e-4)


class TestModeField:
    def test_magnetic_vanishes_at_wall(self):
        spec = mode_spec("M", 1, 0, 1)
        th, ph = fibonacci_directions(10)
        sample = mode_field(spec, np.full_like(th, 1.0), th, ph)
        assert np.abs(sample.A).max() < 1e-9 * spec.norm_const

    def test_electric_tangential_vanishes_at_wall(self):
        from sphcavity.angular import unit_phi, unit_radial, unit_theta

        spec = mode_spec("E", 1, 1, 1)
        th, ph = fibonacci_directions(20)
        sample = mode_field(spec, np.full_like(th, 1.0), th, ph)
        e_t = np.abs((sample.A * unit_theta(th, ph)).sum(axis=0))
        e_p = np.abs((sample.A * unit_phi(th, ph)).sum(axis=0))
        radial = np.abs((sample.A * unit_radial(th, ph)).sum(axis=0))
        assert max(e_t.max(), e_p.max()) < 1e-8 * spec.norm_const
        assert radial.max() > 1e-3 * spec.norm_const

    def test_regular_at_origin_for_higher_j(self):
        spec = mode_spec("M", 2, 0, 1)
        sample = mode_field(spec, 0.0, 0.3, 0.4)
        assert np.abs(sample.A).max() < 1e-300
        spec_e = mode_spec("E", 2, 1, 1)
        sample_e = mode_field(spec_e, 0.0, 0.3, 0.4)
        assert np.abs(sample_e.A).max() < 1e-300

    def test_electric_finite_at_origin_j1(self):
        spec = mode_spec("E", 1, 0, 1)
        sample = mode_field(spec, 0.0, 0.3, 0.4)
        assert np.isfinite(sample.A).all()
        assert np.abs(sample.A).max() > 1e-3

    def test_e_field_proportional_to_potential(self, rng):
        spec = mode_spec("E", 2, 1, 1)
        r = rng.uniform(0.1, 0.9, 5)
        th = rng.uniform(0.2, np.pi - 0.2, 5)
        ph = rng.uniform(0, 2 * np.pi, 5)
        sample = mode_field(spec, r, th, ph)
        assert np.abs(sample.E - 1j * spec.omega * sample.A).max() < 1e-14

    def test_out_of_range_radius(self):
        spec = mode_spec("M", 1, 0, 1)
        with pytest.raises(ValueError):
            mode_field(spec, 1.5, 0.3, 0.4)
        with pytest.raises(ValueError):
            mode_field(spec, -0.1, 0.3, 0.4)


def _to_spherical(pos):
    r = np.sqrt((pos * pos).sum(axis=0))
    th = np.arccos(np.clip(pos[2] / r, -1.0, 1.0))
    ph = np.mod(np.arctan2(pos[1], pos[0]), 2 * np.pi)
    return r, th, ph


def _peak_b(spec):
    th, ph = fibonacci_directions(96)
    b = mode_field(spec, np.linspace(0.0, 1.0, 41)[:, None], th, ph).B
    return float(np.sqrt((np.abs(b) ** 2).sum(axis=0)).max())


class TestClosedFormCurl:
    @pytest.mark.parametrize("tau", ["M", "E"])
    @pytest.mark.parametrize("j", [1, 2, 5, 8])
    def test_b_matches_finite_difference_curl(self, tau, j):
        rng = np.random.default_rng(100 * j + (tau == "E"))
        r = rng.uniform(0.01, 0.99, 60)
        th = np.arccos(rng.uniform(-1.0, 1.0, 60))
        ph = rng.uniform(0.0, 2 * np.pi, 60)
        pos = r * np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        for n in (1, 2, 4):
            for m in sorted({-j, 0, 1, j}):
                spec = mode_spec(tau, j, m, n)
                b_fd = fd_curl(lambda p: mode_field(spec, *_to_spherical(p)).A, pos, 1e-4)
                err = np.abs(mode_field(spec, r, th, ph).B - b_fd).max()
                assert err <= 1e-10 * _peak_b(spec), (spec.index, err)

    @pytest.mark.parametrize("tau,j,m", [("M", 1, 0), ("M", 3, -2), ("E", 1, 1), ("E", 4, 3)])
    def test_separable_grid_equals_broadcast(self, tau, j, m):
        spec = mode_spec(tau, j, m, 2)
        r = np.linspace(0.0, 1.0, 7)[:, None, None]
        tg, pg = np.meshgrid(np.linspace(0.0, np.pi, 5),
                             np.linspace(0.0, 2 * np.pi, 6, endpoint=False), indexing="ij")
        sep = [f[0] for f in md._fields([spec], r[None], tg[None], pg[None])]
        rf, tf, pf = np.broadcast_arrays(r, tg[None], pg[None])
        full = [f[0] for f in md._fields([spec], rf[None], tf, pf)]
        for got, want in zip(sep, full):
            assert got.shape == want.shape == (3, 7, 5, 6)
            assert np.array_equal(got, want)


class TestBoundary:
    # the spectrum edge (20, 32) and the find_roots edge (59, 64), at m = j;
    # a mode resolved in a radius-2 and in an SI cavity is checked at its
    # own wall, with its own constants
    @pytest.mark.parametrize("tau,j,m,n,config", [
        pytest.param("M", 1, 0, 1, CavityConfig(), id="M-1"),
        pytest.param("E", 2, 0, 1, CavityConfig(), id="E-2"),
        pytest.param("E", 20, 20, 32, CavityConfig(), id="E-20-20-32"),
        pytest.param("M", 20, 20, 32, CavityConfig(), id="M-20-20-32"),
        pytest.param("E", 59, 59, 64, CavityConfig(), id="E-59-59-64"),
        pytest.param("M", 59, 59, 64, CavityConfig(), id="M-59-59-64"),
        pytest.param("E", 2, 1, 1, CavityConfig(radius=2.0), id="E-2-1-1-R2"),
        pytest.param("M", 1, 0, 1, CavityConfig.si(0.01), id="M-1-0-1-SI")])
    def test_modes_pass(self, tau, j, m, n, config):
        spec = mode_spec(tau, j, m, n, config)
        resid = boundary_residual(spec, n_dirs=50)
        assert resid < DEFAULT_TOLERANCES["mode_boundary"], resid
        assert resid < 1e-13, resid

    def test_perturbed_root_fails(self):
        good = mode_spec("E", 1, 0, 1)
        bad = dataclasses.replace(good, x_root=good.x_root + 1e-3)
        resid = boundary_residual(bad, n_dirs=50)
        assert resid >= DEFAULT_TOLERANCES["mode_boundary"]
        assert resid > 1e-5

    @pytest.mark.parametrize("tau,j,m,config", [
        pytest.param("E", 1, 0, CavityConfig(), id="E-1-0"),
        pytest.param("M", 2, 1, CavityConfig.si(0.01), id="M-2-1-SI")])
    def test_residual_is_relative_to_rms_fields(self, tau, j, m, config):
        # off its root the wall fields do not vanish: the residual must be the
        # wall maximum from mode_field over E_rms = sqrt(2 hbar omega / (eps0 V))
        # (tangential E) and over E_rms / c (normal B)
        good = mode_spec(tau, j, m, 1, config)
        bad = dataclasses.replace(good, x_root=good.x_root + 1e-3)
        th, ph = fibonacci_directions(50)
        wall = mode_field(bad, config.radius, th, ph)
        volume = 4.0 / 3.0 * math.pi * config.radius**3
        e_rms = math.sqrt(2.0 * config.hbar * bad.omega / (config.epsilon0 * volume))
        want = max(np.abs((wall.E * unit_theta(th, ph)).sum(axis=0)).max() / e_rms,
                   np.abs((wall.E * unit_phi(th, ph)).sum(axis=0)).max() / e_rms,
                   np.abs((wall.B * unit_radial(th, ph)).sum(axis=0)).max()
                   * config.wave_speed / e_rms)
        assert want > 1e-5
        assert_allclose(boundary_residual(bad, n_dirs=50), want, rtol=1e-12)

    def test_no_directions_rejected(self):
        with pytest.raises(ValueError, match=r"n_dirs must be in \[1, inf\] and an integer"):
            boundary_residual(mode_spec("E", 1, 0, 1), n_dirs=0)

    def test_batch_equals_single_bitwise(self):
        # one call over both tau, j <= 3, m != 0, and a unit and an SI cavity,
        # so each (j, m) group mixes tau and cavities; one mode is read at a
        # root off by 1e-3, so its wall is not where its field vanishes
        specs = [mode_spec(tau, j, m, n, config)
                 for config in (CavityConfig(), CavityConfig.si(0.01))
                 for tau in ("E", "M") for j in (1, 2, 3) for m in (-j, 1) for n in (1, 2)]
        bad = dataclasses.replace(specs[5], x_root=specs[5].x_root + 1e-3)
        specs.insert(3, bad)
        batch = md._boundary_residuals(specs, 50)
        single = np.array([boundary_residual(spec, n_dirs=50) for spec in specs])
        assert batch.shape == (len(specs),)
        assert np.array_equal(batch, single)
        assert batch[3] > 1e-5
        assert np.delete(batch, 3).max() < 1e-13

    @pytest.mark.parametrize("j,m", [(1, -1), (3, 2)])
    def test_field_group_equals_single_bitwise(self, j, m):
        # one _fields call over a (j, m) group mixing tau and a unit and an SI
        # cavity, each mode at radii of its own from r = 0 to its wall, on
        # directions that hold both poles; A and B of each mode must have the
        # bits of its own call
        specs = [mode_spec(tau, j, m, n, config)
                 for config in (CavityConfig(), CavityConfig.si(0.01))
                 for tau in ("E", "M") for n in (1, 3)]
        frac = np.array([0.0, 1e-3, 0.3, 0.7, 1.0])
        r = np.array([s.config.radius for s in specs])[:, None, None, None] * frac[:, None, None]
        th = np.array([0.0, 0.4, np.pi / 2, 2.5, np.pi])[:, None]
        ph = np.array([0.0, 1.0, 3.0, 5.5])
        group = md._fields(specs, r, th, ph)
        for i, spec in enumerate(specs):
            single = md._fields([spec], r[i:i + 1], th, ph)
            for got, want in zip(group, single):
                assert got.shape == (len(specs), 3, 5, 5, 4)
                assert got[i].tobytes() == want[0].tobytes(), spec.index


class TestSpectrum:
    def test_lowest_mode_is_electric_dipole(self):
        specs = spectrum(1, 1)
        assert specs[0].index.tau == "E"
        assert specs[0].index.j == 1
        assert_allclose(specs[0].x_root, 2.74371, rtol=5e-5)

    def test_counting(self):
        specs = spectrum(4, 4)
        assert len(specs) == 2 * 4 * 4

    def test_degeneracy(self):
        specs = spectrum(3, 1)
        by_j = {s.index.j: s.degeneracy for s in specs}
        assert by_j[3] == 7

    def test_sorted_by_frequency(self):
        specs = spectrum(3, 3)
        omegas = [s.omega for s in specs]
        assert omegas == sorted(omegas)

    def test_lowest_overall(self):
        specs = spectrum(6, 4)
        assert specs[0].index == ModeIndex("E", 1, 0, 1)

    def test_frequency_scales_with_radius(self):
        s1 = spectrum(1, 1, CavityConfig(radius=1.0))[0]
        s2 = spectrum(1, 1, CavityConfig(radius=2.0))[0]
        assert_allclose(s2.omega, s1.omega / 2.0, rtol=1e-14)
        assert_allclose(s2.x_root, s1.x_root, rtol=0)

    def test_advertised_corner(self):
        specs = spectrum(20, 32)
        assert len(specs) == 2 * 20 * 32
        corner = {s.index.tau: s.x_root for s in specs
                  if s.index.j == 20 and s.index.n == 32}
        mag = scan_roots_bisection(lambda x: special.jv(20.5, x), 32)[-1]
        ele = scan_roots_bisection(
            lambda x: 20 * special.jv(21.5, x) - 21 * special.jv(19.5, x), 32)[-1]
        assert_allclose(corner["M"], mag, rtol=1e-12)
        assert_allclose(corner["E"], ele, rtol=1e-12)

    def test_bounds(self):
        with pytest.raises(ValueError):
            spectrum(0, 1)
        with pytest.raises(ValueError):
            spectrum(21, 1)
        with pytest.raises(ValueError):
            spectrum(1, 33)


class TestHamiltonian:
    def test_empty(self):
        result = hamiltonian_energy({})
        assert result.energy == 0.0
        assert result.photon_count == 0

    def test_single_electric_photon(self):
        result = hamiltonian_energy({ModeIndex("E", 1, 0, 1): 1})
        assert_allclose(result.energy, 2.74371, rtol=5e-5)
        assert result.photon_count == 1

    def test_two_magnetic_photons(self):
        result = hamiltonian_energy({("M", 1, 1, 1): 2})
        assert_allclose(result.energy, 2 * 4.49341, rtol=5e-5)
        assert result.photon_count == 2

    def test_zero_point(self):
        idx = ModeIndex("E", 1, 0, 1)
        off = hamiltonian_energy({idx: 0})
        on = hamiltonian_energy({idx: 0}, include_zero_point=True)
        assert off.energy == 0.0
        assert_allclose(on.energy, 0.5 * 2.74371, rtol=5e-5)

    def test_mixed_modes_additive(self):
        occ = {ModeIndex("E", 1, 0, 1): 1, ModeIndex("M", 1, -1, 1): 1}
        result = hamiltonian_energy(occ)
        assert_allclose(result.energy, 2.74371 + 4.49341, rtol=5e-5)
        assert result.photon_count == 2

    def test_si_units(self):
        config = CavityConfig.si(0.01)  # 1 cm cavity
        result = hamiltonian_energy({ModeIndex("E", 1, 0, 1): 1}, config=config)
        expected = 1.054571817e-34 * 299792458.0 * 2.74371 / 0.01
        assert_allclose(result.energy, expected, rtol=1e-4)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            hamiltonian_energy({("E", 0, 0, 1): 1})
        with pytest.raises(ValueError):
            hamiltonian_energy({("E", 1, 2, 1): 1})
        with pytest.raises(ValueError):
            hamiltonian_energy({("E", 1, 0, 1): -1})
        with pytest.raises(ValueError, match=r"occupation must be in \[0, inf\] and an integer"):
            hamiltonian_energy({("E", 1, 0, 1): 1.5})
        with pytest.raises(ValueError, match=r"occupation must be in \[0, inf\] and an integer"):
            hamiltonian_energy({("E", 1, 0, 1): 1.0})

    def test_invalid_j_is_named_before_m(self):
        # |m| <= j means nothing for a j out of range
        for j in (-1, 60):
            with pytest.raises(ValueError, match="j must be in"):
                hamiltonian_energy({("E", j, 0, 1): 1})


class TestModeSpecInvariants:
    def test_root_equation_residual_at_roots(self):
        for tau, eq in (("M", magnetic_root_equation), ("E", electric_root_equation)):
            for j in (1, 3):
                for n in (1, 3):
                    spec = mode_spec(tau, j, 0, n)
                    assert abs(eq(j, spec.x_root)) < 1e-11

    def test_m_degeneracy_structural(self):
        # identical root and normalization for every m at fixed (tau, j, n)
        specs = [mode_spec("E", 2, m, 1) for m in range(-2, 3)]
        assert len({s.x_root for s in specs}) == 1
        assert len({s.norm_const for s in specs}) == 1


class TestConfig:
    def test_positivity(self):
        with pytest.raises(ValueError):
            CavityConfig(radius=-1.0)
        with pytest.raises(ValueError):
            CavityConfig(hbar=0.0)

    @pytest.mark.parametrize("name", ["radius", "wave_speed", "hbar", "epsilon0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_finite_and_positive(self, name, value):
        # a NaN radius gave NaN frequencies and an infinite one omega = 0
        with pytest.raises(ValueError, match=f"^{name} must be finite and strictly positive"):
            CavityConfig(**{name: value})

    def test_roots_independent_of_config(self):
        # dimensionless roots never depend on the physical constants
        s_dimless = mode_spec("M", 1, 0, 1, CavityConfig())
        s_si = mode_spec("M", 1, 0, 1, CavityConfig.si(0.5))
        assert s_dimless.x_root == s_si.x_root
