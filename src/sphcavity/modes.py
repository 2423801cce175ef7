"""The cavity eigenproblem for a vacuum sphere bounded by a perfect conductor.

Root conditions for the allowed magnetic and electric multipole
frequencies, the discrete spectrum, mode normalization constants fixing
the single-photon energy, vector-potential / E / B field evaluation,
boundary-condition residuals, and occupation-number energy bookkeeping.

A mode's A and B = curl A are both sums of the terms j_l(kr) Y_{j,l,m}
with l = j-1, j, j+1, so B is evaluated in closed form, not numerically.

There are two distinct frequency conditions (x = omega R / c):

    magnetic (tau = "M"):  J_{j+1/2}(x) = 0
    electric (tau = "E"):  j J_{j+3/2}(x) - (j+1) J_{j-1/2}(x) = 0

The electric condition is equivalent to d/dx [x j_j(x)] = 0, so electric
and magnetic roots strictly interlace and the two sets never coincide.
All root finding happens in the dimensionless variable x.  A ModeSpec
carries the CavityConfig (radius, constants) it was resolved in; fields,
boundary checks and energies read the cavity from there.

Roots come from one vectorized solver that takes a set of (tau, j) of
both types in a single pass.  Every root lies above x = j, and both
conditions read the pair (j_j, j_{j+1}) from one upward Bessel recurrence
(specfun._upward_pair) over lanes sorted by j, one run per j, so that one
(tau, j) and many take the same path.  One array scan from x = j per j
brackets the zeros of j_j (magnetic) and of (x j_j)' (electric) from the
same pair values; one safeguarded Newton loop with closed-form
derivatives then refines every bracket of every (tau, j) at once.  A
root is bit-identical whatever other (tau, j) share its pass.  spectrum
solves the (tau, j) not yet cached in one pass, and find_roots and
mode_spec the one (tau, j) asked for, which no other type's roots enter.
One interlacing guard, read from the same scan, checks every (tau, j):
its companion, j_{j+1} for M and j_j for E, has exactly one zero between
consecutive roots and none below the first.

Results are cached per (tau, j), and the cache holds complete entries:
the first request for a (tau, j) solves all 64 roots, the whole
advertised range, and every request is served as a prefix of the entry,
so each (tau, j) is solved once per process.  A cold solve costs about
the same for 3 roots as for 64 (1.1-1.2 times, single CPU core, j = 5 to
59), since per-call overhead dominates, not per-root work.

An entry also holds, for each root, the denominator of its normalization
constant, which depends on the root alone and on no cavity: the solver pass
takes it from one more upward pair at the final roots of all its lanes.
spectrum and mode_spec scale it by the prefactor of the cavity asked for,
so a request served from the cache evaluates no Bessel function.  Warm, on
one CPU core (Python 3.11, median of 2000 calls), mode_spec takes about
8 us, spectrum(2, 4) 50 us, spectrum(2, 32) 185 us and spectrum(20, 32)
1.7 ms; spectrum spends most of it building the ModeSpec objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .angular import _coupled_stack, unit_phi, unit_radial, unit_theta
from .specfun import (MAX_BESSEL_ORDER, _bessel_orders, _check_int, _Harmonics, _upward_pair,
                      bessel_j_halfint)

__all__ = [
    "TAU_ELECTRIC",
    "TAU_MAGNETIC",
    "CavityConfig",
    "ModeIndex",
    "ModeSpec",
    "FieldSample",
    "HamiltonianResult",
    "RootFindingError",
    "magnetic_root_equation",
    "electric_root_equation",
    "find_roots",
    "spherical_bessel_zeros",
    "normalization_constant",
    "mode_spec",
    "spectrum",
    "mode_field",
    "boundary_residual",
    "hamiltonian_energy",
    "fibonacci_directions",
]

TAU_ELECTRIC = "E"
TAU_MAGNETIC = "M"

_SI_C = 299792458.0
_SI_HBAR = 1.054571817e-34
_SI_EPS0 = 8.8541878128e-12


class RootFindingError(RuntimeError):
    """Raised when a frequency root cannot be bracketed or refined."""


@dataclass(frozen=True)
class CavityConfig:
    """Cavity radius and physical constants.

    Defaults are the dimensionless convention R = c = hbar = epsilon0 = 1;
    the dimensionless roots x = omega R / c are independent of all four.
    """

    radius: float = 1.0
    wave_speed: float = 1.0
    hbar: float = 1.0
    epsilon0: float = 1.0

    def __post_init__(self):
        for name in ("radius", "wave_speed", "hbar", "epsilon0"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")

    @classmethod
    def si(cls, radius_m: float) -> "CavityConfig":
        """SI-unit configuration for a cavity of the given radius in metres."""
        return cls(radius=radius_m, wave_speed=_SI_C, hbar=_SI_HBAR, epsilon0=_SI_EPS0)


class ModeIndex(NamedTuple):
    """Mode label (tau, j, m, n): multipole type, angular momentum,
    projection, and root ordinal (n = 1 is the lowest root)."""

    tau: str
    j: int
    m: int
    n: int


@dataclass(frozen=True)
class ModeSpec:
    """A resolved cavity mode: label, dimensionless root, normalization constant
    (identical for all m at fixed tau, j, n) and the cavity it was resolved in."""

    index: ModeIndex
    x_root: float
    norm_const: float
    config: CavityConfig

    @property
    def omega(self) -> float:
        return self.config.wave_speed * self.x_root / self.config.radius

    @property
    def degeneracy(self) -> int:
        return 2 * self.index.j + 1


@dataclass(frozen=True)
class FieldSample:
    """Field values of one mode at given positions (component axis first)."""

    r: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    A: np.ndarray
    E: np.ndarray
    B: np.ndarray


class HamiltonianResult(NamedTuple):
    energy: float
    photon_count: int


def _validate_tau(tau: str) -> str:
    t = str(tau).upper()
    if t not in (TAU_ELECTRIC, TAU_MAGNETIC):
        raise ValueError(f"tau must be 'E' or 'M', got {tau!r}")
    return t


def magnetic_root_equation(j: int, x):
    """J_{j+1/2}(x), integer j in [1, 60]; its positive zeros are the
    magnetic mode frequencies."""
    _check_int("j", j, 1, MAX_BESSEL_ORDER)
    return bessel_j_halfint(2 * j + 1, x)


def electric_root_equation(j: int, x):
    """j J_{j+3/2}(x) - (j+1) J_{j-1/2}(x), integer j in [1, 59]; zeros give
    electric frequencies."""
    _check_int("j", j, 1, MAX_BESSEL_ORDER - 1)
    return j * bessel_j_halfint(2 * j + 3, x) - (j + 1) * bessel_j_halfint(2 * j - 1, x)


# Bracketing grid step: far below the spacing of the zeros of every root
# function solved here (at least pi for j_l and for (x j_l)'), so a grid
# interval holds at most one root and no root is skipped.
_SCAN_STEP = math.pi / 8.0
_NEWTON_RTOL = 1e-13
_NEWTON_MAX_ITER = 100
_MAX_COUNT = 64


# The root conditions take the order l of each point x >= l, as floats, and
# the upward pair (j_l, j_{l+1}) at x, and return value and slope.  The
# points are sorted by order, in the runs that specfun._upward_pair takes.
def _bessel_zero(l, x, jl, jl1):
    """j_l(x) and its slope j_l' = (l/x) j_l - j_{l+1}: the magnetic condition."""
    return jl, (l / x) * jl - jl1


def _electric(j, x, jj, jj1):
    """(x j_j)' = (j+1) j_j - x j_{j+1} and (x j_j)'' = (j(j+1)/x^2 - 1) x j_j:
    the electric condition."""
    j1 = j + 1
    return j1 * jj - x * jj1, (j * j1 / (x * x) - 1.0) * x * jj


def _conditions(mag, l, runs, x):
    """Value and slope of the magnetic condition where mag is true and of the
    electric one elsewhere, both from one upward pair at x.

    mag is a bool per point, or one bool when every lane shares one tau: the
    solver's one selection on its lanes.  Both conditions and np.where on
    every lane made one-tau solves 19-27 % slower for l <= 7 (5-7 % at
    l = 40, 59); splitting the upward pass by tau would cost mixed solves a
    second pass per Newton step.
    """
    jl, jl1 = _upward_pair(runs, x)
    if not isinstance(mag, np.ndarray):
        return (_bessel_zero if mag else _electric)(l, x, jl, jl1)
    fm, dfm = _bessel_zero(l, x, jl, jl1)
    fe, dfe = _electric(l, x, jl, jl1)
    return np.where(mag, fm, fe), np.where(mag, dfm, dfe)


def _denominators(mag, l, x, jl, jl1):
    """The cavity-free denominator of normalization_constant at roots x of
    the lanes (tau, l), from the upward pair (j_l, j_{l+1}) at x:

        magnetic:  |sqrt(2x/pi) j_{l+1}(x)|
        electric:  sqrt((2l+1)(x^2 - l(l+1))) |sqrt(2x/pi) j_l(x)|

    mag is as in _conditions.  A pass holding both types also takes the
    electric factor on its magnetic lanes, where it is real: their roots lie
    above l + 1/2.
    """
    den = np.abs(np.sqrt(2.0 * x / np.pi) * np.where(mag, jl1, jl))
    if isinstance(mag, np.ndarray) or not mag:
        den = np.where(mag, den, np.sqrt((2 * l + 1) * (x * x - l * (l + 1))) * den)
    return den


def _scan_grid(start: float, count: int) -> np.ndarray:
    """Points _SCAN_STEP apart from start to past start + (count + start/2 + 2) pi,
    which holds count zeros of each root function here (orders <= 59, count <= 64)."""
    hi = start + (count + 0.5 * start + 2.0) * math.pi
    return start + _SCAN_STEP * np.arange(math.ceil((hi - start) / _SCAN_STEP) + 1)


def _sign_changes(f: np.ndarray) -> np.ndarray:
    """True at each k where f changes sign between k and k + 1."""
    sign = np.signbit(f)
    return sign[:-1] != sign[1:]


def _newton_roots(lanes: list[tuple[str, int]],
                  count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First `count` roots above max(l, _SCAN_STEP) of each lane (tau, l): the
    zeros of j_l (tau "M", _bessel_zero) or of (x j_l)' (tau "E", _electric).

    Returns the roots and their normalization denominators (_denominators),
    each shape (len(lanes), count), and for each lane the number of sign
    changes of its companion, j_{l+1} (M) or j_l (E), from the scan start
    through its last bracket, which the interlacing guard of _roots compares
    with count - 1.  Each order gets one scan on its own grid (_scan_grid);
    the grids, one run per order, share one upward pair, which serves both
    conditions and both companions.  A lane with fewer than count sign
    changes raises RootFindingError.  One safeguarded Newton loop then
    refines the brackets of every lane at once, the lanes in order of l, one
    run per order: a lane whose step leaves its bracket bisects instead; a
    lane stops once its step is <= _NEWTON_RTOL * x and keeps its x, a and b
    from then on; one polishing step follows, and one more upward pair at
    the final roots of every lane, of both types, gives the denominators.
    Every lane's arithmetic is that of a pass holding its lane alone.
    """
    # the lanes of each order
    by_order: dict[int, list[int]] = {}
    for i, (_, l) in enumerate(lanes):
        by_order.setdefault(l, []).append(i)
    orders = sorted(by_order)
    grids = [_scan_grid(max(l, _SCAN_STEP), count) for l in orders]
    sizes = [len(g) for g in grids]
    xs = np.concatenate(grids)
    jl, jl1 = _upward_pair(list(zip(orders, sizes)), xs)
    # the order of each point, as floats, as x is
    ls = np.array(orders, float).repeat(sizes)
    taus = {tau for tau, _ in lanes}
    fs = {tau: (_bessel_zero if tau == TAU_MAGNETIC else _electric)(ls, xs, jl, jl1)[0]
          for tau in taus}
    changes = {tau: _sign_changes(f) for tau, f in fs.items()}
    # Each companion has one zero between consecutive roots and none below the
    # first.  Over the advertised range every companion zero lies at least
    # 1.04 from every root (M, l = 59; 1.57 for E, at j = 1), farther than
    # the width _SCAN_STEP of a bracket, so no bracket holds one and the count
    # through the last bracket is the count below the last root.
    companions = {tau: _sign_changes(jl1 if tau == TAU_MAGNETIC else jl) for tau in taus}
    rows, brackets, fa, fb, below = [], [], [], [], []
    end = 0
    for l, size in zip(orders, sizes):
        start, end = end, end + size
        for i in by_order[l]:
            tau = lanes[i][0]
            idx = changes[tau][start:end - 1].nonzero()[0]
            if len(idx) < count:
                raise RootFindingError(f"failed to bracket root {len(idx) + 1} of order {l} "
                                       f"below x = {xs[end - 1]:.6g}")
            idx = idx[:count] + start
            rows.append(i)
            brackets.append(idx)
            fa.append(fs[tau][idx])
            fb.append(fs[tau][idx + 1])
            below.append(np.count_nonzero(companions[tau][start:idx[-1] + 1]))
    idx, fa, fb = np.concatenate(brackets), np.concatenate(fa), np.concatenate(fb)
    a, b, lane_l = xs[idx], xs[idx + 1], ls[idx]
    runs = [(l, count * len(by_order[l])) for l in orders]
    mag = (TAU_MAGNETIC in taus if len(taus) == 1
           else np.repeat([lanes[i][0] == TAU_MAGNETIC for i in rows], count))
    neg_a = np.signbit(fa)
    x = a - fa * (b - a) / (fb - fa)
    # a stopped lane steps by 0, which keeps its x and counts as done
    running = True
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            f, df = _conditions(mag, lane_l, runs, x)
            step = np.where(running, f / df, 0.0)
            left = running & (np.signbit(f) == neg_a)
            a = np.where(left, x, a)
            b = np.where(running ^ left, x, b)
            xn = x - step
            done = np.abs(step) <= _NEWTON_RTOL * x
            inside = (xn > a) & (xn < b)
            x = np.where(done | inside, xn, 0.5 * (a + b))
            running = ~done
            if not np.count_nonzero(running):
                break
        else:
            raise RootFindingError(f"Newton refinement did not converge in "
                                   f"{_NEWTON_MAX_ITER} steps")
        f, df = _conditions(mag, lane_l, runs, x)
        polished = x - f / df
    roots = np.where((polished >= a) & (polished <= b), polished, x)
    dens = _denominators(mag, lane_l, roots, *_upward_pair(runs, roots))
    back = sorted(range(len(lanes)), key=rows.__getitem__)
    shape = (len(lanes), count)
    return roots.reshape(shape)[back], dens.reshape(shape)[back], np.array(below)[back]


def spherical_bessel_zeros(l: int, count: int) -> list[float]:
    """First `count` positive zeros of j_l (equivalently of J_{l+1/2}).

    0 <= l <= MAX_BESSEL_ORDER - 1 and 1 <= count <= 64; for l = 0 the
    zeros are k pi.  They are find_roots' cached magnetic roots of j = l,
    under the same interlacing guard (the zeros of j_{l+1} alternate with
    them): the first call for an l solves all 64 and caches them, and every
    call is served as a prefix of that entry.
    """
    _check_int("l", l, 0, MAX_BESSEL_ORDER - 1)
    _check_int("count", count, 1, _MAX_COUNT)
    return list(_roots((TAU_MAGNETIC,), [l])[TAU_MAGNETIC][0].roots[:count])


class _Entry(NamedTuple):
    """A root-cache entry: all _MAX_COUNT roots of one (tau, j) and, for each,
    its normalization denominator (_denominators), which no cavity enters."""

    roots: tuple[float, ...]
    dens: tuple[float, ...]


_ROOT_CACHE: dict[tuple[str, int], _Entry] = {}


def _roots(taus, js: list[int]) -> dict[str, list[_Entry]]:
    """Cached, guarded entries of (tau, j) for each tau in taus and j in js.

    Every cache entry is complete: it holds all _MAX_COUNT roots of its
    (tau, j) and their denominators, and every request is served as a
    prefix of it.  The (tau, j) not in the cache, and only those, are solved
    to _MAX_COUNT roots in one _newton_roots pass, which also gives each
    root's denominator.  A cold pass costs about the same for 3 roots as
    for 64 (per-call overhead dominates, not per-root work), so a (tau, j)
    is solved once per process, whatever lengths are asked for later.  The
    guards run over every lane of the pass and all _MAX_COUNT columns,
    before any lane is cached: interlacing, where the companion of each
    lane (_newton_roots) must change sign _MAX_COUNT - 1 times below its
    last root, magnetic lanes reported first, and then root spacing.
    """
    lanes = [(tau, j) for tau in (TAU_MAGNETIC, TAU_ELECTRIC) if tau in taus
             for j in js if (tau, j) not in _ROOT_CACHE]
    if lanes:
        # the first zero of J_{j+1/2} lies above j + 1/2, and every electric
        # root has x^2 > j(j+1): both scans start at x = j
        roots, dens, zeros_below = _newton_roots(lanes, _MAX_COUNT)
        bad = (zeros_below != _MAX_COUNT - 1).nonzero()[0]
        if len(bad):
            (tau, j), zeros = lanes[bad[0]], zeros_below[bad[0]]
            raise RootFindingError(f"interlacing violated for {tau} j={j}: {zeros} "
                                   f"companion zeros below root {_MAX_COUNT}")
        gaps = roots[:, 1:] - roots[:, :-1]
        bad = ((gaps <= 0) | (gaps > 2.5 * math.pi)).nonzero()[0]
        if len(bad):
            (tau, j), gap = lanes[bad[0]], gaps[bad[0]]
            raise RootFindingError(f"implausible root spacing for {tau} j={j}: {gap}")
        for key, r, d in zip(lanes, roots.tolist(), dens.tolist()):
            _ROOT_CACHE[key] = _Entry(tuple(r), tuple(d))
    return {tau: [_ROOT_CACHE[(tau, j)] for j in js] for tau in taus}


def find_roots(tau: str, j: int, count: int) -> list[float]:
    """First `count` dimensionless roots x = omega R / c for multipole (tau, j).

    1 <= j <= MAX_BESSEL_ORDER - 1 (= 59) and 1 <= count <= 64; anything
    else raises ValueError.  The roots are strictly increasing; each is
    refined until its Newton step is below 1e-13 x and then polished by
    one more step, which leaves a relative error |f / (x f')| of a few
    1e-16 (below 1e-12 over the whole range).  One interlacing guard
    checks both types against any skipped root: the companion, j_{j+1} for
    M and j_j for E (whose zeros are the magnetic roots; the electric roots
    are the extrema of x j_j), must change sign exactly count - 1 times
    below the last root, counted on the solver's own scan.

    The solve is the pass that spectrum runs on every (tau, j) at once,
    holding this (tau, j) alone when it is not cached; it gives the same
    roots bit for bit.  Results are cached per (tau, j), whichever call
    solved them.  The first request for a (tau, j) solves all 64 roots, at
    1.1-1.2 times the cost of a cold solve of 3, and the guards check all
    64; every request of any count is then served as a prefix of that
    entry, in about 2 us.
    The entry also holds each root's normalization denominator (see
    normalization_constant), which the same pass computes.
    """
    tau = _validate_tau(tau)
    _check_int("j", j, 1, MAX_BESSEL_ORDER - 1)
    _check_int("count", count, 1, _MAX_COUNT)
    return list(_roots((tau,), [j])[tau][0].roots[:count])


def normalization_constant(tau: str, j: int, x_root: float,
                           config: CavityConfig = CavityConfig()) -> float:
    """Mode amplitude making the field energy equal one photon, hbar*omega.

    magnetic:  sqrt(8 hbar / (pi eps0 c)) / R / |J_{j+3/2}(x)|
    electric:  sqrt(8 hbar / (pi eps0 c)) / R
               * x / (sqrt((2j+1) (x^2 - j(j+1))) |J_{j+1/2}(x)|)

    The electric form is the closed result of the radial energy integral
    evaluated at a root of the electric condition (where J_{j-1/2} =
    j J_{j+1/2} / x and J_{j+3/2} = (j+1) J_{j+1/2} / x); it is verified
    against a radial quadrature of the energy integral, whose angular part
    the orthonormality of the Y_{j,l,m} closes (the mode_energy check).
    Raises ValueError unless j is an integer in find_roots' range [1, 59]
    and x_root lies above j (magnetic) or sqrt(j(j+1)) (electric), where
    every root lies, and meets its condition to 1e-4.

    The denominator, |J_{j+3/2}(x)| or sqrt((2j+1) (x^2 - j(j+1)))
    |J_{j+1/2}(x)| with J_{nu}(x) = sqrt(2x/pi) j_{nu-1/2}(x), depends on x
    alone (_denominators).  Here it and the condition both come from one
    upward Bessel pair (j_j, j_{j+1}) at x_root; the root cache holds the
    denominator for every cached root, from which spectrum and mode_spec
    give this function's value bit for bit with no Bessel evaluation.
    """
    tau = _validate_tau(tau)
    _check_int("j", j, 1, MAX_BESSEL_ORDER - 1)
    x = float(x_root)
    mag = tau == TAU_MAGNETIC
    # the residual test alone passes every small x: J_{j+1/2}(x) ~ x^{j+1/2}
    if (x <= j) if mag else (x * x <= j * (j + 1)):
        raise ValueError(f"x_root={x} lies below every {tau} root for j={j}")
    xs = np.array([x])
    pair = _upward_pair([(j, 1)], xs)
    # the public equations from the pair: J_{j+1/2} = sqrt(2x/pi) j_j, and
    # with j_{j-1} = ((2j+1)/x) j_j - j_{j+1} the electric one is
    # -(2j+1)/x sqrt(2x/pi) (x j_j)'
    cond = (_bessel_zero if mag else _electric)(j, xs, *pair)[0]
    eq = np.sqrt(2.0 * xs / np.pi) * (cond if mag else -(2 * j + 1) / xs * cond)
    if abs(eq[0]) > 1e-4:
        raise ValueError(f"x_root={x} does not satisfy the {tau} condition for j={j}")
    return float(_norm_consts(tau, xs, _denominators(mag, j, xs, *pair), config)[0])


def _norm_consts(tau: str, x, den, config: CavityConfig):
    """normalization_constant at roots x of type tau from their denominators
    den (_denominators): the cavity's prefactor sqrt(8 hbar / (pi eps0 c)) / R,
    times x for electric modes, over den.  x and den are floats or arrays of
    one shape.
    """
    if np.any(den < 1e-14):
        raise ValueError("degenerate normalization denominator")
    num = math.sqrt(8.0 * config.hbar / (math.pi * config.epsilon0 * config.wave_speed)) / config.radius
    return (num * x if tau == TAU_ELECTRIC else num) / den


def mode_spec(tau: str, j: int, m: int, n: int,
              config: CavityConfig = CavityConfig()) -> ModeSpec:
    """Resolve a mode label to its root and its normalization in config.

    The root is find_roots', and the constant is the denominator cached
    with it, which no cavity enters, scaled by config's prefactor
    (_norm_consts): bit for bit normalization_constant(tau, j, x_root,
    config).  A call whose (tau, j) is cached evaluates no Bessel function.
    """
    tau = _validate_tau(tau)
    _check_int("n", n, 1, _MAX_COUNT)
    # find_roots checks the range of j before |m| is compared with it
    x = find_roots(tau, j, n)[n - 1]
    _check_int("m", m, -j, j)
    den = _ROOT_CACHE[(tau, j)].dens[n - 1]
    return ModeSpec(ModeIndex(tau, j, m, n), x, _norm_consts(tau, x, den, config), config)


def spectrum(j_max: int, n_max: int,
             config: CavityConfig = CavityConfig()) -> list[ModeSpec]:
    """All modes with j <= j_max, n <= n_max, sorted by increasing frequency.

    One entry per (tau, j, n); each carries the (2j+1)-fold m-degeneracy.
    Ties break deterministically: electric first, then j, then n.  The
    (tau, j) of both types not yet in the root cache are solved in one
    batched pass, each to all 64 roots as find_roots does, whatever n_max;
    later calls of any n_max are served from the cache.  The normalization
    constants are the cached cavity-free denominators scaled by config's
    prefactor, bit for bit normalization_constant at each root, so a warm
    call evaluates no Bessel function; it then costs about 50 us for
    (2, 4) and 1.7 ms for (20, 32) on one CPU core, mostly in building the
    ModeSpec objects.
    """
    return _spectrum(j_max, n_max, config, (TAU_ELECTRIC, TAU_MAGNETIC))


def _spectrum(j_max: int, n_max: int, config: CavityConfig, taus) -> list[ModeSpec]:
    """spectrum restricted to the types in taus, given in tie-break order.

    Only their roots are solved, each type's guard reading its own lanes;
    the entries keep the relative order they have in spectrum.
    """
    _check_int("j_max", j_max, 1, 20)
    _check_int("n_max", n_max, 1, 32)
    entries = _roots(taus, list(range(1, j_max + 1)))
    # one row per (tau, j), the types in the order of taus
    x, norms = [], []
    for tau in taus:
        xt = np.array([e.roots[:n_max] for e in entries[tau]])
        x.append(xt.ravel())
        norms.append(_norm_consts(tau, xt, np.array([e.dens[:n_max] for e in entries[tau]]),
                                  config).ravel())
    x, norms = np.concatenate(x), np.concatenate(norms)
    omega = config.wave_speed * x / config.radius
    # position in taus, j - 1 and n - 1 of each entry
    rank, j0, n0 = (t.ravel() for t in np.indices((len(taus), j_max, n_max)))
    order = np.lexsort((n0, j0, rank, omega))
    # positional: a frozen dataclass's __init__ costs less so than by keyword
    return [ModeSpec(ModeIndex(taus[t], j + 1, 0, n + 1), xr, c, config)
            for t, j, n, xr, c in zip(*(a[order].tolist() for a in (rank, j0, n0, x, norms)))]


def _multipole_terms(tau: str, j: int) -> np.ndarray:
    """Coefficients of the terms T_l = j_l(kr) Y_{j,l,m}, l = j-1, j, j+1, shape
    (2, 3): row 0 holds those in A / N and row 1 those in B / (i k N), column
    l - j + 1 that of T_l; a term the mode lacks has coefficient 0.

        M:  A = N T_j
            B = i k N [sqrt((j+1)/(2j+1)) T_{j-1} - sqrt(j/(2j+1)) T_{j+1}]
        E:  A = N [sqrt(j) T_{j+1} - sqrt(j+1) T_{j-1}]
            B = i k N sqrt(2j+1) T_j
    """
    if tau == TAU_MAGNETIC:
        return np.array([[0.0, 1.0, 0.0],
                         [math.sqrt((j + 1) / (2 * j + 1)), 0.0, -math.sqrt(j / (2 * j + 1))]])
    return np.array([[-math.sqrt(j + 1), 0.0, math.sqrt(j)], [0.0, math.sqrt(2 * j + 1), 0.0]])


def _fields(specs: list[ModeSpec], r, theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """A and B = curl A for modes sharing (j, m), each shape (len(specs), 3, ...);
    valid for any r >= 0.

    r carries a leading mode axis, of length 1 (one radius array for every
    mode) or len(specs) (each mode's own), and its other axes broadcast with
    theta and phi.  A / N and B / (i k N) are sums of c T_l,
    T_l = j_l(kr) Y_{j,l,m}, over the c of their row of _multipole_terms,
    each summed and scaled once; a term is skipped when no mode has it, so
    each mode's values have the bits of a call with its spec alone.  The
    angles are not expanded against r: with r of shape (1, n_r, 1, 1) and
    angles of shape (1, n_theta, n_phi), the three j_l come from one
    specfun._bessel_orders call at n_r points per mode and the three
    harmonics from one table at n_theta * n_phi points.
    """
    j, m = specs[0].index.j, specs[0].index.m
    r = np.asarray(r, float)
    harmonics = _Harmonics(j + 1, theta, phi)
    ndim = max(r.ndim - 1, len(harmonics.shape))
    # mode axis, component axis, then the broadcast position axes
    lead = (-1,) + (1,) * (ndim + 1)
    k = np.array([s.omega / s.config.wave_speed for s in specs])
    x = k.reshape(lead) * r.reshape(r.shape[:1] + (1,) * (ndim + 2 - r.ndim) + r.shape[1:])
    ls = (j - 1, j, j + 1)
    bessel = _bessel_orders(ls, x)
    ys = _coupled_stack(harmonics, [(j, l, m) for l in ls])
    ys = ys.reshape(ys.shape[:2] + (1,) * (ndim - len(harmonics.shape)) + harmonics.shape)
    c = np.stack([_multipole_terms(s.index.tau, j) for s in specs])
    norm = np.array([s.norm_const for s in specs])
    fields = []
    for part, scale in ((0, norm), (1, 1j * k * norm)):
        total = 0.0
        for i in range(3):
            if c[:, part, i].any():
                total = total + (c[:, part, i].reshape(lead) * bessel[i]) * ys[i]
        fields.append(scale.reshape(lead) * total)
    return tuple(fields)


def mode_field(spec: ModeSpec, r, theta, phi) -> FieldSample:
    """Vector potential A, electric field E = i omega A, and B = curl A.

    Positions broadcast together; 0 <= r <= R of spec.config.  B is the
    closed-form curl of the multipole expansion of A (see _fields), exact
    up to rounding at every r including the origin.
    """
    rr, th, ph = np.broadcast_arrays(np.asarray(r, float),
                                     np.asarray(theta, float),
                                     np.asarray(phi, float))
    if np.any(rr < 0) or np.any(rr > spec.config.radius * (1 + 1e-12)):
        raise ValueError("positions must satisfy 0 <= r <= R")
    (a,), (b,) = _fields([spec], np.asarray(r, float)[None], theta, phi)
    return FieldSample(r=rr, theta=th, phi=ph, A=a, E=1j * spec.omega * a, B=b)


def fibonacci_directions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n >= 1 quasi-uniform directions on the sphere (golden-angle spiral)."""
    _check_int("n", n, 1, math.inf)
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    theta = np.arccos(z)
    phi = np.mod(i * math.pi * (3.0 - math.sqrt(5.0)), 2 * math.pi)
    return theta, phi


def boundary_residual(spec: ModeSpec, n_dirs: int = 64) -> float:
    """Perfect-conductor boundary residual at the wall r = R of spec.config.

    Maximum over n_dirs quasi-uniform directions of the tangential
    electric field |E.theta_hat|, |E.phi_hat| and the normal magnetic
    field |B.n|, relative to the mode's RMS fields over the cavity volume
    V = 4 pi R^3 / 3.  The one-photon normalization fixes
    int |E|^2 d3r = 2 hbar omega / eps0, so E_rms = sqrt(2 hbar omega /
    (eps0 V)) and B_rms = E_rms / c, in the constants of spec.config.  The
    suite's mode_boundary check holds it to its tolerance in
    verify.DEFAULT_TOLERANCES.
    """
    return float(_boundary_residuals([spec], n_dirs)[0])


def _boundary_residuals(specs: list[ModeSpec], n_dirs: int) -> np.ndarray:
    """boundary_residual of each spec, shape (len(specs),); each value has the
    bits of a call with its spec alone.

    The modes are grouped by (j, m), and each group's fields come from one
    _fields call on the wall directions, each mode at its own radius R.
    Tangential E is divided by E_rms = sqrt(2 hbar omega / (eps0 V)) and
    normal B by E_rms / c, both read from the mode's cavity.
    """
    _check_int("n_dirs", n_dirs, 1, math.inf)
    th, ph = fibonacci_directions(n_dirs)
    hats = (unit_theta(th, ph), unit_phi(th, ph), unit_radial(th, ph))
    groups: dict[tuple[int, int], list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.index.j, spec.index.m), []).append(i)
    out = np.empty(len(specs))
    for idx in groups.values():
        group = [specs[i] for i in idx]
        a, b = _fields(group, [s.config.radius for s in group], th, ph)
        omega = np.array([s.omega for s in group])
        e_rms = np.array([math.sqrt(2.0 * s.config.hbar * s.omega / s.config.epsilon0
                                    / (4.0 / 3.0 * math.pi * s.config.radius**3))
                          for s in group])
        b_rms = e_rms / np.array([s.config.wave_speed for s in group])
        e = (1j * omega)[:, None, None] * a
        e_th, e_ph, b_n = (np.abs((f * u).sum(axis=1)).max(axis=1)
                           for f, u in zip((e, e, b), hats))
        out[idx] = np.maximum.reduce([e_th / e_rms, e_ph / e_rms, b_n / b_rms])
    return out


def hamiltonian_energy(occupations: Mapping[ModeIndex | tuple, int],
                       include_zero_point: bool = False,
                       config: CavityConfig = CavityConfig()) -> HamiltonianResult:
    """Total energy sum(hbar omega (N + 1/2 flag)) over the listed modes.

    The zero-point half-quantum, when enabled, is counted once per listed
    mode label (the unrestricted sum over all modes diverges and is not
    represented).  Also reports the total photon number sum(N).
    """
    energy = 0.0
    photons = 0
    for key, count in occupations.items():
        _check_int("occupation", count, 0, math.inf)
        omega = mode_spec(*key, config=config).omega
        energy += config.hbar * omega * (count + (0.5 if include_zero_point else 0.0))
        photons += count
    return HamiltonianResult(energy=energy, photon_count=photons)
