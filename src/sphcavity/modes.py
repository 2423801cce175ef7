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
All root finding happens in the dimensionless variable x; cavity
dimensions and physical constants enter only through CavityConfig.

Roots come from one vectorized solver: an array scan from x = j brackets
the zeros of j_j (magnetic) or of (x j_j)' (electric), and a safeguarded
Newton step with closed-form derivatives refines all brackets at once.
Every root lies above x = j, so the root functions take j_j and j_{j+1}
together from one upward Bessel recurrence (specfun._upward_pair).
Results are cached per (tau, j) and served as prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .angular import _coupled, unit_phi, unit_radial, unit_theta
from .reporting import CheckReport
from .specfun import (MAX_BESSEL_ORDER, _Harmonics, _upward_pair, bessel_j_halfint,
                      spherical_bessel_j)

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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

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
    """A resolved cavity mode: label, dimensionless root, frequency and
    normalization constant (identical for all m at fixed tau, j, n)."""

    index: ModeIndex
    x_root: float
    omega: float
    norm_const: float

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
    """J_{j+1/2}(x); its positive zeros are the magnetic mode frequencies."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return bessel_j_halfint(2 * j + 1, x)


def electric_root_equation(j: int, x):
    """j J_{j+3/2}(x) - (j+1) J_{j-1/2}(x); zeros give electric frequencies."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return j * bessel_j_halfint(2 * j + 3, x) - (j + 1) * bessel_j_halfint(2 * j - 1, x)


# Bracketing grid step: far below the spacing of the zeros of every root
# function solved here (at least pi for j_l and for (x j_l)'), so a grid
# interval holds at most one root and no root is skipped.
_SCAN_STEP = math.pi / 8.0
_NEWTON_RTOL = 1e-13
_NEWTON_MAX_ITER = 100
_MAX_COUNT = 64


def _bessel_zero_fn(l: int):
    """j_l(x) and its slope j_l' = (l/x) j_l - j_{l+1}, on arrays with x >= l."""
    def fn(x):
        jl, jl1 = _upward_pair(l, x)
        return jl, (l / x) * jl - jl1
    return fn


def _electric_fn(j: int):
    """(x j_j)' = (j+1) j_j - x j_{j+1} and (x j_j)'' = (j(j+1)/x^2 - 1) x j_j,
    on arrays with x >= j."""
    def fn(x):
        jj, jj1 = _upward_pair(j, x)
        return (j + 1) * jj - x * jj1, (j * (j + 1) / (x * x) - 1.0) * x * jj
    return fn


def _sign_changes(f: np.ndarray) -> np.ndarray:
    """Indices k where f changes sign between k and k + 1."""
    return np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))


def _newton_roots(fn, start: float, count: int) -> np.ndarray:
    """First `count` zeros above `start` of fn (which returns value and slope).

    One array scan on a grid of step _SCAN_STEP brackets the zeros; a
    safeguarded Newton step then refines every bracket at once.  A lane
    whose step leaves its bracket bisects instead; a lane stops once its
    step is <= _NEWTON_RTOL * x, and one polishing step follows.
    """
    hi = start + (count + 0.5 * start + 2.0) * math.pi
    while True:
        xs = start + _SCAN_STEP * np.arange(math.ceil((hi - start) / _SCAN_STEP) + 1)
        fs = fn(xs)[0]
        idx = _sign_changes(fs)[:count]
        if len(idx) == count:
            break
        if hi > 1e4:
            raise RootFindingError(f"failed to bracket root {len(idx) + 1} below x = 1e4")
        hi *= 2.0
    a, b = xs[idx], xs[idx + 1]
    fa, fb = fs[idx], fs[idx + 1]
    neg_a = np.signbit(fa)
    x = a - fa * (b - a) / (fb - fa)
    active = np.arange(count)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            xa = x[active]
            f, df = fn(xa)
            step = f / df
            left = np.signbit(f) == neg_a[active]
            a[active] = np.where(left, xa, a[active])
            b[active] = np.where(left, b[active], xa)
            xn = xa - step
            done = np.abs(step) <= _NEWTON_RTOL * xa
            inside = (xn > a[active]) & (xn < b[active])
            x[active] = np.where(done | inside, xn, 0.5 * (a[active] + b[active]))
            active = active[~done]
            if not len(active):
                break
        else:
            raise RootFindingError(f"Newton refinement did not converge in "
                                   f"{_NEWTON_MAX_ITER} steps")
        f, df = fn(x)
        polished = x - f / df
    return np.where((polished >= a) & (polished <= b), polished, x)


def spherical_bessel_zeros(l: int, count: int) -> list[float]:
    """First `count` positive zeros of j_l (equivalently of J_{l+1/2}).

    0 <= l <= MAX_BESSEL_ORDER - 1 and 1 <= count <= 64; for l = 0 the
    zeros are k pi.  Solved like find_roots, without its cache or guards.
    """
    if not 0 <= l < MAX_BESSEL_ORDER:
        raise ValueError(f"l must be in [0, {MAX_BESSEL_ORDER - 1}]")
    if not 1 <= count <= _MAX_COUNT:
        raise ValueError(f"count must be in [1, {_MAX_COUNT}]")
    # j_l has no zero below l (nor below pi for l = 0)
    return _newton_roots(_bessel_zero_fn(l), max(l, _SCAN_STEP), count).tolist()


_ROOT_CACHE: dict[tuple[str, int], tuple[float, ...]] = {}


def _roots(tau: str, j: int, count: int) -> tuple[float, ...]:
    """Cached, guarded roots; a cached longer sequence serves any prefix."""
    cached = _ROOT_CACHE.get((tau, j), ())
    if len(cached) >= count:
        return cached[:count]
    if tau == TAU_MAGNETIC:
        # the first zero of J_{j+1/2} lies above j + 1/2
        roots = _newton_roots(_bessel_zero_fn(j), j, count)
        # interlacing: J_{nu} and J_{nu+1} zeros alternate, so j_{j+1} must
        # change sign exactly count - 1 times below the count-th root
        last = roots[-1]
        grid = np.append(np.arange(j, last, _SCAN_STEP), last)
        below = len(_sign_changes(_upward_pair(j, grid)[1]))
        if below != count - 1:
            raise RootFindingError(
                f"interlacing violated for M j={j}: {below} companion zeros "
                f"below root {count}")
    else:
        # every electric root has x^2 > j(j+1)
        roots = _newton_roots(_electric_fn(j), j, count)
        # electric roots are the extrema of x j_j(x): exactly one between
        # consecutive magnetic roots (and one below the first)
        fences = (0.0,) + _roots(TAU_MAGNETIC, j, count)
        for n, r in enumerate(roots):
            if not fences[n] < r < fences[n + 1]:
                raise RootFindingError(
                    f"interlacing violated for E j={j}: root {n + 1} = {r} "
                    f"not in ({fences[n]}, {fences[n + 1]})")
    gaps = np.diff(roots)
    if len(gaps) and (np.any(gaps <= 0) or np.any(gaps > 2.5 * math.pi)):
        raise RootFindingError(f"implausible root spacing for {tau} j={j}: {gaps}")
    out = tuple(roots.tolist())
    _ROOT_CACHE[(tau, j)] = out
    return out


def find_roots(tau: str, j: int, count: int) -> list[float]:
    """First `count` dimensionless roots x = omega R / c for multipole (tau, j).

    1 <= j <= MAX_BESSEL_ORDER - 1 (= 59) and 1 <= count <= 64; anything
    else raises ValueError.  The roots are strictly increasing; each is
    refined until its Newton step is below 1e-13 x and then polished by
    one more step, which leaves a relative error |f / (x f')| of a few
    1e-16 (below 1e-12 over the whole range).  Electric and magnetic
    sequences are cross-validated: the n-th electric root must lie
    strictly between consecutive zeros of x j_j(x), and j_{j+1} must
    change sign exactly count - 1 times below the last magnetic root
    (interlacing), which guards against any skipped root.

    Results are cached per (tau, j): a request for fewer roots than the
    cache holds is served from it; a longer request is solved once and
    replaces the entry.
    """
    tau = _validate_tau(tau)
    if not 1 <= j < MAX_BESSEL_ORDER:
        raise ValueError(f"j must be in [1, {MAX_BESSEL_ORDER - 1}]")
    if not 1 <= count <= _MAX_COUNT:
        raise ValueError(f"count must be in [1, {_MAX_COUNT}]")
    return list(_roots(tau, j, count))


def _norm_prefactor(config: CavityConfig) -> float:
    return math.sqrt(8.0 * config.hbar / (math.pi * config.epsilon0 * config.wave_speed)) / config.radius


def normalization_constant(tau: str, j: int, x_root: float,
                           config: CavityConfig = CavityConfig()) -> float:
    """Mode amplitude making the field energy equal one photon, hbar*omega.

    magnetic:  sqrt(8 hbar / (pi eps0 c)) / R / |J_{j+3/2}(x)|
    electric:  sqrt(8 hbar / (pi eps0 c)) / R
               * x / (sqrt((2j+1) (x^2 - j(j+1))) |J_{j+1/2}(x)|)

    The electric form is the closed result of the radial energy integral
    evaluated at a root of the electric condition (where J_{j-1/2} =
    j J_{j+1/2} / x and J_{j+3/2} = (j+1) J_{j+1/2} / x); it is verified
    against brute-force quadrature of the energy integral in the tests.
    """
    tau = _validate_tau(tau)
    if j < 1:
        raise ValueError("j must be >= 1")
    x = float(x_root)
    eq = magnetic_root_equation(j, x) if tau == TAU_MAGNETIC else electric_root_equation(j, x)
    if abs(eq) > 1e-4:
        raise ValueError(f"x_root={x} does not satisfy the {tau} condition for j={j}")
    return float(_norm_consts(tau, j, np.array([x]), config)[0])


def _norm_consts(tau: str, j: int, x: np.ndarray, config: CavityConfig) -> np.ndarray:
    """normalization_constant for an array of roots of (tau, j), unvalidated."""
    if tau == TAU_MAGNETIC:
        num = _norm_prefactor(config)
        den = np.abs(bessel_j_halfint(2 * j + 3, x))
    else:
        num = _norm_prefactor(config) * x
        den = np.sqrt((2 * j + 1) * (x * x - j * (j + 1))) * np.abs(bessel_j_halfint(2 * j + 1, x))
    if np.any(den < 1e-14):
        raise ValueError("degenerate normalization denominator")
    return num / den


def mode_spec(tau: str, j: int, m: int, n: int,
              config: CavityConfig = CavityConfig()) -> ModeSpec:
    """Resolve a mode label to its root, frequency and normalization."""
    tau = _validate_tau(tau)
    if abs(m) > j:
        raise ValueError(f"|m| must not exceed j, got j={j}, m={m}")
    if n < 1:
        raise ValueError("root ordinal n must be >= 1")
    x = find_roots(tau, j, n)[n - 1]
    return ModeSpec(
        index=ModeIndex(tau, j, m, n),
        x_root=x,
        omega=config.wave_speed * x / config.radius,
        norm_const=float(_norm_consts(tau, j, np.array([x]), config)[0]),
    )


def spectrum(j_max: int, n_max: int,
             config: CavityConfig = CavityConfig()) -> list[ModeSpec]:
    """All modes with j <= j_max, n <= n_max, sorted by increasing frequency.

    One entry per (tau, j, n); each carries the (2j+1)-fold m-degeneracy.
    Ties break deterministically: electric first, then j, then n.
    """
    if not 1 <= j_max <= 20:
        raise ValueError("j_max must be in [1, 20]")
    if not 1 <= n_max <= 32:
        raise ValueError("n_max must be in [1, 32]")
    out: list[ModeSpec] = []
    for tau in (TAU_ELECTRIC, TAU_MAGNETIC):
        for j in range(1, j_max + 1):
            roots = find_roots(tau, j, n_max)
            norms = _norm_consts(tau, j, np.array(roots), config).tolist()
            for n, (x, c) in enumerate(zip(roots, norms), start=1):
                out.append(ModeSpec(
                    index=ModeIndex(tau, j, 0, n),
                    x_root=x,
                    omega=config.wave_speed * x / config.radius,
                    norm_const=c,
                ))
    out.sort(key=lambda s: (s.omega, 0 if s.index.tau == TAU_ELECTRIC else 1,
                            s.index.j, s.index.n))
    return out


def _fields(spec: ModeSpec, r, theta, phi,
            config: CavityConfig) -> tuple[np.ndarray, np.ndarray]:
    """A and B = curl A for one mode, each shape (3, ...); valid for any r >= 0.

    Both are sums of the terms T_l = j_l(kr) Y_{j,l,m}, l = j-1, j, j+1:

        M:  A = N T_j
            B = i k N [sqrt((j+1)/(2j+1)) T_{j-1} - sqrt(j/(2j+1)) T_{j+1}]
        E:  A = N [sqrt(j) T_{j+1} - sqrt(j+1) T_{j-1}]
            B = i k N sqrt(2j+1) T_j

    r, theta and phi broadcast together and are not expanded first: with
    r of shape (n_r, 1, 1) and angles of shape (1, n_theta, n_phi), each
    Bessel function is evaluated at n_r points and each harmonic, from one
    table shared by the three terms, at n_theta * n_phi points.
    """
    tau, j, m, _ = spec.index
    k = spec.omega / config.wave_speed
    x = k * np.asarray(r, float)
    harmonics = _Harmonics(j + 1, theta, phi)
    ndim = max(x.ndim, len(harmonics.shape))

    def term(l: int, c: float) -> np.ndarray:
        y = _coupled(harmonics, j, l, m)
        y = y.reshape((3,) + (1,) * (ndim + 1 - y.ndim) + y.shape[1:])
        return (c * spherical_bessel_j(l, x)) * y

    n = spec.norm_const
    ikn = 1j * k * n
    if tau == TAU_MAGNETIC:
        a = term(j, n)
        b = ikn * (term(j - 1, math.sqrt((j + 1) / (2 * j + 1)))
                   - term(j + 1, math.sqrt(j / (2 * j + 1))))
    else:
        a = n * (term(j + 1, math.sqrt(j)) - term(j - 1, math.sqrt(j + 1)))
        b = term(j, ikn * math.sqrt(2 * j + 1))
    return a, b


def mode_field(spec: ModeSpec, r, theta, phi,
               config: CavityConfig = CavityConfig()) -> FieldSample:
    """Vector potential A, electric field E = i omega A, and B = curl A.

    Positions broadcast together; 0 <= r <= R.  B is the closed-form
    curl of the multipole expansion of A (see _fields), exact up to
    rounding at every r including the origin.
    """
    rr, th, ph = np.broadcast_arrays(np.asarray(r, float),
                                     np.asarray(theta, float),
                                     np.asarray(phi, float))
    if np.any(rr < 0) or np.any(rr > config.radius * (1 + 1e-12)):
        raise ValueError("positions must satisfy 0 <= r <= R")
    a, b = _fields(spec, r, theta, phi, config)
    return FieldSample(r=rr, theta=th, phi=ph, A=a, E=1j * spec.omega * a, B=b)


def fibonacci_directions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n quasi-uniform directions on the sphere (golden-angle spiral)."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    theta = np.arccos(z)
    phi = np.mod(i * math.pi * (3.0 - math.sqrt(5.0)), 2 * math.pi)
    return theta, phi


def _peak_field_scales(spec: ModeSpec, config: CavityConfig) -> tuple[float, float]:
    """Coarse-grid peak |E| and |B| used to normalize boundary residuals."""
    th, ph = fibonacci_directions(48)
    radii = np.linspace(0.04, 1.0, 25) * config.radius
    a, b = _fields(spec, radii[:, None], th, ph, config)
    peak_e = spec.omega * float(np.sqrt((np.abs(a) ** 2).sum(axis=0)).max())
    peak_b = float(np.sqrt((np.abs(b) ** 2).sum(axis=0)).max())
    return peak_e, peak_b


def boundary_residual(spec: ModeSpec, config: CavityConfig = CavityConfig(),
                      n_dirs: int = 64, tolerance: float = 1e-7) -> CheckReport:
    """Perfect-conductor boundary check at r = R.

    Maximum over n_dirs quasi-uniform directions of the tangential
    electric field |E.theta_hat|, |E.phi_hat| and the normal magnetic
    field |B.n|, each normalized by the mode's peak field magnitude.
    """
    th, ph = fibonacci_directions(n_dirs)
    a, b = _fields(spec, config.radius, th, ph, config)
    e = 1j * spec.omega * a
    e_th = np.abs((e * unit_theta(th, ph)).sum(axis=0))
    e_ph = np.abs((e * unit_phi(th, ph)).sum(axis=0))
    b_n = np.abs((b * unit_radial(th, ph)).sum(axis=0))
    peak_e, peak_b = _peak_field_scales(spec, config)
    resid = max(float(e_th.max() / peak_e), float(e_ph.max() / peak_e),
                float(b_n.max() / peak_b))
    tau, j, m, n = spec.index
    return CheckReport(
        name=f"boundary_{tau}{j}n{n}",
        max_residual=resid,
        tolerance=tolerance,
        details=f"tangential E and normal B at r=R over {n_dirs} directions",
    )


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
        idx = ModeIndex(*key)
        if count < 0:
            raise ValueError("occupation numbers must be >= 0")
        tau = _validate_tau(idx.tau)
        if idx.j < 1 or abs(idx.m) > idx.j or idx.n < 1:
            raise ValueError(f"unresolvable mode index {idx}")
        x = find_roots(tau, idx.j, idx.n)[idx.n - 1]
        omega = config.wave_speed * x / config.radius
        energy += config.hbar * omega * (count + (0.5 if include_zero_point else 0.0))
        photons += count
    return HamiltonianResult(energy=energy, photon_count=photons)
