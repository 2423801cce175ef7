"""Quadrature engines and the cross-cutting property-check suite.

Every ``check_*`` function returns ``(residual, details)`` and knows
neither its name nor a tolerance.  One registry entry per named check
(orthonormality, parity, helicity, Bessel identities, plane-wave
expansions, rotation algebra, mode and entanglement checks) holds its
default tolerance and the suite's call; ``DEFAULT_TOLERANCES`` is read from
it, and is the only place a check's tolerance lives.
:func:`run_suite` runs the checks in name order, applies per-name tolerance
overrides, each a finite number > 0, and builds every :class:`CheckReport`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import entangle as ent
from . import modes as md
from .angular import (_U, _apply, _coupled_stack, _eml_terms, _helicity_stack, _vsh_stack,
                      antipode, cg_s1, helicity_apply, unit_radial)
from .rotations import (
    MAX_WIGNER_J,
    _phased,
    _small_d_orders,
    _spherical_waves,
    rotate_cartesian,
    wigner_d_matrix,
)
from .specfun import (HarmonicConvention, _bessel_orders, _check_int, _Harmonics,
                      bessel_j_halfint, scalar_harmonic)

__all__ = [
    "SphereQuadrature",
    "sphere_quadrature",
    "radial_quadrature",
    "CheckReport",
    "DEFAULT_TOLERANCES",
    "MAGNETIC_REFERENCE_TABLE",
    "ELECTRIC_REFERENCE_TABLE",
    "MAGNETIC_TABLE_SKIPPED_ROOTS",
    "vsh_project",
    "run_suite",
    "suite_check_names",
]

# --------------------------------------------------------------------------
# reference frequency tables (dimensionless x = omega R / c)
#
# The magnetic reference list is reproduced as published even though its
# j = 1, 2, 3 rows each skip one true root of the defining equation; the
# solver finds the complete sequences and the skipped values are recorded
# below and named in the details of the frequency-table check.
MAGNETIC_REFERENCE_TABLE = {
    1: (4.49341, 7.72525, 10.9041, 17.2208),
    2: (5.76346, 12.3229, 15.5146, 18.689),
    3: (6.98793, 10.4171, 13.698, 20.1218),
    4: (8.18256, 11.7049, 15.0397, 18.3013),
}
ELECTRIC_REFERENCE_TABLE = {
    1: (2.74371, 6.11676, 9.31662, 12.4859),
    2: (3.87024, 7.44309, 10.713, 13.9205),
    3: (4.97342, 8.72175, 12.0636, 15.3136),
    4: (6.06195, 9.96755, 13.3801, 16.6742),
}
MAGNETIC_TABLE_SKIPPED_ROOTS = {1: 14.06619, 2: 9.09501, 3: 16.92362}


# --------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class SphereQuadrature:
    """Gauss-Legendre (in cos theta) x uniform-phi product rule.

    Exact for spherical-harmonic products with combined degree up to the
    rule's design degree.  ``integrate`` accepts values sampled on the
    (theta, phi) meshgrid with those two axes last.
    """

    theta: np.ndarray
    theta_weights: np.ndarray
    phi: np.ndarray
    phi_weight: float

    @property
    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    @cached_property
    def weights(self) -> np.ndarray:
        w = self.theta_weights[:, None] * self.phi_weight * np.ones_like(self.phi)[None, :]
        w.flags.writeable = False
        return w

    def integrate(self, values) -> complex:
        v = np.asarray(values)
        return (v * self.weights).sum(axis=(-2, -1))


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-point Gauss-Legendre rule on [-1, 1], computed once per n;
    read-only, since every caller shares the arrays."""
    nodes, weights = leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def sphere_quadrature(degree: int) -> SphereQuadrature:
    """Product rule exact for Y_lm Y_l'm'* integrands with l + l' <= degree."""
    _check_int("degree", degree, 0, 64)
    n_theta = degree // 2 + 2
    n_phi = degree + 3
    nodes, weights = _gauss_legendre(n_theta)
    return SphereQuadrature(
        theta=np.arccos(nodes),
        theta_weights=weights,
        phi=2 * np.pi * np.arange(n_phi) / n_phi,
        phi_weight=2 * np.pi / n_phi,
    )


def radial_quadrature(n: int, r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, r_max], n >= 1 and r_max finite > 0."""
    _check_int("n", n, 1, math.inf)
    if not 0 < r_max < math.inf:
        raise ValueError(f"r_max must be finite and strictly positive, got {r_max!r}")
    nodes, weights = _gauss_legendre(n)
    return 0.5 * r_max * (nodes + 1.0), 0.5 * r_max * weights


# --------------------------------------------------------------------------
# sample points
#
# The sampling checks draw from the standard library's random.Random(seed),
# which numpy has imported already, so no check pays for numpy.random.


def _uniform(rng: random.Random, low: float, high: float, n: int) -> np.ndarray:
    return np.array([rng.uniform(low, high) for _ in range(n)])


def _directions(seed: int, n: int, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """n directions from random.Random(seed): every theta, uniform in
    [margin, pi - margin], then every phi, uniform in [0, 2 pi)."""
    rng = random.Random(seed)
    return _uniform(rng, margin, math.pi - margin, n), _uniform(rng, 0.0, 2 * math.pi, n)


# --------------------------------------------------------------------------
# angular-algebra checks


_KINDS = {"eml": ("L", "E", "M"), "helicity": (+1, 0, -1), "spherical_wave": (+1, -1)}


def _labels(family: str, l_max: int) -> list[tuple]:
    """Labels of every member of a basis family through l_max, in one fixed
    order: scalar (l, m), with (l, m) at position l^2 + l + m, coupled
    (j, l, m), eml (kind, j, m) in kind order L, E, M, helicity and
    spherical_wave (lam, j, m)."""
    if family == "scalar":
        return [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
    if family == "coupled":
        return [(j, l, m) for j in range(l_max + 1) for l in (j - 1, j, j + 1)
                if l >= 0 and (j, l) != (0, 0) for m in range(-j, j + 1)]
    if family not in _KINDS:
        raise ValueError(f"unknown family {family!r}")
    # only Y^L and helicity 0 start at j = 0
    return [(k, j, m) for k in _KINDS[family]
            for j in range(0 if k in ("L", 0) else 1, l_max + 1) for m in range(-j, j + 1)]


def _family(family: str, l_max: int, tg, pg) -> tuple[list[tuple], np.ndarray]:
    """The _labels of a family and its members sampled on the grid, stacked
    on a leading member axis; a vector family is built at once from one
    harmonic table (angular._coupled_stack)."""
    labels = _labels(family, l_max)
    Y = _Harmonics(l_max + 1, tg, pg)
    if family == "scalar":
        return labels, np.stack([Y(l, m) for l, m in labels])
    if family == "coupled":
        return labels, _coupled_stack(Y, labels)
    if family == "eml":
        return labels, _vsh_stack(Y, labels)
    if family == "helicity":
        return labels, _helicity_stack(Y, labels)
    # one d^j sweep for every j; one D^(j) row per (lam, j) gives every m,
    # in the order m = j..-j
    return labels, np.concatenate([w[::-1] for w in _spherical_waves(
        range(1, l_max + 1), tg, pg, _KINDS[family])])


def check_orthonormality(family: str, l_max: int) -> tuple[float, str]:
    """Max |Gram - identity| entry over one basis family (sphere quadrature)."""
    _check_int("l_max", l_max, 0, 8)
    quad = sphere_quadrature(2 * (l_max + 2) + 2)
    tg, pg = quad.grid
    samples = _family(family, l_max, tg, pg)[1]
    # one row per function; a vector family's components share the grid weights
    w = np.broadcast_to(quad.weights, samples.shape[1:]).ravel()
    s = samples.reshape(len(samples), -1)
    gram = s.conj() @ (s * w).T
    resid = np.abs(gram - np.eye(len(s))).max()
    return resid, f"{len(s)} functions, l_max={l_max}"


def check_parity(l_max: int = 4) -> tuple[float, str]:
    """Parity eigenvalues: scalar (-1)^l; E and L carry (-1)^j, M carries
    (-1)^(j+1) under the vector parity operation (P V)(n) = -V(-n)."""
    _check_int("l_max", l_max, 0, math.inf)
    th, ph = _directions(20260810, 24, 0.1)
    tha, pha = antipode(th, ph)
    labels, flipped = _family("scalar", l_max, tha, pha)
    sign = np.array([(-1.0) ** l for l, _ in labels])[:, None]
    y0 = sign * _family("scalar", l_max, th, ph)[1]
    resid = float(np.abs(flipped - y0).max())
    # Landau-Lifshitz through the public function: its i^l phase and its
    # parity at once
    ya = np.stack([scalar_harmonic(l, m, tha, pha, HarmonicConvention.LANDAU_LIFSHITZ)
                   for l, m in labels])
    phase = np.array([1j**l for l, _ in labels])[:, None]
    resid = max(resid, float(np.abs(ya - phase * y0).max()))
    # vector parity (-1)^j for E and L, (-1)^(j + 1) for M
    labels, flipped = _family("eml", l_max, tha, pha)
    sign = np.array([(-1.0) ** (j + (kind == "M")) for kind, j, _ in labels])[:, None, None]
    expected = sign * _family("eml", l_max, th, ph)[1]
    resid = max(resid, float(np.abs(-flipped - expected).max()))
    return resid, "scalar and E/M/L vector parity eigenvalues"


def check_helicity_eigen(l_max: int = 4) -> tuple[float, str]:
    """(S.n) Y^(lam) = lam Y^(lam) pointwise, and (S.n)^2 = 1 on transverse."""
    _check_int("l_max", l_max, 0, math.inf)
    th, ph = _directions(20260811, 16, 0.1)
    labels, ys = _family("helicity", l_max, th, ph)
    y = ys.swapaxes(0, 1)  # component axis first, as helicity_apply takes it
    lam = np.array([label[0] for label in labels])
    th, ph = th[None], ph[None]  # one row of directions, broadcast over members
    resid = float(np.abs(helicity_apply(th, ph, y) - lam[:, None] * y).max())
    y = y[:, lam != 0]
    twice = helicity_apply(th, ph, helicity_apply(th, ph, y))
    resid = max(resid, float(np.abs(twice - y).max(initial=0.0)))
    return resid, f"helicity eigen-equation up to j={l_max}"


def check_vsh_linear_combinations(n_dirs: int = 100, seed: int = 3) -> tuple[float, str]:
    """E/M/L as fixed linear combinations of the coupled harmonics Y_jlm."""
    th, ph = _directions(seed, n_dirs, 0.05)
    Y, n = _Harmonics(5, th, ph), unit_radial(th, ph)
    # the E/M/L members under test in one stack, and the coupled harmonics
    # Y_{j,j+-1,m} they are compared with in another
    labels = [(kind, j, m) for kind in "ELM" for j in range(1, 5) for m in range(-j, j + 1)]
    eml = dict(zip(labels, _vsh_stack(Y, labels)))
    jlm = [(j, l, m) for j in range(1, 5) for m in range(-j, j + 1) for l in (j + 1, j - 1)]
    coupled = dict(zip(jlm, _coupled_stack(Y, jlm)))
    resid = 0.0
    for j in range(1, 5):
        a, b = math.sqrt(j / (2 * j + 1)), math.sqrt((j + 1) / (2 * j + 1))
        for m in range(-j, j + 1):
            yp, ym_ = coupled[j, j + 1, m], coupled[j, j - 1, m]
            ye, yl, ym = (eml[kind, j, m] for kind in "ELM")
            resid = max(resid, float(np.abs(ye - (a * yp + b * ym_)).max()))
            resid = max(resid, float(np.abs(yl - (a * ym_ - b * yp)).max()))
            # Y^M = L Y_jm / sqrt(j(j+1)) from the ladder operators L_+-,
            # with L_x = (L_+ + L_-)/2, L_y = (L_+ - L_-)/(2i), L_z = m
            up = math.sqrt(j * (j + 1) - m * (m + 1)) * Y(j, m + 1) if m < j else 0.0
            down = math.sqrt(j * (j + 1) - m * (m - 1)) * Y(j, m - 1) if m > -j else 0.0
            ly = np.stack([(up + down) / 2, (up - down) / 2j, m * Y(j, m)])
            resid = max(resid, float(np.abs(ym - ly / math.sqrt(j * (j + 1))).max()))
            # radial/tangential structure
            resid = max(resid, float(np.abs((n * yl).sum(axis=0) - Y(j, m)).max()))
            resid = max(resid, float(np.abs((n * ye).sum(axis=0)).max()))
    return resid, f"{n_dirs} random directions, j <= 4"


def check_cross_products() -> tuple[float, str]:
    """n x Y^E = i Y^M and Y^E = -i (n x Y^M), pointwise."""
    th, ph = _directions(11, 40, 0.05)
    labels, ys = _family("eml", 4, th, ph)
    # E and M members share their (j, m) order; component axis first
    kinds = np.array([k for k, _, _ in labels])
    ye, ym = (ys[kinds == kind].swapaxes(0, 1) for kind in ("E", "M"))
    n = unit_radial(th, ph)[:, None]
    resid = float(np.abs(np.cross(n, ye, axis=0) - 1j * ym).max())
    resid = max(resid, float(np.abs(-1j * np.cross(n, ym, axis=0) - ye).max()))
    return resid, "n x Y^E = iY^M and Y^E = -i n x Y^M, j <= 4"


# --------------------------------------------------------------------------
# scalar-function identities


def check_bessel_recurrences() -> tuple[float, str]:
    """Derivative recurrences j'_l = (l/x) j_l - j_{l+1} = j_{l-1} - ((l+1)/x) j_l,
    with j' from central finite differences."""
    x = np.linspace(0.5, 50.0, 199)
    h = 1e-6 * np.maximum(1.0, x)
    # j_l at x - h, x and x + h, every order l <= 11 in one call
    below, at, above = _bessel_orders(range(12), np.stack((x - h, x, x + h))).transpose(1, 0, 2)
    deriv = (above[:11] - below[:11]) / (2 * h)
    l = np.arange(11)[:, None]
    resid = float(np.abs(deriv - (l / x) * at[:11] + at[1:]).max())
    resid = max(resid, float(np.abs(deriv[1:] - at[:10] + ((l[1:] + 1) / x) * at[1:11]).max()))
    return resid, "l <= 10 on x in [0.5, 50]"


def check_bessel_integral(nu: float = 1.5, alpha_idx: int = 1,
                          beta_idx: int = 2) -> tuple[float, str]:
    """int_0^1 x J_nu(ax) J_nu(bx) dx = 0 (a != b) or J_{nu+1}(a)^2 / 2 (a = b)
    for a, b zeros of J_nu (half-integer nu), on ceil(max(a, b)) + 32
    Gauss-Legendre nodes (40 at the defaults)."""
    two_nu = int(round(2 * nu))
    if two_nu % 2 == 0 or two_nu < 1 or abs(2 * nu - two_nu) > 1e-12:
        raise ValueError("nu must be half-integer (1/2, 3/2, ...)")
    _check_int("alpha_idx", alpha_idx, 1, math.inf)
    _check_int("beta_idx", beta_idx, 1, math.inf)
    count = max(alpha_idx, beta_idx)
    zeros = md.spherical_bessel_zeros((two_nu - 1) // 2, count)
    a, b = zeros[alpha_idx - 1], zeros[beta_idx - 1]
    x, w = radial_quadrature(math.ceil(max(a, b)) + 32, 1.0)
    val = float(np.sum(w * x * bessel_j_halfint(two_nu, a * x) * bessel_j_halfint(two_nu, b * x)))
    expected = 0.0 if alpha_idx != beta_idx else 0.5 * bessel_j_halfint(two_nu + 2, a) ** 2
    return abs(val - expected), f"nu={nu}, zeros #{alpha_idx}, #{beta_idx}"


def check_plane_wave_expansion(k: float, r: float, dir_k, dir_r, l_max: int) -> tuple[float, str]:
    """Partial-wave expansion of exp(i k.r) against the direct exponential."""
    _check_int("l_max", l_max, 0, md.MAX_BESSEL_ORDER)
    kr = k * r
    ls = range(l_max + 1)
    # 4 pi i^l j_l(kr) conj(Y_lm(k^)) Y_lm(r^), multiplied left to right and
    # summed in (l, m) order, one term at a time; every j_l from one call
    coef = np.repeat([4 * np.pi * 1j**l * jl for l, jl in zip(ls, _bessel_orders(ls, kr))],
                     [2 * l + 1 for l in ls])
    y_k, y_r = (_family("scalar", l_max, th, ph)[1] for th, ph in (dir_k, dir_r))
    terms = coef * np.conj(y_k) * y_r
    total = np.add.accumulate(terms)[-1]
    direct = np.exp(1j * kr * float((unit_radial(*dir_k) * unit_radial(*dir_r)).sum()))
    return abs(total - direct), f"kr={kr}, l_max={l_max}"


def check_vsh_fourier(j: int, kind: str, kr: float) -> tuple[float, str]:
    """Angular transform int Y(k^) e^{i k.r} dOmega_k = g_l(kr) Y(r^) with
    g_l = 4 pi i^l j_l; the E-type maps onto the shifted-degree pair."""
    if kind not in ("scalar", "coupled", "M", "E"):
        raise ValueError(f"kind must be scalar/coupled/M/E, got {kind!r}")
    _check_int("j", j, 0 if kind == "scalar" else 1, 4)
    if kr > 20:
        raise ValueError(f"kr must be <= 20, got {kr}")
    quad = sphere_quadrature(min(64, 2 * int(math.ceil(kr)) + 2 * j + 24))
    tg, pg = quad.grid
    rng = random.Random(5)
    th_r, ph_r = np.array([(rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2 * math.pi))
                           for _ in range(3)]).T
    Y_g, Y_r = _Harmonics(j + 1, tg, pg), _Harmonics(j + 1, th_r, ph_r)
    ls = range(max(j - 1, 0), j + 2)
    g = {l: 4 * np.pi * 1j**l * jl for l, jl in zip(ls, _bessel_orders(ls, kr))}
    # the functions on the quadrature grid and their expected transforms at
    # each r^, stacked over members, with the component axis next
    ms = range(-j, j + 1)
    if kind == "scalar":
        f = np.stack([Y_g(j, m) for m in ms])[:, None]
        rhs = g[j] * np.stack([Y_r(j, m) for m in ms])[:, None]
    elif kind == "coupled":
        labels = [(j, l, m) for m in ms for l in (j - 1, j, j + 1) if l >= 0]
        f = _coupled_stack(Y_g, labels)
        rhs = np.array([g[l] for _, l, _ in labels])[:, None, None] * _coupled_stack(Y_r, labels)
    elif kind == "M":
        labels = [(kind, j, m) for m in ms]
        f, rhs = _vsh_stack(Y_g, labels), g[j] * _vsh_stack(Y_r, labels)
    else:
        a, b = math.sqrt(j / (2 * j + 1)), math.sqrt((j + 1) / (2 * j + 1))
        f = _vsh_stack(Y_g, [(kind, j, m) for m in ms])
        up, down = (_coupled_stack(Y_r, [(j, l, m) for m in ms]) for l in (j + 1, j - 1))
        rhs = a * g[j + 1] * up + b * g[j - 1] * down
    # every member's integral against the three kernels e^{i k.r} at once
    cosang = np.einsum("cab,cd->dab", unit_radial(tg, pg), unit_radial(th_r, ph_r))
    kernel = (np.exp(1j * kr * cosang) * quad.weights).reshape(3, -1)
    lhs = f.reshape(f.shape[:2] + (-1,)) @ kernel.T
    scale = np.maximum(1.0, np.abs(rhs).max(axis=1))
    resid = float((np.abs(lhs - rhs).max(axis=1) / scale).max())
    return resid, f"kind={kind}, j={j}, kr={kr}"


# --------------------------------------------------------------------------
# rotation checks


def check_dmatrix_unitarity(j_max: int = MAX_WIGNER_J, seed: int = 9) -> tuple[float, str]:
    """D^(j) D^(j)+ = 1 at random Euler angles and D^(j)(0, 0, 0) = 1, j <= j_max."""
    _check_int("j_max", j_max, 0, MAX_WIGNER_J)
    rng = random.Random(seed)
    # three angles drawn per j; angles[:, j] = (alpha, beta, gamma) of order
    # j, and the last column is (0, 0, 0)
    angles = np.zeros((3, j_max + 2))
    for j in range(j_max + 1):
        angles[:, j] = _uniform(rng, 0.0, 2 * math.pi, 3)
    # one sweep over every beta; order j is formed at its own angles and at 0
    points = [[j, -1] for j in range(j_max + 1)]
    resid = 0.0
    for j, small in enumerate(_small_d_orders(range(j_max + 1), angles[1], points)):
        alpha, gamma = angles[[0, 2]][:, points[j]]
        d, d0 = np.moveaxis(_phased(j, alpha, small, gamma), -1, 0).copy()
        resid = max(resid, float(np.abs(d @ d.conj().T - np.eye(2 * j + 1)).max()))
        resid = max(resid, float(np.abs(d0 - np.eye(2 * j + 1)).max()))
    return resid, f"random angles, j <= {j_max}"


_GOLDEN_D1 = np.array([
    [0.5, 1.0 / math.sqrt(2), 0.5],
    [-1.0 / math.sqrt(2), 0.0, 1.0 / math.sqrt(2)],
    [0.5, -1.0 / math.sqrt(2), 0.5],
])


def check_dmatrix_golden() -> tuple[float, str]:
    """The j=1, beta=pi/2 matrix entry-for-entry, and the worked vector
    rotation x-axis -> z-axis under the quarter-turn frame rotation."""
    d = wigner_d_matrix(1, 0.0, math.pi / 2, 0.0)
    resid = float(np.abs(d - _GOLDEN_D1).max())
    rotated = rotate_cartesian([1.0, 0.0, 0.0], 0.0, math.pi / 2, 0.0)
    resid = max(resid, float(np.abs(rotated - np.array([0.0, 0.0, 1.0])).max()))
    return resid, "d^1(pi/2) matrix and (1,0,0)->(0,0,1) rotation"


# --------------------------------------------------------------------------
# mode checks


def check_mode_tables() -> tuple[float, str]:
    """Reproduce the reference frequency tables.

    Electric entries must match the computed sequence positionally
    (n = 1..4).  Magnetic entries are checked as members of the computed
    sequence, because the published magnetic rows j = 1, 2, 3 each skip
    one true root (14.06619, 9.09501, 16.92362 respectively); the check
    confirms those skipped roots are present in the solver's output and
    reports them in the details.
    """
    resid = 0.0
    for j, row in ELECTRIC_REFERENCE_TABLE.items():
        roots = md.find_roots("E", j, len(row))
        for n, ref in enumerate(row):
            resid = max(resid, abs(roots[n] - ref) / ref)
    skipped_found = []
    for j, row in MAGNETIC_REFERENCE_TABLE.items():
        roots = md.find_roots("M", j, 5)
        for ref in row:
            resid = max(resid, min(abs(r - ref) / ref for r in roots))
        if j in MAGNETIC_TABLE_SKIPPED_ROOTS:
            skip = MAGNETIC_TABLE_SKIPPED_ROOTS[j]
            nearest = min(roots, key=lambda r: abs(r - skip))
            resid = max(resid, abs(nearest - skip) / skip)
            skipped_found.append(f"j={j}: {nearest:.5f}")
    details = ("electric rows positional, magnetic rows by membership; "
               "roots absent from the magnetic reference rows were found at "
               + "; ".join(skipped_found))
    return resid, details


def check_dual_condition(j_max: int = 6, n_each: int = 8) -> tuple[float, str]:
    """Electric and magnetic root sets are disjoint and omega^E_{j,1} <
    omega^M_{j,1} for every j <= j_max; the roots of both types and every j
    come from one root pass, bit for bit those of find_roots."""
    # find_roots' ranges, which the unvalidated joint pass does not check
    _check_int("j_max", j_max, 1, md.MAX_BESSEL_ORDER - 1)
    _check_int("n_each", n_each, 1, md._MAX_COUNT)
    min_dist = np.inf
    ok = True
    entries = md._roots((md.TAU_ELECTRIC, md.TAU_MAGNETIC), list(range(1, j_max + 1)))
    for ee, em in zip(entries[md.TAU_ELECTRIC], entries[md.TAU_MAGNETIC]):
        re, rm = ee.roots[:n_each], em.roots[:n_each]
        min_dist = min(min_dist, min(abs(a - b) for a in re for b in rm))
        ok = ok and (re[0] < rm[0])
    resid = 0.0 if (ok and min_dist > 1e-6) else 1.0
    return resid, (f"j <= {j_max}, min |x_E - x_M| = {min_dist:.4f}, "
                   f"lowest-root ordering {'holds' if ok else 'fails'}")


def _mode_energies(specs: list[md.ModeSpec]) -> np.ndarray:
    """Electric and magnetic field energies, (1/4) w^2 eps0 int |A|^2 d3r and
    (1/4 mu0) int |B|^2 d3r, of each mode of one cavity: shape (len(specs), 2).
    As B carries k = w/c and 1/mu0 = eps0 c^2, both take the factor w^2 eps0 / 4.

    A / N and B / (i k N) are sums of c_l j_l(kr) Y_{j,l,m}, one row each of
    modes._multipole_terms, and the Y_{j,l,m} are orthonormal on the sphere,
    so int |A|^2 d3r = N^2 sum_l c_l^2 int_0^R r^2 j_l(kr)^2 dr, and
    int |B|^2 d3r is k^2 times that sum over B's row; m does not enter.  The
    radial integrals are summed on ceil(x_max) + 24 Gauss-Legendre nodes over
    [0, R], x_max the largest root kR of the specs, on which products of the
    j_l(kr) up to x_max integrate to rounding level.  The modes are grouped
    by j; each group takes its three orders from one multi-order Bessel call
    (specfun._bessel_orders).
    """
    config = specs[0].config
    r, wr = radial_quadrature(math.ceil(max(s.x_root for s in specs)) + 24, config.radius)
    groups: dict[int, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.index.j, []).append(i)
    out = np.empty((len(specs), 2))
    for j, idx in groups.items():
        omega = np.array([specs[i].omega for i in idx])
        x = (omega / config.wave_speed)[:, None] * r
        radial = _bessel_orders((j - 1, j, j + 1), x) ** 2 @ (wr * r * r)
        c = np.stack([md._multipole_terms(specs[i].index.tau, j) for i in idx])
        n2 = np.array([specs[i].norm_const for i in idx]) ** 2
        out[idx] = (0.25 * omega**2 * config.epsilon0 * n2)[:, None] * np.einsum(
            "mpa,am->mp", c * c, radial)
    return out


def check_mode_energy(j_max: int = 3, n_max: int = 3) -> tuple[float, str]:
    """Quadrature energy of each normalized mode of spectrum(j_max, n_max)
    equals hbar omega.  The energy is (1/2) w^2 eps0 int |A|^2 d3r, twice
    the electric part of _mode_energies, whose radial rule has 38 nodes at
    the defaults and 155 at (20, 32); the range of j_max and n_max is
    spectrum's."""
    specs = md.spectrum(j_max, n_max)
    energy = 2.0 * _mode_energies(specs)[:, 0]
    hbar_omega = np.array([spec.config.hbar * spec.omega for spec in specs])
    resid = np.abs(energy / hbar_omega - 1.0).max()
    return resid, f"all modes with j <= {j_max}, n <= {n_max}"


def check_mode_equipartition(j_max: int = 2, n_max: int = 2) -> tuple[float, str]:
    """Electric-part and magnetic-part field energies of each mode of
    spectrum(j_max, n_max) agree: _mode_energies, whose radial rule has 34
    nodes at the defaults and 155 at (20, 32), with B the closed-form curl."""
    specs = md.spectrum(j_max, n_max)
    e_elec, e_mag = _mode_energies(specs).T
    resid = np.abs(e_mag / e_elec - 1.0).max()
    return resid, f"modes with j <= {j_max}, n <= {n_max}, closed-form curl"


def check_mode_boundary(j_max: int = 3, n_max: int = 2, n_dirs: int = 64) -> tuple[float, str]:
    """Every mode of spectrum(j_max, n_max) has zero tangential E and normal B at
    r = R: the largest boundary_residual over the modes, tangential E relative
    to the mode's one-photon RMS field E_rms = sqrt(2 hbar omega / (eps0 V)),
    V = 4 pi R^3 / 3, and normal B to B_rms = E_rms / c."""
    resid = md._boundary_residuals(md.spectrum(j_max, n_max), n_dirs).max()
    return resid, (f"{2 * j_max * n_max} modes, j <= {j_max}, n <= {n_max} "
                   f"({n_dirs} directions each)")


# --------------------------------------------------------------------------
# completeness / projection


def vsh_project(field_fn, l_max: int,
                quadrature: SphereQuadrature | None = None):
    """Project a tangential+radial vector field onto the E/M/L basis.

    Returns (coefficients, residual): a dict keyed by (kind, l, m) of inner
    products <Y^kind_lm, field>, and the largest error of the resummed
    expansion on the quadrature grid, relative to max(1, max |field|).

    Both directions go through one table of scalar Y_lm, l <= l_max + 1.
    Analysis: one matmul gives a_mu(l, m') = <Y_lm', e_mu* . field> for
    mu = +1, 0, -1.  As Y^kind_jm = sum_l w_l Y_jlm and
    Y_jlm = sum_mu <l, 1; m-mu, mu | j, m> e_mu Y_{l,m-mu}, each member's
    coefficient is a sparse Clebsch-Gordan recoupling of a, at most six
    terms.  Synthesis applies the transposed recoupling to the
    coefficients, one matmul back to the grid, and then the e_mu.
    """
    # the default rule's degree 2 (l_max + 2) + 2 is at most 64
    _check_int("l_max", l_max, 0, math.inf if quadrature else 29)
    quad = quadrature or sphere_quadrature(2 * (l_max + 2) + 2)
    tg, pg = quad.grid
    field = np.asarray(field_fn(tg, pg), dtype=complex)
    scalars, table = _family("scalar", l_max + 1, tg, pg)
    table = table.reshape(len(scalars), -1)
    f = _apply(_U.conj(), field).reshape(3, -1)
    a = (f * quad.weights.ravel()) @ table.conj().T
    labels = _labels("eml", l_max)
    # recouple[i, mu, s]: the weight of a_mu(scalar s) in member i
    recouple = np.zeros((len(labels), 3, len(scalars)))
    for i, (kind, j, m) in enumerate(labels):
        for l, w in _eml_terms(kind, j):
            for k, mu in enumerate((+1, 0, -1)):
                cg = cg_s1(l, j, mu, m)  # 0.0 when |m - mu| > l
                if cg:
                    recouple[i, k, l * l + l + m - mu] = w * cg
    recouple = recouple.reshape(len(labels), -1)
    c = recouple @ a.ravel()
    recon = _apply(_U.T, (c @ recouple).reshape(3, -1) @ table)
    scale = max(1.0, float(np.abs(field).max()))
    resid = float(np.abs(recon - field.reshape(3, -1)).max()) / scale
    return dict(zip(labels, c.tolist())), resid


def check_completeness(l_max: int = 8, seed: int = 7) -> tuple[float, str]:
    """A random band-limited vector field is reproduced by projection and
    resummation over {Y^L, Y^E, Y^M}."""
    rng = random.Random(seed)
    terms = []
    for kind in ("L", "E", "M"):
        for l in range(0 if kind == "L" else 1, min(4, l_max) + 1):
            for m in range(-l, l + 1):
                terms.append((kind, l, m,
                              complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) / (1 + l)))

    def field(t, p):
        # members from one stack, summed term by term: a synthesis apart from vsh_project's
        members = _vsh_stack(_Harmonics(5, t, p), [term[:3] for term in terms])
        out = np.zeros((3,) + t.shape, dtype=complex)
        for (*_, c), v in zip(terms, members):
            out += c * v
        return out

    coeffs, resid = vsh_project(field, l_max)
    for kind, l, m, c in terms:
        resid = max(resid, abs(coeffs[(kind, l, m)] - c))
    return resid, f"{len(terms)} random components, projection through l={l_max}"


def check_quadrature_convergence() -> tuple[float, str]:
    """Doubling the rule degree must not grow a representative residual by
    more than 10x (guards against accidental exactness)."""

    def gram_resid(degree):
        quad = sphere_quadrature(degree)
        Y = _Harmonics(4, *quad.grid)
        resid = 0.0
        for (la, ma), (lb, mb) in (((3, 1), (3, 1)), ((4, -2), (2, 1)), ((2, 0), (4, 0))):
            g = quad.integrate(np.conj(Y(la, ma)) * Y(lb, mb))
            resid = max(resid, abs(g - (1.0 if (la, ma) == (lb, mb) else 0.0)))
        return resid

    r1, r2 = gram_resid(14), gram_resid(28)
    ratio = r2 / (10.0 * r1 + 1e-15)
    return ratio, f"residual {r1:.2e} at degree 14 vs {r2:.2e} at 28"


# --------------------------------------------------------------------------
# entanglement checks


def check_entangle_catalog() -> tuple[float, str]:
    """10 partitions (4 of one field, 6 of two) and 40 distinct catalog entries."""
    parts = ent.enumerate_partitions()
    catalog = ent.enumerate_catalog()
    ids = [e.identifier for e in catalog]
    ok = (len(parts) == 10
          and sum(1 for p in parts if len(p.alpha_fields) == 1) == 4
          and sum(1 for p in parts if len(p.alpha_fields) == 2) == 6
          and len(catalog) == 40 and len(set(ids)) == 40)
    return 0.0 if ok else 1.0, f"{len(parts)} partitions, {len(catalog)} catalog entries"


def check_entangle_factorization() -> tuple[float, str]:
    """Every catalog entry built with distinct labels passes the Bell
    factorization and exchange-symmetry checks; the antisymmetric
    construction with equal spectator labels symmetrizes to zero."""
    values = {"tau": ("E", "M"), "omega": (1, 2), "j": (1, 2), "m": (0, 1)}
    resid = 0.0
    for entry in ent.enumerate_catalog():
        p = entry.partition
        alpha = tuple(tuple(values[f][i] for f in p.alpha_fields) for i in (0, 1))
        gamma = tuple(tuple(values[f][i] for f in p.gamma_fields) for i in (0, 1))
        state = ent.build_state(p, entry.bell, alpha, gamma)
        resid = max(resid, ent.factorization_check(state, p, entry.bell, alpha, gamma))
    # degenerate antisymmetric construction must vanish
    p0 = ent.partition_by_id("omega")
    try:
        ent.build_state(p0, "psi-minus", ((1,), (2,)), (("E", 1, 0), ("E", 1, 0)))
        resid = max(resid, 1.0)
        zero_note = "MISSED degenerate zero state"
    except ent.DegenerateStateError:
        zero_note = "degenerate psi-minus construction correctly reported as zero"
    return resid, f"all 40 catalog entries; {zero_note}"


# --------------------------------------------------------------------------
# suite driver


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check: ``passed`` iff ``max_residual < tolerance``."""

    name: str
    max_residual: float
    tolerance: float
    details: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.max_residual < self.tolerance)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "details": self.details,
        }


# name: (default tolerance, the suite's call of the check given the suite seed)
_SUITE = {
    "bessel_integral": (1e-9, lambda seed: check_bessel_integral(1.5, 1, 2)),
    "bessel_recurrences": (1e-8, lambda seed: check_bessel_recurrences()),
    "completeness": (1e-10, lambda seed: check_completeness(seed=seed)),
    "cross_products": (1e-13, lambda seed: check_cross_products()),
    "dmatrix_golden": (1e-12, lambda seed: check_dmatrix_golden()),
    "dmatrix_unitarity": (1e-12, lambda seed: check_dmatrix_unitarity(seed=seed)),
    "dual_condition": (0.5, lambda seed: check_dual_condition()),
    "entangle_catalog": (0.5, lambda seed: check_entangle_catalog()),
    "entangle_factorization": (1e-14, lambda seed: check_entangle_factorization()),
    "helicity_eigen": (1e-12, lambda seed: check_helicity_eigen()),
    "mode_boundary": (1e-7, lambda seed: check_mode_boundary()),
    "mode_energy": (1e-8, lambda seed: check_mode_energy()),
    "mode_equipartition": (1e-6, lambda seed: check_mode_equipartition()),
    "mode_tables": (5e-5, lambda seed: check_mode_tables()),
    "orthonormality_coupled": (1e-11, lambda seed: check_orthonormality("coupled", 4)),
    "orthonormality_eml": (1e-11, lambda seed: check_orthonormality("eml", 4)),
    "orthonormality_helicity": (1e-11, lambda seed: check_orthonormality("helicity", 4)),
    "orthonormality_scalar": (1e-12, lambda seed: check_orthonormality("scalar", 6)),
    "orthonormality_spherical_wave": (
        1e-11, lambda seed: check_orthonormality("spherical_wave", 4)),
    "parity": (1e-12, lambda seed: check_parity()),
    "plane_wave_expansion": (1e-10, lambda seed: check_plane_wave_expansion(
        2.0, 1.0, (0.7, 1.3), (2.1, 5.0), 20)),
    "quadrature_convergence": (1.0, lambda seed: check_quadrature_convergence()),
    "vsh_fourier": (1e-9, lambda seed: max(
        (check_vsh_fourier(*args) for args in (
            (0, "scalar", 1.0), (1, "M", 2.5), (2, "E", 3.0), (2, "coupled", 2.0))),
        key=lambda r: r[0])),
    "vsh_linear_combinations": (1e-12, lambda seed: check_vsh_linear_combinations(seed=seed)),
}

DEFAULT_TOLERANCES = {name: tol for name, (tol, _) in _SUITE.items()}


def suite_check_names() -> list[str]:
    return sorted(_SUITE)


def run_suite(only: list[str] | str | None = None,
              tolerances: dict[str, float] | None = None,
              seed: int = 12345) -> list[CheckReport]:
    """Run the named checks (all by default) and return reports in name order.

    ``only`` filters by substring match against check names, a string being
    one filter; ``tolerances`` replaces a check's default tolerance with a
    finite number > 0.  A filter that matches no check, or an override that
    names no check or is not such a number, raises ValueError before any
    check runs.  ``seed`` reaches only the checks whose registry call passes
    it on, which draw their points from the standard library's
    ``random.Random(seed)``; the other sampling checks seed it with fixed
    numbers.  Each report holds the check's residual and details, and the
    override or the default tolerance.
    """
    tolerances = {name: float(tol) for name, tol in (tolerances or {}).items()}
    unknown = sorted(set(tolerances) - set(_SUITE))
    if unknown:
        raise ValueError(f"unknown check name(s) in tolerances: {unknown}")
    for name, tol in tolerances.items():
        if not 0 < tol < math.inf:
            raise ValueError(f"tolerance for {name} must be a finite number > 0, got {tol}")
    names = suite_check_names()
    only = [only] if isinstance(only, str) else only
    if only:
        names = [n for n in names if any(f in n for f in only)]
        if not names:
            raise ValueError(f"no checks match filters {only!r}")
    reports = []
    for name in names:
        default, run = _SUITE[name]
        residual, details = run(seed)
        reports.append(CheckReport(name, float(residual), tolerances.get(name, default), details))
    return reports
