"""Independent oracle implementations used by the tests.

Everything here is deliberately written against a different code path
than the library under test: plain ascending series, high-precision
mpmath evaluations, scipy special functions, explicit operator-matrix
diagonalization, hand-rolled bisection, and a finite-difference curl.
Nothing here imports sphcavity.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special


def series_spherical_jl(l: int, x: float, terms: int = 50) -> float:
    """Ascending series j_l(x) = x^l sum_k (-x^2/2)^k / (k! (2l+2k+1)!!)."""
    dfact = 1.0
    for k in range(2 * l + 1, 1, -2):
        dfact *= k
    term = x**l / dfact
    total = term
    for k in range(1, terms):
        term *= (-x * x / 2.0) / (k * (2 * l + 2 * k + 1))
        total += term
    return total


def mp_spherical_jl(l: int, x: float):
    """High-precision j_l(x) via mpmath."""
    import mpmath as mp

    with mp.workdps(40):
        if x == 0:
            return 1.0 if l == 0 else 0.0
        return float(mp.sqrt(mp.pi / (2 * mp.mpf(x))) * mp.besselj(l + mp.mpf(1) / 2, mp.mpf(x)))


def mp_spherical_jy(l: int, x: float) -> tuple[float, float]:
    """High-precision (j_l(x), y_l(x)) via mpmath, for x > 0."""
    import mpmath as mp

    with mp.workdps(40):
        xm = mp.mpf(x)
        scale = mp.sqrt(mp.pi / (2 * xm))
        nu = l + mp.mpf(1) / 2
        return float(scale * mp.besselj(nu, xm)), float(scale * mp.bessely(nu, xm))


def mp_wigner_small_d(j: int, beta: float) -> np.ndarray:
    """Passive reduced rotation matrix d^j(beta) by the factorial sum in 50-digit mpmath.

    Rows and columns run m', m = j..-j.  The passive matrix is the
    transpose of the active one, <j m'| exp(-i beta J_y) |j m>, which is
    the sum over s of (-1)^(m' - m + s) sqrt((j+m')!(j-m')!(j+m)!(j-m)!)
    c^(2j+m-m'-2s) sn^(m'-m+2s) / ((j+m-s)! s! (m'-m+s)! (j-m'-s)!), with
    c = cos(beta/2) and sn = sin(beta/2).
    """
    import mpmath as mp

    fact = [math.factorial(n) for n in range(2 * j + 1)]  # exact integers
    with mp.workdps(50):
        half = mp.mpf(beta) / 2
        cpow = [mp.cos(half) ** n for n in range(2 * j + 1)]
        spow = [mp.sin(half) ** n for n in range(2 * j + 1)]
        mvals = range(j, -j - 1, -1)
        out = np.empty((2 * j + 1, 2 * j + 1))
        for col, mp_ in enumerate(mvals):  # active row m' is the passive column
            for row, m in enumerate(mvals):
                total = mp.mpf(0)
                for s in range(max(0, m - mp_), min(j + m, j - mp_) + 1):
                    den = fact[j + m - s] * fact[s] * fact[mp_ - m + s] * fact[j - mp_ - s]
                    total += ((-1) ** (mp_ - m + s) * cpow[2 * j + m - mp_ - 2 * s]
                              * spow[mp_ - m + 2 * s] / den)
                scale = mp.sqrt(fact[j + mp_] * fact[j - mp_] * fact[j + m] * fact[j - m])
                out[row, col] = float(scale * total)
    return out


def bisect_root(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Plain bisection; f(a) and f(b) must have opposite signs."""
    fa, fb = f(a), f(b)
    assert fa * fb < 0, "bisection bracket must straddle a sign change"
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def scan_roots_bisection(f, count: int, step: float = 0.25, x0: float = 1e-8) -> list[float]:
    """First `count` positive roots by scan + bisection (independent refiner)."""
    roots = []
    a, fa = x0, f(x0)
    while len(roots) < count:
        b = a + step
        fb = f(b)
        if fa * fb < 0:
            roots.append(bisect_root(f, a, b))
        a, fa = b, fb
        assert a < 1e4, "failed to find enough roots"
    return roots


def fd_curl(a_fn, pos, h: float) -> np.ndarray:
    """curl A by central differences with one Richardson step (h and h/2).

    a_fn maps Cartesian positions, shape (3, ...), to A of the same shape;
    the error is O(h^4) plus the rounding of a_fn amplified by 1/h.
    """
    pos = np.asarray(pos, dtype=float)
    out = np.zeros(pos.shape, dtype=complex)
    for hh, weight in ((h, -1.0 / 3.0), (h / 2.0, 4.0 / 3.0)):
        d = []
        for axis in range(3):
            e = np.zeros((3,) + (1,) * (pos.ndim - 1))
            e[axis] = hh
            d.append((a_fn(pos + e) - a_fn(pos - e)) / (2 * hh))
        out += weight * np.stack([d[1][2] - d[2][1], d[2][0] - d[0][2], d[0][1] - d[1][0]])
    return out


def _ladder_ops(two_j: int):
    """(jz, jplus) matrices for spin j = two_j/2 in the m = j..-j basis."""
    j = two_j / 2.0
    dim = two_j + 1
    mvals = j - np.arange(dim)
    jz = np.diag(mvals)
    jp = np.zeros((dim, dim))
    for col, m in enumerate(mvals):
        if m + 1 <= j:
            jp[col - 1, col] = np.sqrt(j * (j + 1) - m * (m + 1))
    return jz, jp


def cg_by_diagonalization(l: int) -> dict:
    """All <l, 1; m-mu, mu | j m> from brute-force J^2 = (L+S)^2 diagonalization.

    Builds the 3(2l+1)-dimensional product space, diagonalizes J^2 in each
    J_z block, fixes the Condon-Shortley sign (coefficient of the maximal
    orbital projection m_l = l positive in the top state), and derives the
    lower-m states by applying the lowering operator.  Returns a dict
    keyed by (j, mu, m).
    """
    lz, lp = _ladder_ops(2 * l)
    sz, sp = _ladder_ops(2)
    dim_l, dim_s = 2 * l + 1, 3
    eye_l, eye_s = np.eye(dim_l), np.eye(dim_s)

    def total(op_l, op_s):
        return np.kron(op_l, eye_s) + np.kron(eye_l, op_s)

    jz = total(lz, sz)
    jplus = total(lp, sp)
    jminus = jplus.T
    jx = 0.5 * (jplus + jminus)
    jy_im = 0.5 * (jplus - jminus)  # Jy = -i * jy_im
    j2 = jx @ jx - jy_im @ jy_im + jz @ jz

    def basis_index(m_l, mu):
        return (l - m_l) * dim_s + (1 - mu)

    out = {}
    for j in (l - 1, l, l + 1):
        if j < 0 or (j == 0 and l == 0):
            continue
        if j == 0 and l != 1:
            continue
        # top state m = j from the restricted J^2 block
        idx = [basis_index(j - mu, mu) for mu in (+1, 0, -1)
               if abs(j - mu) <= l]
        block = j2[np.ix_(idx, idx)]
        w, v = np.linalg.eigh(block)
        col = int(np.argmin(np.abs(w - j * (j + 1))))
        vec_small = v[:, col]
        vec = np.zeros(dim_l * dim_s)
        vec[idx] = vec_small
        pos_l = basis_index(l, j - l)  # CS: maximal m_l component positive
        if vec[pos_l] < 0:
            vec = -vec
        m = j
        while True:
            for mu in (+1, 0, -1):
                if abs(m - mu) <= l:
                    out[(j, mu, m)] = vec[basis_index(m - mu, mu)]
            if m == -j:
                break
            vec = jminus @ vec
            vec = vec / np.linalg.norm(vec)
            m -= 1
    return out


def scipy_scalar_harmonic(l: int, m: int, theta, phi):
    """Condon-Shortley scalar harmonic via scipy."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if hasattr(special, "sph_harm_y"):
        return special.sph_harm_y(l, m, theta, phi)
    return special.sph_harm(m, l, phi, theta)


def mp_scalar_harmonic(l: int, m: int, theta: float, phi: float) -> complex:
    """Condon-Shortley Y_lm(theta, phi) in 40-digit mpmath, exact in the float angles."""
    import mpmath as mp

    with mp.workdps(40):
        return complex(mp.spherharm(l, m, theta, phi))


def _dtheta_harmonic(l, m, theta, phi, harm):
    """Analytic theta-derivative of Y_lm via the order-ladder identity."""
    out = np.zeros(np.broadcast(np.asarray(theta), np.asarray(phi)).shape, dtype=complex)
    if m + 1 <= l:
        out += 0.5 * np.sqrt((l - m) * (l + m + 1)) * np.exp(-1j * np.asarray(phi)) \
            * harm(l, m + 1, theta, phi)
    if m - 1 >= -l:
        out -= 0.5 * np.sqrt((l + m) * (l - m + 1)) * np.exp(1j * np.asarray(phi)) \
            * harm(l, m - 1, theta, phi)
    return out


def gradient_form_vsh(j: int, m: int, theta, phi, harm=scipy_scalar_harmonic):
    """(Y^E, Y^M) from the spherical-coordinate gradient forms.

    Y^E = (dY/dtheta theta_hat + (im/sin) Y phi_hat) / sqrt(j(j+1))
    Y^M = i ((im/sin) Y theta_hat - dY/dtheta phi_hat) / sqrt(j(j+1))

    Not valid at the poles.  Independent of the Clebsch-Gordan coupling
    path used by the library.
    """
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    that = np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)])
    phat = np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(ph)])
    norm = np.sqrt(j * (j + 1))
    y = harm(j, m, th, ph)
    dth = _dtheta_harmonic(j, m, th, ph, harm)
    dphi_over_sin = 1j * m * y / np.sin(th)
    ye = (dth * that + dphi_over_sin * phat) / norm
    ym = 1j * (dphi_over_sin * that - dth * phat) / norm
    return ye, ym


def angular_momentum_apply(l: int, m: int, theta, phi, harm=scipy_scalar_harmonic):
    """Cartesian components of (L Y_lm)(theta, phi) via ladder operators."""
    shape = np.broadcast(np.asarray(theta), np.asarray(phi)).shape
    yp = harm(l, m + 1, theta, phi) if m + 1 <= l else np.zeros(shape, dtype=complex)
    ym = harm(l, m - 1, theta, phi) if m - 1 >= -l else np.zeros(shape, dtype=complex)
    lp = np.sqrt(l * (l + 1) - m * (m + 1)) * yp
    lm = np.sqrt(l * (l + 1) - m * (m - 1)) * ym
    lz = m * harm(l, m, theta, phi)
    return np.stack([(lp + lm) / 2.0, (lp - lm) / 2j, lz])


def ladder_form_coupled_vsh(j: int, l: int, m: int, theta, phi,
                            harm=scipy_scalar_harmonic):
    """Coupled VSH Y_jlm from the radial/angular-momentum operator forms.

    Y_jjm     = L Y_jm / sqrt(j(j+1))
    Y_j,j-1,m = -[-j n + i n x L] Y_jm / sqrt(j(2j+1))
    Y_j,j+1,m = -[(j+1) n + i n x L] Y_jm / sqrt((j+1)(2j+1))

    Completely independent of any Clebsch-Gordan table.
    """
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    n = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                  np.cos(th) * np.ones_like(ph)])
    if l == j:
        return angular_momentum_apply(j, m, th, ph, harm) / np.sqrt(j * (j + 1))
    ly = angular_momentum_apply(j, m, th, ph, harm)
    y = harm(j, m, th, ph)
    ncross = np.cross(n, ly, axis=0)
    if l == j - 1:
        return -(-j * n * y + 1j * ncross) / np.sqrt(j * (2 * j + 1))
    if l == j + 1:
        return -((j + 1) * n * y + 1j * ncross) / np.sqrt((j + 1) * (2 * j + 1))
    raise ValueError(f"l must be j-1, j, j+1, got {l}")


def energy_normalization_constant(tau: str, j: int, x: float,
                                  n_nodes: int = 400) -> float:
    """Normalization constant from brute-force quadrature of the mode energy.

    Dimensionless units (R = c = hbar = eps0 = 1): the amplitude C such
    that (1/2) omega^2 int |A|^2 d^3r = omega for the mode with root x,
    using scipy Bessel functions and Gauss-Legendre radial quadrature.
    """
    nodes, weights = leggauss(n_nodes)
    r = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    if tau.upper() == "M":
        radial_sq = special.spherical_jn(j, x * r) ** 2
    else:
        radial_sq = (j * special.spherical_jn(j + 1, x * r) ** 2
                     + (j + 1) * special.spherical_jn(j - 1, x * r) ** 2)
    integral = float(np.sum(w * radial_sq * r * r))
    return float(np.sqrt(2.0 / (x * integral)))
