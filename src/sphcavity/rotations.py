"""Wigner D-matrices for passive rotations, and helicity wave functions.

The D-matrix convention is the passive one (rotation of the coordinate
frame): D^(j)_{m'm}(alpha, beta, gamma) = e^{i m' gamma} d^j_{m'm}(beta)
e^{i m alpha}, pinned by the j=1, beta=pi/2 golden matrix

    [[ 1/2,  1/sqrt2, 1/2],
     [-1/sqrt2, 0,    1/sqrt2],
     [ 1/2, -1/sqrt2, 1/2]]

(rows m' = +1, 0, -1; columns m = +1, 0, -1).  Covariant spherical
components of a vector transform as V' = D^(1) V; coefficient vectors of
functions expanded in Y_jm transform with conj(D^(j)).  An active
rotation is the passive rotation with inverted angles,
(alpha, beta, gamma) -> (-gamma, -beta, -alpha).

Matrices are indexed with m', m DESCENDING from +j to -j; use
:func:`m_index` or :func:`wigner_entry` to address entries by quantum
number.

The reduced matrix is evaluated in the closed Jacobi form
d^j_{m'm}(beta) = +-N sin(beta/2)^a cos(beta/2)^b P_k^(a,b)(cos beta),
all (m', m) at once by the three-term recurrence in k, over any array of
beta.  Its error against 50-digit mpmath stays below 1e-14 up to the
largest supported j = 20, and the identity at zero angles is exact.
Every angle argument broadcasts: matrices have shape
(2j+1, 2j+1) + the angles' shape, vectors (3,) + the angles' shape (the
Cartesian axis first, as in :mod:`angular`); scalar angles give
(2j+1, 2j+1) and (3,).  A point's value does not depend on the other
points in the call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .angular import _U, spherical_to_cartesian_components

__all__ = [
    "MAX_WIGNER_J",
    "m_index",
    "wigner_entry",
    "wigner_small_d",
    "wigner_d_matrix",
    "inverse_angles",
    "euler_to_rotation_matrix",
    "rotation_matrix_to_euler",
    "rotate_spherical",
    "rotate_cartesian",
    "rotate_jm_coefficients",
    "helicity_polarization_vector",
    "spherical_wave_helicity",
    "plane_to_spherical_coefficient",
]

MAX_WIGNER_J = 20


def m_index(j: int, m: int) -> int:
    """Row/column index of quantum number m in a (2j+1) matrix (m = j..-j)."""
    if abs(m) > j:
        raise ValueError(f"|m| must not exceed j, got j={j}, m={m}")
    return j - m


def wigner_entry(matrix: np.ndarray, j: int, m_prime: int, m: int):
    """Entry D^(j)_{m'm} of a matrix produced by this module."""
    return matrix[m_index(j, m_prime), m_index(j, m)]


def _check_j(j: int) -> None:
    if not isinstance(j, (int, np.integer)) or j < 0 or j > MAX_WIGNER_J:
        raise ValueError(f"j must be an integer in [0, {MAX_WIGNER_J}], got {j}")


@lru_cache(maxsize=MAX_WIGNER_J + 1)
def _jacobi_table(j: int):
    """Jacobi form of d^j: d^j_{m'm} = sign N s^a c^b P_k^(a,b)(cos beta).

    a = |m' - m|, b = |m' + m| and k = j - (a + b)/2 fix a term, shared by
    up to four entries.  Returns the distinct terms' k, a, b and
    N = sqrt(k! (k+a+b)! / ((k+a)! (k+b)!)), ordered by k descending; the
    recurrence coefficients of each step n = 2..k_max on the terms it
    updates; and for the (2j+1, 2j+1) entries (m', m = j..-j) the term
    they read and their sign (-1)^max(0, m - m') of the passive convention.
    """
    mv = np.arange(j, -j - 1, -1)
    mp, m = mv[:, None], mv[None, :]
    width = 2 * j + 1
    a_mm, b_mm = np.abs(mp - m), np.abs(mp + m)
    # ascending a + b is descending k
    keys, index = np.unique((a_mm + b_mm) * width + a_mm, return_inverse=True)
    a = keys % width
    b = keys // width - a
    k = j - (a + b) // 2
    f = [math.factorial(n) for n in range(2 * j + 1)]
    norm = np.array([math.sqrt(f[kk] * f[kk + aa + bb] / (f[kk + aa] * f[kk + bb]))
                     for kk, aa, bb in zip(k.tolist(), a.tolist(), b.tolist())])
    # 2n(n+a+b)(t-2) P_n = (t-1)[t(t-2) x + a^2 - b^2] P_{n-1}
    #                      - 2(n+a-1)(n+b-1) t P_{n-2},  t = 2n + a + b;
    # step n updates the terms with k >= n, a prefix
    n = np.arange(2, j + 1)[:, None]
    t = 2 * n + a + b
    coeffs = ((t - 1) * (a * a - b * b), (t - 1) * t * (t - 2),
              2 * (n + a - 1) * (n + b - 1) * t, 2 * n * (n + a + b) * (t - 2))
    steps = [(live, *(cf[row, :live] for cf in coeffs))
             for row, live in enumerate(np.count_nonzero(k >= n, axis=1).tolist())]
    sign = np.where((m > mp) & ((m - mp) % 2 == 1), -1.0, 1.0)
    return k, a, b, norm, steps, index.reshape(width, width), sign


def wigner_small_d(j: int, beta) -> np.ndarray:
    """Real reduced rotation matrix d^j(beta), rows/cols m = j..-j.

    ``beta`` may be a scalar or an array; the result has shape
    (2j+1, 2j+1) + shape(beta), and each point's value does not depend on
    the other points in the call.  Within 1e-14 of 50-digit mpmath up to
    j = 20 (4e-16 at j = 20, beta = 1.1).
    """
    _check_j(j)
    k, a, b, norm, steps, index, sign = _jacobi_table(j)
    half = 0.5 * np.asarray(beta, dtype=float)
    c, s = np.cos(half), np.sin(half)
    col = (1,) * half.ndim
    a, b, norm = (t.reshape(t.shape + col) for t in (a, b, norm))
    # The recurrence runs in y = s^2 near beta = 0 and in y = c^2 near
    # beta = pi, with x = cos(beta) = sigma (1 - 2y): this keeps 1 -+ x to
    # full relative accuracy where P_k^(a,b) is steepest.
    near = s * s <= c * c
    sigma = np.where(near, 1.0, -1.0)
    y = np.where(near, s * s, c * c)
    p_prev = np.ones(k.shape + half.shape)
    p = (sigma * (a + b + 2) + a - b) / 2 - sigma * (a + b + 2) * y
    p[k < 1] = 1.0
    for live, c0, c1, c2, den in steps:
        c0, c1, c2, den = (t.reshape(t.shape + col) for t in (c0, c1, c2, den))
        sc1 = sigma * c1
        nxt = (((c0 + sc1) - 2 * sc1 * y) * p[:live] - c2 * p_prev[:live]) / den
        p_prev[:live], p[:live] = p[:live], nxt
    terms = norm * (s ** a * c ** b) * p
    return sign.reshape(sign.shape + col) * terms[index]


def wigner_d_matrix(j: int, alpha, beta, gamma) -> np.ndarray:
    """Passive-rotation D-matrix D^(j)_{m'm} = e^{im'g} d^j_{m'm}(b) e^{im a}.

    Unitary; the identity at zero angles; j <= 20.  The angles broadcast
    against each other; the result has shape (2j+1, 2j+1) + their
    broadcast shape, so scalar angles give one (2j+1, 2j+1) matrix.
    """
    alpha, beta, gamma = np.broadcast_arrays(*(np.asarray(t, dtype=float)
                                              for t in (alpha, beta, gamma)))
    d = wigner_small_d(j, beta)
    mv = np.arange(j, -j - 1, -1).reshape((-1,) + (1,) * beta.ndim)
    return np.exp(1j * mv[:, None] * gamma) * d * np.exp(1j * mv[None, :] * alpha)


def inverse_angles(alpha: float, beta: float, gamma: float) -> tuple[float, float, float]:
    """Euler angles of the inverse rotation (also: active from passive)."""
    return (-gamma, -beta, -alpha)


def euler_to_rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Real orthogonal matrix acting on Cartesian components, V' = R V.

    R = U^H D^(1) U, with U the matrix of the spherical basis whose rows are
    e_{+1}, e_0, e_{-1} (angular._U); equals Rz(gamma) Ry(beta) Rz(alpha)
    with passive single-axis blocks.
    """
    return (_U.conj().T @ wigner_d_matrix(1, alpha, beta, gamma) @ _U).real


def rotation_matrix_to_euler(matrix: np.ndarray) -> tuple[float, float, float]:
    """Euler angles (alpha, beta, gamma) reproducing a passive rotation matrix.

    Inverse of :func:`euler_to_rotation_matrix` up to the usual gimbal
    ambiguity at beta in {0, pi} (resolved with gamma = 0).
    """
    # closed form: row 2 is (sin b cos a, -sin a sin b, cos b) and column 2
    # is (-sin b cos g, -sin b sin g, cos b)
    r = np.asarray(matrix, dtype=float)
    beta = math.atan2(math.hypot(r[2, 0], r[2, 1]), r[2, 2])
    if math.hypot(r[2, 0], r[2, 1]) > 1e-12:
        alpha = math.atan2(-r[2, 1], r[2, 0])
        gamma = math.atan2(-r[1, 2], -r[0, 2])
    elif r[2, 2] > 0:  # beta ~ 0: only alpha + gamma fixed
        alpha = math.atan2(r[1, 0], r[0, 0])
        gamma = 0.0
    else:  # beta ~ pi: only alpha - gamma fixed
        alpha = math.atan2(r[1, 0], -r[0, 0])
        gamma = 0.0
    return (alpha % (2 * math.pi), beta, gamma % (2 * math.pi))


def rotate_spherical(components, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rotate covariant spherical components [V+1, V0, V-1]: V' = D^(1) V."""
    c = np.asarray(components, dtype=complex)
    if c.shape != (3,):
        raise ValueError(f"expected 3 spherical components, got shape {c.shape}")
    return wigner_d_matrix(1, alpha, beta, gamma) @ c


def rotate_cartesian(v, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rotate Cartesian components, shape (3,), into the rotated frame: V' = R V."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (3,):
        raise ValueError(f"expected 3 Cartesian components, got shape {v.shape}")
    return euler_to_rotation_matrix(alpha, beta, gamma) @ v


def rotate_jm_coefficients(j: int, coefficients, alpha: float, beta: float,
                           gamma: float) -> np.ndarray:
    """Transform expansion coefficients of a Y_jm-expanded function.

    For f = sum_m c_m Y_jm in the original frame, the same function
    expressed in the rotated frame is sum_m c'_m Y_jm with
    c' = conj(D^(j)) c.  Coefficients are ordered m = j .. -j.
    """
    c = np.asarray(coefficients, dtype=complex)
    if c.shape != (2 * j + 1,):
        raise ValueError(f"expected {2 * j + 1} coefficients for j={j}, got shape {c.shape}")
    return wigner_d_matrix(j, alpha, beta, gamma).conj() @ c


def helicity_polarization_vector(lam: int, theta, phi) -> np.ndarray:
    """Unit polarization vector e^(lam)(k) for a wave propagating along k.

    The spin basis vector e_lam actively rotated from the z-axis onto the
    direction (theta, phi): e^(lam)(k) = sum_s conj(D^(1)_{lam s}) e_s.
    Transverse (k . e = 0) for lam = +-1 and a pointwise helicity
    eigenvector, (S.k) e^(lam) = lam e^(lam); e^(0) is radial.  Angles
    broadcast; the Cartesian axis comes first: shape (3,) for scalar
    angles, (3, ...) for arrays.
    """
    if lam not in (+1, 0, -1):
        raise ValueError(f"helicity must be +1, 0 or -1, got {lam}")
    # sum_s conj(D_{lam s}) e_s is the conjugate of the vector whose
    # spherical components are the row D_{lam s}
    row = wigner_d_matrix(1, phi, theta, 0.0)[m_index(1, lam)]
    return np.conj(spherical_to_cartesian_components(row))


def _check_photon(j: int, m: int, lam: int) -> None:
    if lam not in (+1, -1):
        raise ValueError(f"physical photon helicity must be +1 or -1, got {lam}")
    if j < 1:
        raise ValueError(f"need j >= |lambda| = 1, got j={j}")
    if abs(m) > j:
        raise ValueError(f"|m| must not exceed j, got j={j}, m={m}")


def _spherical_waves(j: int, lam: int, theta, phi) -> np.ndarray:
    """psi_jm^(lam) for every m = j..-j: shape (2j+1, 3) + the angles' shape.

    All m share one D^(j) row and one polarization vector.
    """
    row = wigner_d_matrix(j, phi, theta, 0.0)[m_index(j, lam)]
    amp = math.sqrt((2 * j + 1) / (4 * math.pi)) * row
    return amp[:, None] * helicity_polarization_vector(lam, theta, phi)


def spherical_wave_helicity(j: int, m: int, lam: int, theta, phi) -> np.ndarray:
    """Angular profile of the spherical-wave helicity eigenfunction.

    psi_jm^(lam)(k) = sqrt((2j+1)/4pi) D^(j)_{lam m}(phi, theta, 0) e^(lam)(k),
    a simultaneous eigenfunction of J^2, J_z and helicity; orthonormal
    over the unit sphere for fixed lam.  The third Euler angle is fixed
    to zero, which pins the phase.  Angles broadcast, so a whole
    quadrature grid is one call; the result has shape (3,) for scalar
    angles and (3, ...) for arrays, each point equal to its scalar call.
    """
    _check_photon(j, m, lam)
    return _spherical_waves(j, lam, theta, phi)[m_index(j, m)]


def plane_to_spherical_coefficient(j: int, m: int, lam: int, theta, phi):
    """Overlap of a plane-wave helicity state along (theta, phi) with psi_jm^(lam).

    Returns sqrt((2j+1)/4pi) * conj(D^(j)_{lam m}(phi, theta, 0)): a
    complex scalar for scalar angles, an array of the angles' broadcast
    shape otherwise.  The radial (same-momentum-shell) factor is not
    represented numerically.  Summing coefficient * spherical_wave_helicity
    over j, m reproduces the plane-wave angular profile in the
    band-limited sense.
    """
    _check_photon(j, m, lam)
    dmat = wigner_d_matrix(j, phi, theta, 0.0)
    return math.sqrt((2 * j + 1) / (4 * math.pi)) * np.conj(wigner_entry(dmat, j, lam, m))
