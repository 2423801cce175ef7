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
beta.  The recurrence coefficients depend on (k, a, b) alone, so one
table of them serves every order j <= 20, and one sweep up to the largest
order passes through every lower order's terms, which it keeps: several
orders cost one sweep.  Its error against 50-digit mpmath stays below
1e-14 up to the largest supported j = 20, and the identity at zero
angles is exact.
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
from .specfun import _check_int, _check_sign

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
    _check_int("j", j, 0, math.inf)
    _check_int("m", m, -j, j)
    return j - m


def wigner_entry(matrix: np.ndarray, j: int, m_prime: int, m: int):
    """Entry D^(j)_{m'm} of a matrix produced by this module."""
    return matrix[m_index(j, m_prime), m_index(j, m)]


@lru_cache(maxsize=1)
def _jacobi_lanes():
    """The one table of Jacobi terms serving every order j <= MAX_WIGNER_J.

    d^j_{m'm} = sign N s^a c^b P_k^(a,b)(cos beta) with a = |m' - m|,
    b = |m' + m| and k = j - M, M = (a + b)/2 = max(|m'|, |m|).  Lane
    M^2 + a holds the term (a, b = 2M - a), so the lanes are ordered by M
    and then a, and order j reads the first (j+1)^2 of them at degree
    k = j - M.  Returns each lane's a and b; the coefficients
    (c0, c1, c2, den) of the recurrence in the degree, one row per step
    n = 2..MAX_WIGNER_J, each a function of (n, a, b) alone,

        2n(n+a+b)(t-2) P_n = (t-1)[t(t-2) x + a^2 - b^2] P_{n-1}
                             - 2(n+a-1)(n+b-1) t P_{n-2},  t = 2n + a + b;

    and for each order j, N = sqrt(k! (k+a+b)! / ((k+a)! (k+b)!)) of its
    lanes, and for its (2j+1, 2j+1) entries (m', m = j..-j) the lane they
    read and their sign (-1)^max(0, m - m') of the passive convention: the
    central blocks of one (41, 41) table each.
    """
    size = MAX_WIGNER_J + 1
    big_m = np.repeat(np.arange(size), 2 * np.arange(size) + 1)
    a = np.arange(size * size) - big_m * big_m
    b = 2 * big_m - a
    # N^2 = C(k+a+b, b) / C(k+b, b).  k + a + b = j + M <= 40, so both
    # binomials are exact doubles (each sum of Pascal's triangle is exact
    # below 2^53) and their quotient is the exact rational correctly rounded.
    binom = np.zeros((2 * size - 1, 2 * size - 1))
    binom[:, 0] = 1.0
    for row in range(1, 2 * size - 1):
        binom[row, 1:] = binom[row - 1, 1:] + binom[row - 1, :-1]
    k = np.maximum(np.arange(size)[:, None] - big_m, 0)  # lanes M > j unused
    norm = np.sqrt(binom[k + a + b, b] / binom[k + b, b])
    mv = np.arange(MAX_WIGNER_J, -size, -1)
    mp, m = mv[:, None], mv[None, :]
    index = np.maximum(abs(mp), abs(m)) ** 2 + abs(mp - m)
    sign = np.where((m > mp) & ((m - mp) % 2 == 1), -1.0, 1.0)
    # the sweep runs in doubles; every integer here is exact in one
    a, b = a.astype(float), b.astype(float)
    n = np.arange(2.0, size)[:, None]
    t = 2 * n + a + b
    coeffs = np.stack(((t - 1) * (a * a - b * b), (t - 1) * t * (t - 2),
                       2 * (n + a - 1) * (n + b - 1) * t, 2 * n * (n + a + b) * (t - 2)))
    blocks = [slice(MAX_WIGNER_J - j, MAX_WIGNER_J + j + 1) for j in range(size)]
    return (a, b, coeffs, [norm[j, :(j + 1) ** 2] for j in range(size)],
            [index[q, q].copy() for q in blocks], [sign[q, q].copy() for q in blocks])


def _small_d_orders(orders, beta, points=None) -> list[np.ndarray]:
    """d^j(beta) for each j of orders (0 <= j <= MAX_WIGNER_J, unvalidated),
    from one sweep of the recurrence up to the largest: one array of shape
    (2j+1, 2j+1) + shape(beta) per order, each equal to wigner_small_d(j, beta).

    The sweep runs in the degree n up to the largest order j_max; step n
    updates the lanes M <= j_max - n, a prefix, and passes degree j - M of
    lane M for every lower order j, which keeps it then.  With points, one
    index array per order into the last axis of beta, order j is formed at
    beta[..., points[i]] alone.
    """
    top = max(orders)
    width = (top + 1) ** 2
    a, b, coeffs, norms, indices, signs = _jacobi_lanes()
    half = 0.5 * np.asarray(beta, dtype=float)
    c, s = np.cos(half), np.sin(half)
    col = (1,) * half.ndim
    ia, ib = (t[:width].astype(np.intp) for t in (a, b))
    a, b = (t[:width].reshape((width,) + col) for t in (a, b))
    # The recurrence runs in y = s^2 near beta = 0 and in y = c^2 near
    # beta = pi, with x = cos(beta) = sigma (1 - 2y): this keeps 1 -+ x to
    # full relative accuracy where P_k^(a,b) is steepest.
    near = s * s <= c * c
    sigma = np.where(near, 1.0, -1.0)
    y = np.where(near, s * s, c * c)
    p_prev = np.ones((width,) + half.shape)
    p = (sigma * (a + b + 2) + a - b) / 2 - sigma * (a + b + 2) * y
    p[top * top:] = 1.0
    # each lower order j keeps P_0 = 1 of its lanes M = j, and P_n of its
    # lanes M = j - n once p holds degree n
    kept = {j: np.ones(((j + 1) ** 2,) + half.shape) for j in set(orders) if j < top}
    for n in range(1, top + 1):
        if n > 1:
            live = (top - n + 1) ** 2
            c0, c1, c2, den = coeffs[:, n - 2, :live].reshape((4, live) + col)
            sc1 = sigma * c1
            nxt = (((c0 + sc1) - 2 * sc1 * y) * p[:live] - c2 * p_prev[:live]) / den
            p_prev[:live], p[:live] = p[:live], nxt
        for j, q in kept.items():
            if j >= n:
                band = slice((j - n) ** 2, (j - n + 1) ** 2)
                q[band] = p[band]
    kept[top] = p
    # a and b are integers in [0, 2 top]: each power s^k and c^k is formed
    # once per point, and lane (a, b) reads s^a c^b from them
    k = np.arange(2.0 * top + 1).reshape((-1,) + col)
    s_k, c_k = s ** k, c ** k
    out = []
    for i, j in enumerate(orders):
        norm, index, sign = norms[j], indices[j], signs[j]
        sj, cj, q = s_k, c_k, kept[j]
        if points is not None:
            sj, cj, q = sj[..., points[i]], cj[..., points[i]], q[..., points[i]]
        tail = (1,) * (q.ndim - 1)
        terms = norm.reshape(norm.shape + tail) * (sj[ia[:norm.size]] * cj[ib[:norm.size]]) * q
        out.append(sign.reshape(sign.shape + tail) * terms[index])
    return out


def wigner_small_d(j: int, beta) -> np.ndarray:
    """Real reduced rotation matrix d^j(beta), rows/cols m = j..-j.

    ``beta`` may be a scalar or an array; the result has shape
    (2j+1, 2j+1) + shape(beta), and each point's value does not depend on
    the other points in the call.  Within 1e-14 of 50-digit mpmath up to
    j = 20 (4e-16 at j = 20, beta = 1.1).
    """
    _check_int("j", j, 0, MAX_WIGNER_J)
    return _small_d_orders([j], beta)[0]


def _phased(j: int, alpha, d, gamma) -> np.ndarray:
    """D^(j)_{m'm} = e^{im'g} d_{m'm} e^{im a} from d = d^j(beta), with
    alpha and gamma of the shape of beta."""
    mv = np.arange(j, -j - 1, -1).reshape((-1,) + (1,) * np.ndim(alpha))
    return np.exp(1j * mv[:, None] * gamma) * d * np.exp(1j * mv[None, :] * alpha)


def wigner_d_matrix(j: int, alpha, beta, gamma) -> np.ndarray:
    """Passive-rotation D-matrix D^(j)_{m'm} = e^{im'g} d^j_{m'm}(b) e^{im a}.

    Unitary; the identity at zero angles; j <= 20.  The angles broadcast
    against each other; the result has shape (2j+1, 2j+1) + their
    broadcast shape, so scalar angles give one (2j+1, 2j+1) matrix.
    """
    alpha, beta, gamma = np.broadcast_arrays(*(np.asarray(t, dtype=float)
                                              for t in (alpha, beta, gamma)))
    return _phased(j, alpha, wigner_small_d(j, beta), gamma)


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
    _check_int("j", j, 0, MAX_WIGNER_J)
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
    _check_int("lam", lam, -1, 1)
    # sum_s conj(D_{lam s}) e_s is the conjugate of the vector whose
    # spherical components are the row D_{lam s}
    row = wigner_d_matrix(1, phi, theta, 0.0)[m_index(1, lam)]
    return np.conj(spherical_to_cartesian_components(row))


def _check_photon(j: int, m: int, lam: int) -> None:
    _check_sign("lam", lam)  # a physical photon has no helicity 0
    _check_int("j", j, 1, MAX_WIGNER_J)  # a photon needs j >= |lambda| = 1
    _check_int("m", m, -j, j)


def _spherical_waves(orders, theta, phi, lams) -> list[np.ndarray]:
    """psi_jm^(lam) for every m = j..-j: one (2j+1, 3) + the angles' shape
    array for each lam of lams and each j >= 1 of orders, helicity-major.

    One d^j sweep serves every order, one D^(j) row every m of a (lam, j),
    and one polarization vector every order of a helicity.
    """
    phi, theta, gamma = np.broadcast_arrays(*(np.asarray(t, dtype=float)
                                              for t in (phi, theta, 0.0)))
    dmats = [_phased(j, phi, d, gamma) for j, d in zip(orders, _small_d_orders(orders, theta))]
    out = []
    for lam in lams:
        pol = helicity_polarization_vector(lam, theta, phi)
        for j, dmat in zip(orders, dmats):
            amp = math.sqrt((2 * j + 1) / (4 * math.pi)) * dmat[m_index(j, lam)]
            out.append(amp[:, None] * pol)
    return out


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
    return _spherical_waves([j], theta, phi, (lam,))[0][m_index(j, m)]


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
