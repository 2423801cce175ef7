"""Vector spherical harmonics and the spin-1 angular algebra.

Provides the covariant spherical basis vectors, Cartesian <-> spherical
component conversion, the closed-form Clebsch-Gordan table for coupling
an orbital harmonic with a spin-1 basis vector, the coupled vector
spherical harmonics Y_jlm, the electric/magnetic/longitudinal series,
helicity eigenfunctions, and the helicity operator.

Conventions
-----------
Scalar harmonics feeding the vector layer use the Condon-Shortley phase
(no i^l), and the basis vectors e_mu carry Condon-Shortley phases.  With
these choices all of the following hold exactly and are enforced by the
test suite:

* Y^M_jm = Y_jjm = L Y_jm / sqrt(j(j+1))
* Y^E_jm = (angular gradient of Y_jm) / sqrt(j(j+1))
         = sqrt(j/(2j+1)) Y_{j,j+1,m} + sqrt((j+1)/(2j+1)) Y_{j,j-1,m}
* Y^L_jm = rhat Y_jm
         = sqrt(j/(2j+1)) Y_{j,j-1,m} - sqrt((j+1)/(2j+1)) Y_{j,j+1,m}
* n x Y^E = i Y^M  and  n x Y^M = i Y^E  (so Y^E = -i n x Y^M)
* (S.n) Y^E = -Y^M, (S.n) Y^M = -Y^E, hence the helicity eigenfunctions
  are the circular combinations built from Y^E and its cross-product
  partner n x Y^E:  Y^(+1) = -(Y^E + i(n x Y^E))/sqrt(2) = -(Y^E - Y^M)/sqrt(2)
  and Y^(-1) = (Y^E - i(n x Y^E))/sqrt(2) = (Y^E + Y^M)/sqrt(2).

Vector-valued results put the Cartesian component axis FIRST: shape
(3,) for scalar angles, (3, ...) for broadcast angle arrays.  Each family
has one builder, stacking a list of members from one harmonic table;
vsh_coupled, vsh and helicity_vsh are its one-member case.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .specfun import _check_int, _Harmonics

__all__ = [
    "Direction",
    "antipode",
    "unit_radial",
    "unit_theta",
    "unit_phi",
    "spherical_basis_vector",
    "cartesian_to_spherical_components",
    "spherical_to_cartesian_components",
    "cg_s1",
    "vsh_coupled",
    "vsh",
    "helicity_vsh",
    "helicity_apply",
]

_SQ2 = math.sqrt(2.0)
_INV_SQ2 = 1.0 / _SQ2


class Direction(NamedTuple):
    """A point on the unit sphere: polar angle theta, azimuth phi (radians)."""

    theta: float
    phi: float

    def antipode(self) -> "Direction":
        return Direction(math.pi - self.theta, (self.phi + math.pi) % (2 * math.pi))

    def unit_vector(self) -> np.ndarray:
        return unit_radial(self.theta, self.phi)


def antipode(theta, phi):
    """Angles of the antipodal direction: theta -> pi - theta, phi -> phi + pi."""
    return np.pi - np.asarray(theta, dtype=float), np.mod(np.asarray(phi, dtype=float) + np.pi, 2 * np.pi)


def unit_radial(theta, phi):
    th, ph = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    st = np.sin(th)
    return np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)])


def unit_theta(theta, phi):
    th, ph = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    return np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)])


def unit_phi(theta, phi):
    th, ph = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    return np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(ph)])


# the covariant spherical basis (Condon-Shortley phases), the package's only
# copy: rows e_{+1}, e_0, e_{-1} (the m order of D^(1)), columns x, y, z
_U = np.array([
    [-1.0 / _SQ2, -1j / _SQ2, 0.0],
    [0.0, 0.0, 1.0],
    [1.0 / _SQ2, -1j / _SQ2, 0.0],
])


def spherical_basis_vector(mu: int) -> np.ndarray:
    """Covariant spherical basis vector e_mu, mu in {+1, 0, -1}.

    e_{+1} = -(e_x + i e_y)/sqrt(2), e_0 = e_z, e_{-1} = (e_x - i e_y)/sqrt(2)
    (Condon-Shortley phases); pairwise orthonormal under the Hermitian
    inner product.
    """
    _check_int("mu", mu, -1, 1)
    return _U[1 - mu].copy()


def _apply(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    # mat @ v over v's leading axis, elementwise (not a BLAS contraction) so
    # that a point's value does not depend on its batch
    mat = mat.reshape((3, 3) + (1,) * (v.ndim - 1))
    return mat[:, 0] * v[0] + mat[:, 1] * v[1] + mat[:, 2] * v[2]


def cartesian_to_spherical_components(v) -> np.ndarray:
    """Covariant spherical components [V_{+1}, V_0, V_{-1}] of a vector.

    V_{+1} = -(V_x + i V_y)/sqrt(2), V_0 = V_z, V_{-1} = (V_x - i V_y)/sqrt(2).
    Accepts shape (3,) or (3, ...); norm-preserving, point by point.
    """
    return _apply(_U, np.asarray(v, dtype=complex))


def spherical_to_cartesian_components(c) -> np.ndarray:
    """Inverse of :func:`cartesian_to_spherical_components`."""
    return _apply(_U.conj().T, np.asarray(c, dtype=complex))


# typed, so that a float such as 1.0 is checked, not served the entry of 1
@lru_cache(maxsize=4096, typed=True)
def cg_s1(l: int, j: int, mu: int, m: int) -> float:
    """Clebsch-Gordan coefficient <l, 1; m-mu, mu | j, m> for spin-1 coupling.

    Closed-form table for coupling an orbital degree l (first factor) with
    a spin-1 index mu (second factor) to total j in {l-1, l, l+1}.  Returns
    0.0 when a magnetic quantum number is out of range.
    """
    _check_int("l", l, 0, math.inf)
    _check_int("j", j, 0, math.inf)
    _check_int("mu", mu, -1, 1)
    _check_int("m", m, -math.inf, math.inf)
    if j not in (l - 1, l, l + 1) or (l == 0 and j == 0):
        raise ValueError(f"no spin-1 coupling of orbital l={l} to total j={j}")
    if abs(m) > j or abs(m - mu) > l:
        return 0.0
    if j == l + 1:
        if mu == +1:
            return math.sqrt((l + m) * (l + m + 1) / ((2 * l + 1) * (2 * l + 2)))
        if mu == 0:
            return math.sqrt((l - m + 1) * (l + m + 1) / ((2 * l + 1) * (l + 1)))
        return math.sqrt((l - m) * (l - m + 1) / ((2 * l + 1) * (2 * l + 2)))
    if j == l:
        if mu == +1:
            return -math.sqrt((l + m) * (l - m + 1) / (2 * l * (l + 1)))
        if mu == 0:
            return m / math.sqrt(l * (l + 1))
        return math.sqrt((l - m) * (l + m + 1) / (2 * l * (l + 1)))
    # j == l - 1
    if mu == +1:
        return math.sqrt((l - m) * (l - m + 1) / (2 * l * (2 * l + 1)))
    if mu == 0:
        return -math.sqrt((l - m) * (l + m) / (l * (2 * l + 1)))
    return math.sqrt((l + m) * (l + m + 1) / (2 * l * (2 * l + 1)))


def _coupled_stack(Y: _Harmonics, labels) -> np.ndarray:
    # Y_jlm for every (j, l, m) of labels, the caller having validated each
    # (j, l), stacked on a leading member axis: shape (len(labels), 3) + Y.shape.
    # e_{+1} and e_{-1} have no z component and e_0 has only z, so with
    # a_mu = c_mu / sqrt(2), lo = a_+ Y_{l,m-1} and hi = a_- Y_{l,m+1}:
    # x = hi - lo, y = -i (lo + hi) and z = c_0 Y_{l,m}.  The rows Y_{l,m-mu}
    # of all members are stacked into one table (a zero row where the
    # coefficient is 0.0: |m| > j or |m - mu| > l), scaled by one coefficient
    # array, and turned into x, y, z in place.
    zero = np.zeros(Y.shape, dtype=complex)
    coef, rows = [], []  # a_+, a_-, c_0 and their Y_{l,m-mu}, per member
    for j, l, m in labels:
        for mu, scale in ((+1, _INV_SQ2), (-1, _INV_SQ2), (0, 1.0)):
            c = cg_s1(l, j, mu, m)
            coef.append(c * scale)
            rows.append(Y(l, m - mu) if c else zero)
    out = np.array(rows).reshape((len(labels), 3) + Y.shape)
    np.multiply(np.array(coef).reshape(out.shape[:2] + (1,) * len(Y.shape)), out, out=out)
    lo, hi = out[:, 0], out[:, 1]
    x = hi - lo
    np.add(lo, hi, out=hi)
    np.multiply(-1j, hi, out=hi)
    lo[...] = x
    return out


def vsh_coupled(j: int, l: int, m: int, theta, phi) -> np.ndarray:
    """Coupled vector spherical harmonic Y_jlm(theta, phi).

    Y_jlm = sum_mu <l, 1; m-mu, mu | j, m> e_mu Y_{l, m-mu}, a simultaneous
    eigenfunction of J^2, J_z, L^2 and S^2 with eigenvalues j(j+1), m,
    l(l+1), 2.  Returns zeros when |m| > j.
    """
    _check_int("j", j, 0, math.inf)
    _check_int("l", l, 0, math.inf)
    if l not in (j - 1, j, j + 1) or (l == 0 and j == 0):
        raise ValueError(f"l must be one of j-1, j, j+1 with a valid spin-1 "
                         f"coupling, got j={j}, l={l}")
    return _coupled_stack(_Harmonics(l, theta, phi), [(j, l, m)])[0]


def _eml_terms(kind: str, j: int) -> tuple[tuple[int, float], ...]:
    # (l, w): Y^kind_jm = sum w Y_{j,l,m}; for j = 0 only Y^L, with its l = j+1 term
    if kind == "M":
        return ((j, 1.0),)
    a, b = math.sqrt(j / (2 * j + 1)), math.sqrt((j + 1) / (2 * j + 1))
    if kind == "E":
        return ((j + 1, a), (j - 1, b))
    return ((j + 1, -b), (j - 1, a)) if j >= 1 else ((j + 1, -b),)


def _check_vsh(kind: str, j: int, m: int) -> None:
    # the label (kind, j, m) of vsh, kind already upper case
    _check_int("j", j, 0, math.inf)
    if kind != "L" and j == 0:
        raise ValueError(f"the {kind}-type harmonic vanishes identically for j=0; need j >= 1")
    _check_int("m", m, -j, j)


def _vsh_stack(Y: _Harmonics, labels) -> np.ndarray:
    # Y^E, Y^M or Y^L for every (kind, j, m) of labels (kind already upper
    # case), the caller having validated each label, stacked like
    # _coupled_stack: each member's w_1 Y_{j,l_1,m}, plus w_2 Y_{j,l_2,m} for
    # the members with a second term, from one _coupled_stack call over the
    # first terms and then the second terms
    terms, seconds = [], []  # (j, l, m, w) of each first term; (member, term) of each second
    for i, (kind, j, m) in enumerate(labels):
        (l, w), *rest = _eml_terms(kind, j)
        terms.append((j, l, m, w))
        seconds += [(i, (j, l, m, w)) for l, w in rest]
    two = [i for i, _ in seconds]
    terms += [t for _, t in seconds]
    c = _coupled_stack(Y, [t[:3] for t in terms])
    np.multiply(np.array([t[3] for t in terms]).reshape((-1, 1) + (1,) * len(Y.shape)), c, out=c)
    out = c[:len(labels)]
    if two:
        out[two] += c[len(labels):]
    return out


def vsh(kind: str, j: int, m: int, theta, phi) -> np.ndarray:
    """Electric, magnetic or longitudinal vector spherical harmonic.

    Parameters
    ----------
    kind : {"E", "M", "L"}
        Electric (parity (-1)^j, tangential), magnetic (parity
        (-1)^(j+1), tangential) or longitudinal (parity (-1)^j, radial).
    j, m : int
        Total angular momentum and projection; j >= 1 for "E"/"M"
        (the j=0 members vanish identically), j >= 0 for "L".
    theta, phi : float or array_like

    Returns
    -------
    ndarray, shape (3, ...) complex Cartesian components.
    """
    kind = str(kind).upper()
    if kind not in ("E", "M", "L"):
        raise ValueError(f"kind must be 'E', 'M' or 'L', got {kind!r}")
    _check_vsh(kind, j, m)
    return _vsh_stack(_Harmonics(j + 1, theta, phi), [(kind, j, m)])[0]


def _helicity_stack(Y: _Harmonics, labels) -> np.ndarray:
    # Y^(lam) for every (lam, j, m) of labels, the caller having validated
    # each label, stacked like _coupled_stack: -(Y^E - Y^M)/sqrt(2) for
    # lam = +1, (Y^E + Y^M)/sqrt(2) for lam = -1 and Y^L for lam = 0, from one
    # _vsh_stack call that builds the Y^E and Y^M of each (j, m) once for both
    # helicities
    lam = np.array([label[0] for label in labels], dtype=int)
    row: dict[tuple[int, int], int] = {}  # (j, m) of lam = +-1 -> its Y^E and Y^M row
    for lam_, j, m in labels:
        if lam_:
            row.setdefault((j, m), len(row))
    v = _vsh_stack(Y, [(kind, j, m) for kind in "EM" for j, m in row]
                   + [("L", j, m) for lam_, j, m in labels if not lam_])
    ye, ym = v[:len(row)], v[len(row):2 * len(row)]
    plus, minus = ([row[j, m] for lam_, j, m in labels if lam_ == h] for h in (+1, -1))
    out = np.empty((len(labels), 3) + Y.shape, dtype=complex)
    out[lam == +1] = -(ye[plus] - ym[plus]) / _SQ2
    out[lam == -1] = (ye[minus] + ym[minus]) / _SQ2
    out[lam == 0] = v[2 * len(row):]
    return out


def helicity_vsh(lam: int, j: int, m: int, theta, phi) -> np.ndarray:
    """Vector spherical harmonic helicity eigenfunction Y^(lam)_jm.

    Built from the electric harmonic and its cross-product partner
    n x Y^E (which equals i Y^M):

        Y^(+1) = -(Y^E + i (n x Y^E))/sqrt(2) = -(Y^E - Y^M)/sqrt(2)
        Y^(-1) =  (Y^E - i (n x Y^E))/sqrt(2) =  (Y^E + Y^M)/sqrt(2)
        Y^(0)  =  Y^L

    Satisfies (S.n) Y^(lam) = lam Y^(lam) pointwise; the three families
    are mutually orthonormal on the unit sphere.
    """
    _check_int("lam", lam, -1, 1)
    _check_vsh("E" if lam else "L", j, m)
    return _helicity_stack(_Harmonics(j + 1, theta, phi), [(lam, j, m)])[0]


def helicity_apply(theta, phi, vec) -> np.ndarray:
    """Apply the helicity operator (S . n) about the axis n(theta, phi).

    For a spin-1 (vector) field this is i (n x v); transverse circular
    polarizations are eigenvectors with eigenvalue +-1, the radial
    direction with eigenvalue 0.
    """
    v = np.asarray(vec, dtype=complex)
    n = unit_radial(theta, phi)
    n = np.broadcast_to(n.reshape((3,) + (1,) * (v.ndim - 1)) if n.ndim == 1 else n, v.shape)
    return 1j * np.cross(n, v, axis=0)
