"""Scalar special functions for spherical-cavity mode calculations.

Spherical Bessel functions of the first kind, half-integer-order Bessel
functions, associated Legendre functions, and scalar spherical harmonics
in the two phase conventions used throughout the package.

Y_lm has one definition, the private _Harmonics table, seeded with
|sin theta|^m so that it keeps full relative accuracy at the poles.
scalar_harmonic reads one entry of a table built for its call; callers that
need many harmonics on one grid build one table per grid and drop it after
the call.  No table is cached; only the scalar normalisation factors are.

All evaluators are pure, accept scalars or numpy arrays, and are safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

import numpy as np

__all__ = [
    "HarmonicConvention",
    "spherical_bessel_j",
    "bessel_j_halfint",
    "legendre_plm",
    "scalar_harmonic",
    "small_argument_j",
]

MAX_BESSEL_ORDER = 60

# threshold below which the ascending series is used instead of the
# recurrences (cancellation guard)
def _series_cutoff(l: int) -> float:
    return max(1.0, 0.5 * math.sqrt(2 * l + 3))


def _check_int(name: str, value, lo, hi) -> None:
    """ValueError naming `name` unless value is an integer in [lo, hi] (bounds may be +-inf)."""
    if not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}] and an integer, got {value!r}")


def _check_sign(name: str, value) -> None:
    """ValueError naming `name` unless value is the integer +1 or -1."""
    _check_int(name, value, -1, 1)
    if value == 0:
        raise ValueError(f"{name} must be +1 or -1, got 0")


def _odd_double_factorial(n: int) -> float:
    """(n)!! for odd n >= -1, as a float."""
    out = 1.0
    for k in range(n, 1, -2):
        out *= k
    return out


def _series_lanes(runs: list[tuple[int, int]], x: np.ndarray) -> np.ndarray:
    # j_l(x) = x^l sum_k (-x^2/2)^k / (k! (2l+2k+1)!!) on the lanes x, sorted
    # by order, runs giving each order and its lane count; every lane steps
    # with its own order.  Below _series_cutoff(l), x^2 < max(1, (2l+3)/4), so
    # term k is at most 1/(8k) of term k-1 (1/(2k(2k+1)) for l = 0) with the
    # opposite sign, and the sum is at least 5/6 of term 0.  The tail dropped
    # after 12 steps is thus below 4e-22 of the sum (3.4e-18 after 10), far
    # under the half ulp, at least 5.5e-17 of it, that could change its rounding.
    odd = 2.0 * np.repeat([order for order, _ in runs], [count for _, count in runs]) + 1
    term, a = np.empty_like(x), 0
    for order, count in runs:
        term[a:a + count] = x[a:a + count]**order / _odd_double_factorial(2 * order + 1)
        a += count
    total, half_sq = term.copy(), -0.5 * x * x
    for k in range(1, 13):
        term = term * half_sq / (k * (odd + 2 * k))
        total += term
    return total


def _upward_pair(runs: list[tuple[int, int]], x: np.ndarray):
    # (j_l, j_{l+1}) by upward recurrence j_{k+1} = ((2k+1)/x) j_k - j_{k-1}
    # from the closed forms of j_0 and j_1.  Unvalidated: callers guarantee
    # x > 0 and x >= l, where the recurrence is stable relative to the
    # envelope sqrt(j_l^2 + y_l^2).  The lanes x are sorted by order along
    # their first axis, runs giving each order and its lane count as in
    # _series_lanes: orders ascending, counts summing to len(x).  Each run is
    # one phase: the lanes still running, a suffix, step on views up to its
    # order, and its own lanes then stop, so each lane's values equal those
    # of the call with its order alone; one order is one run.  j_k of even
    # and of odd k live in two arrays, step k overwriting j_{k-1} with j_{k+1}.
    s, c = np.sin(x), np.cos(x)
    lo, hi = s / x, s / x**2 - c / x
    j, last = (lo, hi), runs[-1][0] % 2
    xs, k, a = x, 0, 0
    for order, count in runs:
        for k in range(k + 1, order + 1):
            lo[...] = (2 * k + 1) / xs * hi - lo
            lo, hi = hi, lo
        if order % 2 != last:  # its j_l is where the last run's j_{l+1} is
            done = slice(a, a + count)
            j[0][done], j[1][done] = j[1][done], j[0][done].copy()
        a += count
        if a < len(x):  # the lanes still running
            xs, lo, hi = xs[count:], lo[count:], hi[count:]
    return j[last], j[1 - last]


def _miller_lanes(runs: list[tuple[int, int]], x: np.ndarray) -> np.ndarray:
    # Miller's algorithm for x < l: unnormalized downward recurrence seeded
    # at l + 40, normalized against the closed forms for j_0 / j_1.  For
    # l <= 60 and x >= _series_cutoff(l) the values stay below ~1e84.  The
    # lanes x are sorted by order as in _series_lanes.  Every lane steps at
    # every k; one that has not reached its seed k = l + 40 holds zeros,
    # which the recurrence keeps at +0, so each lane's steps are those of its
    # order alone.
    seeds, kept, a = {}, {}, 0
    for order, count in runs:
        seeds[order + 40] = kept[order + 1] = slice(a, a + count)
        a += count
    f_hi, f_lo, f_l = np.zeros(x.shape), np.zeros(x.shape), np.empty_like(x)
    for k in range(runs[-1][0] + 40, 0, -1):
        if k in seeds:
            f_lo[seeds[k]] = 1e-30
        f_hi, f_lo = f_lo, (2.0 * k + 1) / x * f_lo - f_hi
        if k in kept:
            f_l[kept[k]] = f_lo[kept[k]]
    # f_lo = unnormalized j_0, f_hi = unnormalized j_1
    j0, j1 = _upward_pair([(0, len(x))], x)
    use0 = np.abs(f_lo) >= np.abs(f_hi)
    ratio = np.where(use0, j0 / np.where(use0, f_lo, 1.0),
                     j1 / np.where(use0, 1.0, f_hi))
    return f_l * ratio


def _bessel_orders(orders, x) -> np.ndarray:
    """j_l(x) for each l of orders, distinct and ascending: shape
    (len(orders),) + shape(x), row i that of spherical_bessel_j(orders[i], x).

    The lanes are the (order, point) pairs, order-major and so sorted by
    order; each takes the regime spherical_bessel_j describes for its pair,
    and each regime runs its lanes of every order at once.
    """
    for l in orders:
        _check_int("order", l, 0, MAX_BESSEL_ORDER)
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("argument must be finite and non-negative")
    xs = arr.reshape(1, -1).repeat(len(orders), axis=0)
    lim = np.array([[_series_cutoff(l), l] for l in orders]).reshape(-1, 2)
    small = xs < lim[:, :1]
    up = ~small & (xs >= lim[:, 1:])
    out = np.empty(xs.shape)
    for lanes, evaluate in ((small, _series_lanes),
                            (up, lambda runs, x: _upward_pair(runs, x)[0]),
                            (~(small | up), _miller_lanes)):
        runs = [(l, c) for l, c in zip(orders, np.add.reduce(lanes, axis=1).tolist()) if c]
        if runs:
            out[lanes] = evaluate(runs, xs[lanes])
    return out.reshape((len(orders),) + arr.shape)


def spherical_bessel_j(l: int, x):
    """Spherical Bessel function of the first kind j_l(x).

    Regular at the origin: j_0(0) = 1 and j_l(0) = 0 for l > 0.  Three
    regimes, chosen per (order, point): the ascending series below
    max(1, sqrt(2l+3)/2), upward recurrence from the closed forms of j_0
    and j_1 for x >= l, and Miller's normalized downward recurrence in
    between.  Each point is computed independently of the others in the
    call.

    Parameters
    ----------
    l : int
        Order, 0 <= l <= 60.  Against 40-digit mpmath, for x <= 300 (every
        root modes.find_roots returns lies below 288), the error is at most
        2e-15 of the envelope sqrt(j_l^2 + y_l^2) (8.4e-16 on [200, 300]),
        and at most 4e-15 of |j_l| itself for x <= l.
    x : float or array_like
        Argument(s), must be >= 0.

    Returns
    -------
    float or ndarray
    """
    out = _bessel_orders([l], x)[0]
    return out[()] if out.ndim == 0 else out


def bessel_j_halfint(two_nu: int, x):
    """Bessel function of the first kind J_nu(x) for half-integer nu.

    The order is passed as ``two_nu`` = 2*nu, which must be an odd
    integer in [1, 2*MAX_BESSEL_ORDER + 1] (nu = l + 1/2 for l <= 60);
    J_{l+1/2}(x) = sqrt(2x/pi) * j_l(x).
    """
    _check_int("two_nu", two_nu, 1, 2 * MAX_BESSEL_ORDER + 1)
    if two_nu % 2 == 0:
        raise ValueError(f"two_nu must be an odd positive integer, got {two_nu}")
    arr = np.asarray(x, dtype=float)
    jl = spherical_bessel_j((two_nu - 1) // 2, arr)  # validates x before the sqrt
    return np.sqrt(2.0 * arr / np.pi) * jl


def _plm_upward(m: int, l_max: int, x, sin):
    # P_m^m(x), ..., P_{l_max}^m(x) by upward recurrence in l, stable for
    # l <= ~64, from the seed (2m-1)!! sin^m; the caller passes sin =
    # sqrt(1 - x^2) >= 0 (from theta, accurate near the poles).  Unvalidated:
    # 0 <= m <= l_max and |x| <= 1.  Each step works in place on its own
    # fresh array, so a value once yielded is never modified.
    p0 = _odd_double_factorial(2 * m - 1) * sin**m
    yield p0
    if l_max > m:
        p1 = (2 * m + 1) * x * p0
        yield p1
    for ll in range(m + 2, l_max + 1):
        p = (2 * ll - 1) * x
        p *= p1
        p -= (ll + m - 1) * p0
        p /= ll - m
        p0, p1 = p1, p
        yield p


def legendre_plm(l: int, m: int, x):
    """Associated Legendre function P_l^m(x) (Ferrers, no phase factor).

    Upward recurrence in l from the sectoral seed; stable for the orders
    used here (l <= ~64).  Requires 0 <= m <= l and |x| <= 1.
    """
    _check_int("l", l, 0, math.inf)
    _check_int("m", m, 0, l)
    xa = np.asarray(x, dtype=float)
    if not np.all(np.abs(xa) <= 1.0):
        raise ValueError("argument must be finite with |x| <= 1")
    *_, p = _plm_upward(m, l, xa, np.sqrt(np.maximum(0.0, 1.0 - xa * xa)))
    return p


class HarmonicConvention(enum.Enum):
    """Phase convention for the scalar spherical harmonics.

    CONDON_SHORTLEY is the textbook convention.  LANDAU_LIFSHITZ multiplies
    it by i^l; the moduli and the orthonormality relation are identical.
    """

    CONDON_SHORTLEY = "condon-shortley"
    LANDAU_LIFSHITZ = "landau-lifshitz"


@lru_cache(maxsize=4096)
def _norm_phase(l: int, m: int) -> float:
    # sqrt((2l+1)/(4 pi) (l-|m|)!/(l+|m|)!) times the Condon-Shortley phase
    am = abs(m)
    lognorm = 0.5 * (math.log(2 * l + 1) - math.log(4 * math.pi)
                     + math.lgamma(l - am + 1) - math.lgamma(l + am + 1))
    return ((-1.0) ** m if m > 0 else 1.0) * math.exp(lognorm)


class _Harmonics:
    """Condon-Shortley Y_lm, |m| <= l <= l_max (unvalidated), on one grid: Y(l, m).

    The package's one definition of Y_lm; scalar_harmonic reads it too.  Each
    order |m| runs the Legendre recurrence to l_max once, and each e^{im phi}
    is formed once per m, both when first asked for; each Y_lm is formed
    once.  Entries are shared, not copied.
    """

    def __init__(self, l_max: int, theta, phi):
        th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
        self.l_max, self.shape = l_max, th.shape
        self._x, self._sin, self._phi = np.cos(th), np.abs(np.sin(th)), ph
        self._plm, self._eimp, self._y = {}, {}, {}

    def __call__(self, l: int, m: int):
        if (l, m) not in self._y:
            am = abs(m)
            if am not in self._plm:
                self._plm[am] = list(_plm_upward(am, self.l_max, self._x, self._sin))
            if m not in self._eimp:
                self._eimp[m] = np.exp(1j * m * self._phi)
            self._y[l, m] = _norm_phase(l, m) * self._plm[am][l - am] * self._eimp[m]
        return self._y[l, m]


def scalar_harmonic(l: int, m: int, theta, phi,
                    convention: HarmonicConvention = HarmonicConvention.CONDON_SHORTLEY):
    """Scalar spherical harmonic Y_lm(theta, phi).

    Parameters
    ----------
    l, m : int
        Degree and order, |m| <= l.
    theta, phi : float or array_like
        Polar and azimuthal angles in radians (broadcast together).
    convention : HarmonicConvention
        CONDON_SHORTLEY (default) or LANDAU_LIFSHITZ (extra i^l).

    Returns
    -------
    complex or ndarray of complex
    """
    _check_int("l", l, 0, math.inf)
    _check_int("m", m, -l, l)
    val = _Harmonics(l, theta, phi)(l, m)
    if convention is HarmonicConvention.LANDAU_LIFSHITZ:
        val = val * 1j**l
    return val[()] if np.isscalar(theta) and np.isscalar(phi) else val


def small_argument_j(j: int, x, order: int = 0):
    """Leading small-argument behaviour of j_j(x).

    Returns x^j / (2j+1)!!  (equivalently x^j * 2^(-1-j) sqrt(pi) /
    Gamma(j + 3/2), evaluated through the double-factorial closed form),
    with the first series correction 1 - x^2/(2(2j+3)) when order=1.
    Relative error against the full j_j is O(x^2).
    """
    _check_int("j", j, 0, math.inf)
    _check_int("order", order, 0, 1)
    xa = np.asarray(x, dtype=float)
    lead = xa**j / _odd_double_factorial(2 * j + 1)
    if order == 1:
        lead = lead * (1.0 - xa * xa / (2.0 * (2 * j + 3)))
    return lead if lead.ndim else lead[()]
