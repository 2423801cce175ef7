"""Output checks for the benchmark, independent of the library's numerics.

Nothing here imports sphcavity.  References come from mpmath (roots and
normalization closed forms at 32 digits), scipy.special (root ordinals,
radial functions) and ``tests/_oracles.py`` (vector spherical harmonics
built from angular-momentum operators, not from a Clebsch-Gordan table).
Tolerances are the library's documented accuracies:

* roots: relative error |f / (x f')| <= 1e-10 (``find_roots``)
* normalization constants: 1e-9 relative to the README closed forms
* fields: A within 1e-9 of peak |A|, E = i omega A, and B within 1e-7 of
  peak |B| of the closed forms (the ``mode_boundary`` tolerance)

Values printed by the CLI carry 9 significant digits, so checks of CLI
output add the rounding bound ``PRINT_REL`` to each relative tolerance.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import mpmath as mp
import numpy as np
from scipy import special
from scipy.optimize import brentq

import _oracles as orc

ROOT_TOL = 1e-10
NORM_TOL = 1e-9
A_TOL = 1e-9
E_TOL = 1e-12
B_TOL = 1e-7
PRINT_REL = 5e-9  # largest relative rounding of a 9-significant-digit value
MARGIN_CAP = 16.0  # margin digits reported for a residual of exactly 0

QUANTUM_FIELDS = ("tau", "omega", "j", "m")
BELL_TYPES = ("psi-minus", "psi-plus", "phi-plus", "phi-minus")
RATIO_KINDS = ("M_over_E", "E_step", "M_step")


class Fail(Exception):
    """An output outside the checker's tolerance; ``value`` is the measured error."""

    def __init__(self, msg: str, value: float | None = None):
        super().__init__(msg)
        self.value = value


def _require(cond: bool, msg: str, value: float | None = None) -> None:
    if not cond:
        raise Fail(msg, value)


# ---------------------------------------------------------------- roots

def _root_fn(tau: str, j: int, x, derivative: int = 0):
    nu = mp.mpf(j) + mp.mpf(1) / 2
    if tau == "M":
        return mp.besselj(nu, x, derivative)
    return j * mp.besselj(nu + 1, x, derivative) - (j + 1) * mp.besselj(nu - 1, x, derivative)


def _scipy_root_fn(tau: str, j: int, x):
    """Same zeros as the root equations for x > 0: j_j, or d/dx[x j_j]."""
    if tau == "M":
        return special.spherical_jn(j, x)
    return special.spherical_jn(j, x) + x * special.spherical_jn(j, x, derivative=True)


class Checker:
    """Reference values, cached per mode label and root."""

    def __init__(self):
        self._polished: dict = {}
        self._ordinal: dict = {}
        self._roots: dict = {}
        self._modes: dict = {}

    def polish(self, tau: str, j: int, x: float) -> tuple[float, float]:
        """(true root near x, relative error of x) from one 32-digit Newton step."""
        key = (tau, j, x)
        if key not in self._polished:
            with mp.workdps(32):
                xm = mp.mpf(x)
                step = _root_fn(tau, j, xm) / _root_fn(tau, j, xm, 1)
                self._polished[key] = (float(xm - step), float(abs(step / xm)))
        return self._polished[key]

    def ordinal(self, tau: str, j: int, x: float) -> int:
        """1 + number of sign changes of the root function on (0.1, x)."""
        key = (tau, j, x)
        if key not in self._ordinal:
            grid = np.append(np.arange(0.1, x * (1 - 1e-7), math.pi / 16), x * (1 - 1e-7))
            s = np.sign(_scipy_root_fn(tau, j, grid))
            self._ordinal[key] = 1 + int(np.count_nonzero(s[1:] != s[:-1]))
        return self._ordinal[key]

    def true_root(self, tau: str, j: int, n: int) -> float:
        """n-th root by sign-change scan and Brent on scipy functions, polished."""
        key = (tau, j, n)
        if key not in self._roots:
            grid = np.arange(0.1, 20.0 + 4.0 * (n + j), math.pi / 16)
            f = _scipy_root_fn(tau, j, grid)
            flips = np.nonzero(np.sign(f[1:]) != np.sign(f[:-1]))[0]
            k = flips[n - 1]
            x = brentq(lambda t: float(_scipy_root_fn(tau, j, t)), grid[k], grid[k + 1],
                       xtol=1e-14)
            self._roots[key] = self.polish(tau, j, x)[0]
        return self._roots[key]

    @staticmethod
    def norm_ref(tau: str, j: int, x: float) -> float:
        """README closed form of the normalization constant, R = c = hbar = eps0 = 1."""
        with mp.workdps(32):
            xm = mp.mpf(x)
            pre = mp.sqrt(8 / mp.pi)
            if tau == "M":
                return float(pre / abs(mp.besselj(j + mp.mpf(3) / 2, xm)))
            return float(pre * xm / (mp.sqrt((2 * j + 1) * (xm * xm - j * (j + 1)))
                                     * abs(mp.besselj(j + mp.mpf(1) / 2, xm))))

    def check_spec(self, row, printed: bool = False) -> float:
        """Check one (tau, j, m, n, x, omega, norm, degeneracy) row.

        Returns the relative root error.
        """
        tau, j, m, n, x, omega, norm, deg = row
        slack = PRINT_REL if printed else 0.0
        x_true, err = self.polish(tau, j, x)
        _require(err <= ROOT_TOL + slack,
                 f"{tau} j={j} n={n}: root {x!r} has relative error {err:.3g}", err)
        _require(self.ordinal(tau, j, x) == n,
                 f"{tau} j={j}: root {x!r} is root {self.ordinal(tau, j, x)}, not {n}")
        _require(abs(omega - x) <= slack * abs(x),
                 f"{tau} j={j} n={n}: omega {omega!r} != x_root {x!r}")
        ref = self.norm_ref(tau, j, x_true)
        _require(abs(norm - ref) <= (NORM_TOL + slack) * ref,
                 f"{tau} j={j} n={n}: norm_const {norm!r} vs closed form {ref!r}")
        _require(deg == 2 * j + 1, f"{tau} j={j}: degeneracy {deg}")
        return err

    def check_table(self, rows, labels, printed: bool = False) -> float:
        """A spectrum table: exactly ``labels``, sorted by frequency, every row valid."""
        got = [(r[0], r[1], r[3]) for r in rows]
        _require(sorted(got) == sorted(labels) and len(set(got)) == len(got),
                 f"table holds {len(got)} labels, expected {len(labels)}")
        omegas = [r[5] for r in rows]
        _require(all(a <= b for a, b in zip(omegas, omegas[1:])), "table not sorted by omega")
        errors = [self.polish(r[0], r[1], r[4])[1] for r in rows]
        for r in rows:
            try:
                self.check_spec(r, printed)
            except Fail as exc:
                raise Fail(str(exc), max(errors)) from None
        return max(errors)

    # ---------------------------------------------------------- fields

    def mode(self, tau: str, j: int, m: int, x: float):
        """Reference field functions and peaks for a mode with root x."""
        key = (tau, j, m, x)
        if key not in self._modes:
            self._modes[key] = _ModeRef(tau, j, m, x, self.norm_ref(tau, j, x))
        return self._modes[key]

    def check_field(self, ref: "_ModeRef", pos, A, E, B, omega: float,
                    printed: bool = False) -> float:
        """Compare sampled A, E, B (component axis first) with the references.

        Returns max |B - B_ref| / peak |B|.
        """
        r, th, ph = (np.asarray(c, float) for c in pos)
        a_ref, b_ref = ref.a(r, th, ph), ref.b(r, th, ph)
        slack = PRINT_REL if printed else 0.0
        err_a = float(np.abs(A - a_ref).max()) / ref.peak_a
        err_e = float(np.abs(E - 1j * omega * A).max()) / (omega * ref.peak_a)
        err_b = float(np.abs(B - b_ref).max()) / ref.peak_b
        _require(err_a <= A_TOL + 2 * slack, f"{ref.label}: A off by {err_a:.3g} of peak")
        _require(err_e <= E_TOL + 4 * slack, f"{ref.label}: E != i omega A by {err_e:.3g} of peak")
        _require(err_b <= B_TOL, f"{ref.label}: B off the closed form by {err_b:.3g} of peak",
                 err_b)
        return err_b


def golden_directions(n: int):
    """n directions on the golden-angle spiral (the CLI's field directions)."""
    i = np.arange(n)
    theta = np.arccos(1.0 - 2.0 * (i + 0.5) / n)
    phi = np.mod(i * math.pi * (3.0 - math.sqrt(5.0)), 2 * math.pi)
    return theta, phi


class _ModeRef:
    """A = N j(kr) Y and the closed-form B = curl A for one mode, k = x."""

    def __init__(self, tau: str, j: int, m: int, x: float, norm: float):
        self.tau, self.j, self.m, self.x, self.norm = tau, j, m, x, norm
        self.label = f"{tau} j={j} m={m} x={x:.9g}"
        th, ph = golden_directions(96)
        rr = np.linspace(0.0, 1.0, 41)[:, None] + 0.0 * th
        tt, pp = th + 0.0 * rr, ph + 0.0 * rr
        self.peak_a = float(np.sqrt((np.abs(self.a(rr, tt, pp)) ** 2).sum(axis=0)).max())
        self.peak_b = float(np.sqrt((np.abs(self.b(rr, tt, pp)) ** 2).sum(axis=0)).max())

    def _term(self, l, r, th, ph):
        """j_l(k r) Y_{j l m}, the harmonic from angular-momentum operators."""
        kr = self.x * np.asarray(r, float)
        return special.spherical_jn(l, kr) * orc.ladder_form_coupled_vsh(self.j, l, self.m, th, ph)

    def a(self, r, th, ph):
        j, t = self.j, self._term
        if self.tau == "M":
            return self.norm * t(j, r, th, ph)
        return self.norm * (math.sqrt(j) * t(j + 1, r, th, ph)
                            - math.sqrt(j + 1) * t(j - 1, r, th, ph))

    def b(self, r, th, ph):
        j, t = self.j, self._term
        pre = 1j * self.x * self.norm
        if self.tau == "M":
            return pre * (math.sqrt((j + 1) / (2 * j + 1)) * t(j - 1, r, th, ph)
                          - math.sqrt(j / (2 * j + 1)) * t(j + 1, r, th, ph))
        return pre * math.sqrt(2 * j + 1) * t(j, r, th, ph)


# ---------------------------------------------------------- CLI output

def parse_table(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    lines = text.strip().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def _close(got, ref, rel: float, scale: float | None = None) -> bool:
    return abs(got - ref) <= rel * (abs(ref) if scale is None else scale)


def check_cli(chk: Checker, op: dict, rc: int, out: str) -> float | None:
    """Check one CLI command's output; returns a root error for ``modes``."""
    _require(rc == 0, f"exit code {rc}")
    kind, fmt = op["kind"], op["format"]
    if kind == "modes":
        rows = parse_table(out, fmt)
        taus = [op["tau"]] if op["tau"] else ["E", "M"]
        labels = [(t, j, n) for t in taus for j in range(1, op["jmax"] + 1)
                  for n in range(1, op["nmax"] + 1)]
        spec_rows = [[r["tau"], int(r["j"]), 0, int(r["n"]), float(r["x_root"]),
                      float(r["omega"]), float(r["norm_const"]), int(r["degeneracy"])]
                     for r in rows]
        return chk.check_table(spec_rows, labels, printed=True)
    if kind == "field":
        rows = parse_table(out, fmt)
        nr, nd = op["nr"], op["ndirs"]
        _require(len(rows) == nr * nd, f"{len(rows)} field rows, expected {nr * nd}")
        th, ph = golden_directions(nd)
        pos = (np.repeat(np.linspace(0.0, 1.0, nr), nd), np.tile(th, nr), np.tile(ph, nr))
        for key, ref in zip(("r", "theta", "phi"), pos):
            got = np.array([float(r[key]) for r in rows])
            _require(np.all(np.abs(got - ref) <= 2 * PRINT_REL * np.maximum(np.abs(ref), 1e-300)
                            + 1e-300), f"field {key} positions differ")
        vals = {name: np.array([[float(r[f"{name}{c}_re"]) + 1j * float(r[f"{name}{c}_im"])
                                 for r in rows] for c in "xyz"]) for name in "AEB"}
        x = chk.true_root(op["tau"], op["j"], op["n"])
        chk.check_field(chk.mode(op["tau"], op["j"], op["m"], x), pos,
                        vals["A"], vals["E"], vals["B"], x, printed=True)
        return None
    if kind == "rotate":
        rows = {r["component"]: float(r["re"]) + 1j * float(r["im"])
                for r in parse_table(out, fmt)}
        v = rotation_matrix(*op["euler"]) @ np.asarray(op["vec"], float)
        sph = {"sph_+1": -(v[0] + 1j * v[1]) / math.sqrt(2), "sph_0": v[2],
               "sph_-1": (v[0] - 1j * v[1]) / math.sqrt(2)}
        ref = {"x": v[0], "y": v[1], "z": v[2], **sph}
        scale = float(np.linalg.norm(v))
        _require(set(rows) == set(ref), f"rotate components {sorted(rows)}")
        for k, val in ref.items():
            _require(_close(rows[k], val, 1e-8, scale), f"rotate {k}: {rows[k]} vs {val}")
        return None
    if kind == "ratios":
        rows = parse_table(out, fmt)
        ka2 = op["ka"] ** 2
        _require([int(r["j"]) for r in rows] == list(range(1, op["jmax"] + 1)), "ratios rows")
        for r in rows:
            j = int(r["j"])
            ref = {"M_over_E": ka2 / ((j + 1) * (2 * j + 1)),
                   "E_step": (j + 2) * ka2 / ((j + 1) * (2 * j + 1) * (2 * j + 3)),
                   "M_step": ka2 / (2 * j + 3) ** 2}
            for k in RATIO_KINDS:
                _require(_close(float(r[k]), ref[k], 2 * PRINT_REL), f"ratio {k} j={j}")
        return None
    if kind == "catalog":
        rows = parse_table(out, fmt)
        want = []
        for size in (1, 2):
            for alpha in combinations(QUANTUM_FIELDS, size):
                gamma = "+".join(f for f in QUANTUM_FIELDS if f not in alpha)
                pid = "+".join(alpha)
                want += [(f"{pid}:{b}", pid, gamma, b) for b in BELL_TYPES]
        got = [(r["identifier"], r["partition"], r["gamma_fields"], r["bell"]) for r in rows]
        _require(got == want, "catalog differs from the 10 x 4 enumeration")
        return None
    if kind == "build":
        payload = json.loads(out)
        _require(payload["partition"] == op["partition"] and payload["bell"] == op["bell"],
                 "build echoes the wrong entry")
        total = sum((1.0 if a["label1"] == a["label2"] else 2.0) * (a["re"] ** 2 + a["im"] ** 2)
                    for a in payload["amplitudes"])
        _require(abs(payload["norm"] - 1.0) <= 2 * PRINT_REL, f"norm {payload['norm']}")
        _require(abs(total - 1.0) <= 4 * PRINT_REL, f"amplitudes carry norm^2 {total}")
        return None
    raise ValueError(f"unknown CLI op {kind!r}")


def rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """V' = R V for the library's passive Euler convention (z-y-z)."""
    def rz(t):
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    c, s = math.cos(beta), math.sin(beta)
    ry = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    return rz(gamma) @ ry @ rz(alpha)


def margin_digits(residual: float, tolerance: float) -> float:
    if residual <= 0.0:
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tolerance / residual))


def check_reports(reports, name: str) -> float:
    """Exactly one passing report called ``name``; returns its margin digits."""
    _require(len(reports) == 1 and reports[0][0] == name,
             f"expected one report {name!r}, got {[r[0] for r in reports]}")
    _, resid, tol, passed = reports[0]
    margin = margin_digits(resid, tol)
    _require(passed and resid < tol, f"{name}: residual {resid:.3g} >= tolerance {tol:.3g}",
             margin)
    return margin


def check_result(chk: Checker, op: dict, res) -> float:
    """Check the encoded result of one worker op (see worker.py).

    Returns the relative root error (spectrum, mode_spec) or the margin
    digits (verify).
    """
    kind = op["op"]
    if kind == "spectrum":
        labels = [(t, j, n) for t in "EM" for j in range(1, op["jmax"] + 1)
                  for n in range(1, op["nmax"] + 1)]
        return chk.check_table(res, labels)
    if kind == "mode_spec":
        _require(len(res) == 1 and res[0][:4] == [op["tau"], op["j"], op["m"], op["n"]],
                 f"mode_spec returned {[r[:4] for r in res]}")
        return chk.check_spec(res[0])
    if kind == "verify":
        return check_reports(res, op["name"])
    raise ValueError(f"unknown op {kind!r}")


# ---------------------------------------------------------- self-test

def self_test(chk: Checker, tally) -> bool:
    """Perturbed outputs must fail and their controls pass, through ``tally``.

    A root perturbed by 1e-8 relative and a B field scaled by (1 + 1e-6)
    are fed to the same checks and the same tally that produce
    ``failed`` for the run's ops.
    """
    x = chk.true_root("M", 3, 2)
    good = ["M", 3, 0, 2, x, x, chk.norm_ref("M", 3, x), 7]
    bad = list(good)
    bad[4] = bad[5] = x * (1 + 1e-8)
    tally.run(lambda: chk.check_spec(good))
    tally.run(lambda: chk.check_spec(bad))
    xe = chk.true_root("E", 2, 1)
    ref = chk.mode("E", 2, 1, xe)
    rng = np.random.default_rng(0)
    pos = (rng.uniform(0, 1, 200) ** (1 / 3), np.arccos(rng.uniform(-1, 1, 200)),
           rng.uniform(0, 2 * math.pi, 200))
    a, b = ref.a(*pos), ref.b(*pos)
    tally.run(lambda: chk.check_field(ref, pos, a, 1j * xe * a, b, xe))
    tally.run(lambda: chk.check_field(ref, pos, a, 1j * xe * a, b * (1 + 1e-6), xe))
    return tally.outcomes == [True, False, True, False]


class Tally:
    """Attempted and failed ops; a check that raises counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outcomes: list[bool] = []
        self.errors: list[str] = []

    def fail(self, msg: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.outcomes.append(False)
        self.errors.append(msg)

    def run(self, check):
        """Run ``check``; returns its value, or the measured error it failed on."""
        try:
            value = check()
        except Fail as exc:
            self.fail(str(exc))
            return exc.value
        except Exception as exc:  # malformed output fails the op too
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        self.attempted += 1
        self.outcomes.append(True)
        return value
