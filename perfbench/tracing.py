"""Span recording around the public functions of each sphcavity module.

``Tracer.install`` wraps every function named in ``TARGETS`` at its module
boundary: the defining module's attribute and every other ``sphcavity``
module attribute bound to the same function object at import (for
example ``sphcavity.modes.spherical_bessel_j``).  No library file
changes.  Spans are kept in memory as lists
``[name, start, end, parent, op, points]`` and shipped to run.py
with ``dump``; ``derive`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

TARGETS = {
    "specfun": ("spherical_bessel_j", "bessel_j_halfint", "scalar_harmonic", "legendre_plm"),
    "angular": ("vsh_coupled", "vsh", "helicity_vsh"),
    "rotations": ("wigner_d_matrix", "wigner_small_d", "spherical_wave_helicity"),
    "modes": ("find_roots", "spectrum", "mode_spec", "normalization_constant",
              "mode_field", "boundary_residual",
              "magnetic_root_equation", "electric_root_equation"),
    "verify": ("run_suite", "sphere_quadrature"),
    "entangle": ("build_state",),
    "cli": ("main",),
}

# positional arguments holding evaluation points, for point counts
_POINT_ARGS = {
    "specfun.spherical_bessel_j": (1,),
    "specfun.bessel_j_halfint": (1,),
    "modes.magnetic_root_equation": (1,),
    "modes.electric_root_equation": (1,),
    "modes.mode_field": (1, 2, 3),
}

NAME, START, END, PARENT, OP, POINTS = range(6)


def _points(args, positions) -> int:
    """Evaluation points of a call; -1 marks a scalar call."""
    vals = [args[i] for i in positions if i < len(args)]
    if not vals:
        return 0
    if all(np.ndim(v) == 0 for v in vals):
        return -1
    return int(np.broadcast(*[np.asarray(v) for v in vals]).size)


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.roots_seen: set[tuple[str, int]] = set()
        self.counters = {"find_roots.reused": 0, "find_roots.roots": 0}

    def _open(self, name: str, points: int = 0) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, points])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.stack.pop()
        self.spans[sid][END] = time.perf_counter()

    def run_op(self, op_id, kind: str, fn):
        """Run ``fn`` under a root span ``op.<kind>`` tagged with ``op_id``."""
        self.op = op_id
        sid = self._open(f"op.{kind}")
        try:
            return fn()
        finally:
            self._close(sid)
            self.op = None

    def _wrap(self, name: str, fn):
        positions = _POINT_ARGS.get(name, ())
        is_find_roots = name == "modes.find_roots"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_find_roots:
                key = (str(args[0]).upper(), int(args[1]))
                self.counters["find_roots.reused"] += key in self.roots_seen
                self.roots_seen.add(key)
                self.counters["find_roots.roots"] += int(args[2])
            sid = self._open(name, _points(args, positions))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded sphcavity module."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "sphcavity" or n.startswith("sphcavity.")]
        for short, names in TARGETS.items():
            home = sys.modules.get(f"sphcavity.{short}")
            if home is None:
                continue
            for fname in names:
                orig = getattr(home, fname)
                traced = self._wrap(f"{short}.{fname}", orig)
                for mod in loaded:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, traced)

    def dump(self) -> dict:
        out = {"spans": self.spans, "counters": dict(self.counters)}
        self.spans = []
        self.counters = {k: 0 for k in self.counters}
        return out


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _under(spans, sid: int, name: str) -> bool:
    p = spans[sid][PARENT]
    while p is not None:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def derive(dumps: list[dict]) -> dict:
    """Per-layer numbers from the span dumps of one traced run.

    Every dump comes from one process; span ids are local to a dump.
    Returns totals over the traced work plus ``op_wall_s`` (sum of the
    ``op.*`` root spans) and ``coverage`` (share of op wall time that
    top-level library spans account for).
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    scalar_calls: dict[str, int] = {}
    points: dict[str, int] = {}
    root_evals = 0
    field_bessel_points = 0
    op_wall = 0.0
    op_self = 0.0
    cli_self_ms = []
    counters = {"find_roots.reused": 0, "find_roots.roots": 0}
    for dump in dumps:
        spans = dump["spans"]
        for k, v in dump["counters"].items():
            counters[k] += v
        own = self_times(spans)
        for sid, s in enumerate(spans):
            name = s[NAME]
            if name.startswith("op."):
                op_wall += s[END] - s[START]
                op_self += own[sid]
                continue
            self_s[name] = self_s.get(name, 0.0) + own[sid]
            calls[name] = calls.get(name, 0) + 1
            if s[POINTS] < 0:
                scalar_calls[name] = scalar_calls.get(name, 0) + 1
            else:
                points[name] = points.get(name, 0) + s[POINTS]
            n_eval = 1 if s[POINTS] < 0 else s[POINTS]
            if name in ("modes.magnetic_root_equation", "modes.electric_root_equation"):
                root_evals += n_eval
            elif name == "specfun.bessel_j_halfint" and s[PARENT] is not None \
                    and spans[s[PARENT]][NAME] == "modes.find_roots":
                root_evals += n_eval  # the companion-zero scan of find_roots
            elif name == "specfun.spherical_bessel_j" and _under(spans, sid, "modes.mode_field"):
                field_bessel_points += n_eval
            if name == "cli.main":
                cli_self_ms.append(1e3 * own[sid])

    out = {f"{k}.self_s": v for k, v in self_s.items()}
    out.update({f"{k}.calls": v for k, v in calls.items()})
    bessel = "specfun.spherical_bessel_j"
    out[f"{bessel}.scalar_calls"] = scalar_calls.get(bessel, 0)
    out[f"{bessel}.array_points"] = points.get(bessel, 0)
    out["modes.mode_field.points"] = points.get("modes.mode_field", 0)
    out["modes.root_evals"] = root_evals
    roots = counters["find_roots.roots"]
    out["modes.root_evals_per_root"] = root_evals / roots if roots else 0.0
    n_find = calls.get("modes.find_roots", 0)
    out["modes.find_roots.reuse_ratio"] = counters["find_roots.reused"] / n_find if n_find else 0.0
    field_pts = points.get("modes.mode_field", 0)
    out["modes.bessel_points_per_field_point"] = (field_bessel_points / field_pts
                                                  if field_pts else 0.0)
    out["cli.command_self_ms"] = statistics.median(cli_self_ms) if cli_self_ms else 0.0
    out["op_wall_s"] = op_wall
    out["coverage"] = (op_wall - op_self) / op_wall if op_wall > 0 else 0.0
    return out
