"""Command-line interface.

Subcommands: ``modes`` (frequency/normalization tables), ``field`` (mode
field sampling), ``verify`` (property-check suite), ``entangle``
(two-photon catalog and state construction), ``rotate`` (vector and
coefficient rotations), ``ratios`` (transition scalings).

Machine formats (csv, json) are byte-stable across runs: deterministic
ordering and fixed 9-significant-digit numbers.  The default output format
can be set with the SPHCAVITY_FORMAT environment variable.

Exit codes: 0 success; 1 a failed check or a physics failure (RootFindingError,
or DegenerateStateError for a construction that symmetrizes to zero); 2 any
other ValueError or argparse error, including an unknown SPHCAVITY_FORMAT.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import entangle as ent
from . import modes as md
from . import verify as vf
from .angular import cartesian_to_spherical_components
from .rotations import rotate_cartesian, rotate_jm_coefficients
from .selection_rules import RATIO_KINDS, scaling_ratio

FORMATS = ("csv", "json", "pretty")
_ENV_FORMAT = "SPHCAVITY_FORMAT"


def _fmt(value, pretty: bool = False) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{value:.6g}" if pretty else f"{value:.9g}"
    return str(value)


def _round9(value):
    if isinstance(value, (float, np.floating)):
        return float(f"{value:.9g}")
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _emit_table(rows: list[dict], fmt: str) -> None:
    if not rows:
        return
    columns = list(rows[0].keys())
    if fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(_fmt(row[c]) for c in columns))
    elif fmt == "json":
        payload = [{c: _round9(r[c]) for c in columns} for r in rows]
        print(json.dumps(payload, separators=(",", ":")))
    else:
        widths = {c: max(len(c), max(len(_fmt(r[c], True)) for r in rows)) for c in columns}
        print("  ".join(c.ljust(widths[c]) for c in columns))
        for row in rows:
            print("  ".join(_fmt(row[c], True).ljust(widths[c]) for c in columns))


def _config_from(args) -> md.CavityConfig:
    return md.CavityConfig.si(args.radius_m) if args.si else md.CavityConfig(radius=args.radius_m)


def _add_common(sub, si: bool = False):
    sub.add_argument("--format", choices=FORMATS,
                     default=os.environ.get(_ENV_FORMAT, "pretty"))
    if si:
        sub.add_argument("--si", action="store_true",
                         help="use SI constants (c, hbar, epsilon0)")
        sub.add_argument("--radius-m", type=float, default=1.0,
                         help="cavity radius in metres (default 1)")


def _listed(parse):
    """argparse type: comma-separated values, each read by parse, which
    argparse names when it rejects one."""
    def read(text: str) -> list:
        return [parse(t) for t in text.split(",")]
    read.__name__ = parse.__name__
    return read


def cmd_modes(args) -> int:
    # one tau solves and guards only its own roots
    taus = (args.tau.upper(),) if args.tau else (md.TAU_ELECTRIC, md.TAU_MAGNETIC)
    specs = md._spectrum(args.jmax, args.nmax, _config_from(args), taus)
    rows = [{
        "tau": s.index.tau, "j": s.index.j, "n": s.index.n,
        "x_root": s.x_root, "omega": s.omega,
        "degeneracy": s.degeneracy, "norm_const": s.norm_const,
    } for s in specs]
    _emit_table(rows, args.format)
    return 0


def cmd_field(args) -> int:
    config = _config_from(args)
    spec = md.mode_spec(args.tau, args.j, args.m, args.n, config)
    if args.nr < 1 or args.ndirs < 1:
        raise ValueError("--nr and --ndirs must be >= 1")
    radii = np.linspace(0.0, config.radius, args.nr)
    th, ph = md.fibonacci_directions(args.ndirs)
    sample = md.mode_field(spec, radii[:, None], th, ph)
    rows = []
    for i, r in enumerate(radii):
        for k in range(args.ndirs):
            row = {"r": float(r), "theta": float(th[k]), "phi": float(ph[k])}
            for name, arr in (("A", sample.A), ("E", sample.E), ("B", sample.B)):
                for ci, comp in enumerate("xyz"):
                    row[f"{name}{comp}_re"] = float(arr[ci, i, k].real)
                    row[f"{name}{comp}_im"] = float(arr[ci, i, k].imag)
            rows.append(row)
    _emit_table(rows, args.format)
    return 0


def cmd_verify(args) -> int:
    overrides = {}
    for spec in args.tol or []:
        name, sep, value = spec.partition("=")
        if not sep:
            raise ValueError(f"--tol expects NAME=VALUE, got {spec!r}")
        overrides[name] = float(value)
    reports = vf.run_suite(only=args.only or None, tolerances=overrides, seed=args.seed)
    rows = [r.as_dict() for r in reports]
    if args.format == "csv":  # details hold commas
        rows = [{k: v for k, v in row.items() if k != "details"} for row in rows]
    _emit_table(rows, args.format)
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(reports)} checks failed: "
              + ", ".join(r.name for r in failed), file=sys.stderr)
        return 1
    return 0


def _parse_values(partition_fields, text: str):
    parts = text.split(",")
    if len(parts) != len(partition_fields):
        raise ValueError(f"expected {len(partition_fields)} comma-separated "
                         f"value(s) for fields {partition_fields}, got {text!r}")
    out = []
    for field_name, raw in zip(partition_fields, parts):
        out.append(raw.upper() if field_name == "tau" else int(raw))
    return tuple(out)


def cmd_entangle(args) -> int:
    if args.action == "catalog":
        rows = [{
            "identifier": e.identifier,
            "partition": e.partition.id,
            "gamma_fields": "+".join(e.partition.gamma_fields),
            "bell": e.bell,
        } for e in ent.enumerate_catalog()]
        _emit_table(rows, args.format)
        return 0
    # build
    required = ("partition", "bell", "alpha1", "alpha2", "gamma1", "gamma2")
    missing = [f"--{name}" for name in required if getattr(args, name) is None]
    if missing:
        raise ValueError(f"entangle build requires {' '.join(missing)}")
    partition = ent.partition_by_id(args.partition)
    alpha = (_parse_values(partition.alpha_fields, args.alpha1),
             _parse_values(partition.alpha_fields, args.alpha2))
    gamma = (_parse_values(partition.gamma_fields, args.gamma1),
             _parse_values(partition.gamma_fields, args.gamma2))
    state = ent.build_state(partition, args.bell, alpha, gamma)
    payload = {
        "partition": partition.id,
        "bell": args.bell,
        "norm": _round9(state.norm()),
        "amplitudes": [
            {"label1": list(l1), "label2": list(l2),
             "re": _round9(a.real), "im": _round9(a.imag)}
            for (l1, l2), a in state.sorted_items()
        ],
    }
    if args.format == "pretty":
        print(f"partition {partition.id}, bell {args.bell}, norm {state.norm():.6g}")
        for (l1, l2), a in state.sorted_items():
            print(f"  {l1} , {l2}  ->  {a.real:+.6g}{a.imag:+.6g}j")
    else:
        print(json.dumps(payload, separators=(",", ":")))
    return 0


def cmd_rotate(args) -> int:
    if len(args.euler) != 3:
        raise ValueError(f"--euler expects three comma-separated radians, got "
                         f"{len(args.euler)}")
    if args.vec:
        rotated = rotate_cartesian(np.array(args.vec), *args.euler)
        sph = cartesian_to_spherical_components(rotated)
        rows = [{
            "component": name, "re": float(val.real), "im": float(val.imag),
        } for name, val in (("x", rotated[0]), ("y", rotated[1]), ("z", rotated[2]),
                            ("sph_+1", sph[0]), ("sph_0", sph[1]), ("sph_-1", sph[2]))]
        _emit_table(rows, args.format)
        return 0
    if args.coeffs:
        if args.j is None:
            raise ValueError("--coeffs requires --j")
        rotated = rotate_jm_coefficients(args.j, np.array(args.coeffs), *args.euler)
        rows = [{"m": args.j - i, "re": float(c.real), "im": float(c.imag)}
                for i, c in enumerate(rotated)]
        _emit_table(rows, args.format)
        return 0
    raise ValueError("provide --vec X,Y,Z or --coeffs ... with --j")


def cmd_ratios(args) -> int:
    if args.jmax < 1:
        raise ValueError("--jmax must be >= 1")
    rows = [{
        "j": j,
        **{kind: scaling_ratio(kind, j, args.ka) for kind in RATIO_KINDS},
    } for j in range(1, args.jmax + 1)]
    _emit_table(rows, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphcavity",
        description="Photon modes of a spherical perfectly-conducting cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", help="allowed-frequency and normalization table")
    p.add_argument("--tau", choices=("E", "M", "e", "m"), default=None)
    p.add_argument("--jmax", type=int, default=4)
    p.add_argument("--nmax", type=int, default=4)
    _add_common(p, si=True)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("field", help="sample A, E, B for one mode")
    p.add_argument("--tau", choices=("E", "M", "e", "m"), required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--nr", type=int, default=5, help="number of radial shells")
    p.add_argument("--ndirs", type=int, default=8, help="directions per shell")
    _add_common(p, si=True)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("verify", help="run the property-check suite")
    p.add_argument("--only", action="append", default=None,
                   help="substring filter on check names (repeatable)")
    p.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE",
                   help="tolerance override (repeatable)")
    p.add_argument("--seed", type=int, default=12345,
                   help="seed of the random.Random sample points of the checks that take one")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("entangle", help="two-photon entangled-state catalog")
    p.add_argument("action", choices=("catalog", "build"))
    p.add_argument("--partition", default=None,
                   help="entangling fields, e.g. 'omega' or 'omega+j'")
    p.add_argument("--bell", choices=ent.BELL_TYPES, default=None)
    p.add_argument("--alpha1", default=None, help="first entangling value(s), comma-separated")
    p.add_argument("--alpha2", default=None)
    p.add_argument("--gamma1", default=None, help="first spectator value(s), comma-separated")
    p.add_argument("--gamma2", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("rotate", help="rotate a vector or jm coefficients")
    p.add_argument("--vec", type=_listed(complex), default=None,
                   help="Cartesian components X,Y,Z")
    p.add_argument("--coeffs", type=_listed(complex), default=None,
                   help="coefficients c_j,...,c_-j")
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--euler", type=_listed(float), required=True,
                   help="alpha,beta,gamma in radians")
    _add_common(p)
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("ratios", help="transition-probability scaling ratios")
    p.add_argument("--jmax", type=int, default=4)
    p.add_argument("--ka", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ratios)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # argparse does not check a default, taken from the environment,
        # against the choices
        if args.format not in FORMATS:
            raise ValueError(f"{_ENV_FORMAT}={args.format!r} is not one of "
                             + ", ".join(FORMATS))
        return args.func(args)
    # a DegenerateStateError is also a ValueError
    except (ent.DegenerateStateError, md.RootFindingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
