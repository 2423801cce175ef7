"""Reproduce the "Baseline" figures of ROADMAP.md with the benchmark's environment.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

Each figure is measured REPS times in fresh interpreters (pinned
environment of run.py, sources byte-compiled first as run.py does) and
printed as a median next to the ROADMAP value.  A figure is flagged when
its median differs from the ROADMAP value by more than RUN_SPREAD, the
benchmark's run-to-run spread.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import time

from run import ENV, PY, ROOT, compile_sources, environment

REPS = 3
# the widest interquartile spread, as a share of the median, of a timing
# over ten seeds in the steadiness table of perfbench/README.md (0.123)
RUN_SPREAD = 0.12

ROADMAP = {
    "import_sphcavity_s": 0.71,
    "scipy_optimize_share": 0.55 / 0.71,
    "verify_cli_s": 6.0,
    "checks_total_s": 4.5,
    "spectrum_20_32_cold_s": 18.0,
    "spectrum_20_32_warm_s": 2.2,
    "check.orthonormality_spherical_wave": 1.32,
    "check.mode_energy": 0.77,
    "check.dual_condition": 0.57,
    "check.bessel_integral": 0.52,
    "check.mode_equipartition": 0.35,
    "check.mode_boundary": 0.28,
}

_CHECKS = """
import json, time
from sphcavity import verify as vf
out = {}
for name in vf.suite_check_names():
    t = time.perf_counter()
    vf.run_suite(only=[name])
    out[name] = time.perf_counter() - t
print(json.dumps(out))
"""

_SPECTRUM = """
import json, time
from sphcavity import modes as md
t = time.perf_counter(); md.spectrum(20, 32); cold = time.perf_counter() - t
t = time.perf_counter(); md.spectrum(20, 32); warm = time.perf_counter() - t
print(json.dumps([cold, warm]))
"""


def _py(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([PY, *flags, "-c", code], env=ENV, cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=600)


def import_figures() -> tuple[float, float]:
    """`import sphcavity` seconds, and the share of it spent importing scipy.optimize."""
    cumulative = {}
    for line in _py("import sphcavity", "-X", "importtime").stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative.setdefault(parts[2], int(parts[1]))
    code = "import time; t = time.perf_counter(); import sphcavity; print(time.perf_counter() - t)"
    total = float(_py(code).stdout)
    return total, cumulative["scipy.optimize"] / cumulative["sphcavity"]


def measure_once() -> dict:
    fig = {}
    fig["import_sphcavity_s"], fig["scipy_optimize_share"] = import_figures()
    checks = json.loads(_py(_CHECKS).stdout)
    fig["checks_total_s"] = sum(checks.values())
    fig.update({f"check.{k}": v for k, v in checks.items()})
    t0 = time.perf_counter()
    subprocess.run([PY, "-m", "sphcavity.cli", "verify", "--format", "csv"], env=ENV, cwd=ROOT,
                   capture_output=True, check=True, timeout=600)
    fig["verify_cli_s"] = time.perf_counter() - t0
    fig["spectrum_20_32_cold_s"], fig["spectrum_20_32_warm_s"] = json.loads(_py(_SPECTRUM).stdout)
    return fig


def main() -> int:
    compile_sources()
    runs = [measure_once() for _ in range(REPS)]
    slowest = sorted(runs[0], key=lambda k: -statistics.median(r[k] for r in runs))
    slowest = [k for k in slowest if k.startswith("check.")][:6]
    keys = [k for k in ROADMAP if not k.startswith("check.")] + slowest
    keys += [k for k in ROADMAP if k.startswith("check.") and k not in slowest]
    print(json.dumps(environment()))
    print(f"{'figure':42s} {'median':>9s} {'ROADMAP':>9s}")
    for key in keys:
        med = statistics.median(r[key] for r in runs)
        ref = ROADMAP.get(key)
        flag = "" if ref is None or abs(med / ref - 1) <= RUN_SPREAD else "  differs"
        ref_s = f"{ref:9.3g}" if ref is not None else f"{'-':>9s}"
        print(f"{key:42s} {med:9.3g} {ref_s}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
