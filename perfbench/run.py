"""sphcavity benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one driving process, at most one child at a time):

* ``cli_cold``: each op is a fresh ``python -m sphcavity.cli`` process.
* ``mode_tables``: ``spectrum`` / ``mode_spec`` requests; each pass runs
  in a fresh worker, so the root cache starts cold.
* ``verify_suite``: one named check per op through ``run_suite``; each
  pass runs in a fresh worker.

Ops come in passes of fixed composition drawn from the seed.  A timed
run runs passes until the pass boundary nearest to ``--seconds`` of wall
time.  The timed region is the sum of the op latencies.  Every op's
output is checked after its latency is taken (see checker.py).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs a fixed
number of passes untraced and then traced and prints the per-layer
metrics.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT_DIR = ROOT / ".perfbench_out"
PY = sys.executable

SETUP_STARTS = 5  # workers started only to time set-up, in every run

# nominal seconds per pass at the commit that defined the benchmark; sizes
# the fixed work of a traced run
NOMINAL_PASS_S = {"cli_cold": 3.5, "mode_tables": 4.5, "verify_suite": 3.0}
# fixed tail percentile per workload: the highest with at least ten ops
# beyond it whenever a run holds at least 25 cli_cold, 64 mode_tables or 96
# verify_suite ops, the fewest a 24-second run held here in a slow phase of
# the host.  Passes repeat one make-up (cli_cold and mode_tables in pairs of
# passes), so a fixed percentile reads nearly the same op mix whatever the
# number of passes.
TAIL_PCT = {"cli_cold": 60, "mode_tables": 85, "verify_suite": 90}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SPHCAVITY_FORMAT"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    return env


ENV = child_env()


def source_id() -> str:
    """The commit when the checkout is a git repository, else a digest of src/."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


# ------------------------------------------------------------------ workers

class Worker:
    """One worker.py process speaking JSON lines."""

    def __init__(self, workload: str, traced: bool = False):
        argv = [PY, str(HERE / "worker.py"), workload] + (["--trace"] if traced else [])
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=ENV, cwd=ROOT)
        try:
            self.ready = self._reply()
        except RuntimeError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        try:
            self.proc.stdin.write('{"op": "exit"}\n')
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_cli(argv: list[str]) -> tuple[float, int, str, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([PY, "-m", "sphcavity.cli", *argv], capture_output=True, text=True,
                          env=ENV, cwd=ROOT, timeout=120)
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------- workloads

def _fmt(rng) -> str:
    return rng.choice(("csv", "json"))


def cli_pass(seed: int, idx: int, ready=None) -> list[dict]:
    """Five commands; two consecutive passes hold every command kind.

    Even passes: two small ``modes`` tables, ``field``, ``rotate`` and
    ``entangle catalog``.  Odd passes: one small and one mid-size
    ``modes`` table, ``field``, ``ratios`` and ``entangle build``.
    """
    rng = random.Random(f"cli_cold:{seed}:{idx}")
    odd = idx % 2
    ops = [{"kind": "modes", "jmax": rng.randint(1, 4), "nmax": rng.randint(1, 4),
            "tau": rng.choice((None, "E", "M")), "format": _fmt(rng)} for _ in range(2 - odd)]
    if odd:
        ops.append({"kind": "modes", "jmax": rng.randint(6, 9), "nmax": rng.randint(6, 9),
                    "tau": None, "format": _fmt(rng)})
    j = rng.randint(1, 6)
    ops.append({"kind": "field", "tau": rng.choice("EM"), "j": j, "m": rng.randint(-j, j),
                "n": rng.randint(1, 6), "nr": rng.randint(2, 5), "ndirs": rng.randint(4, 16),
                "format": _fmt(rng)})
    if not odd:
        ops.append({"kind": "rotate", "vec": [round(rng.uniform(-2, 2), 4) for _ in range(3)],
                    "euler": [round(rng.uniform(0, 2 * math.pi), 4),
                              round(rng.uniform(0, math.pi), 4),
                              round(rng.uniform(0, 2 * math.pi), 4)], "format": _fmt(rng)})
        ops.append({"kind": "catalog", "format": _fmt(rng)})
    else:
        ops.append({"kind": "ratios", "jmax": rng.randint(1, 8),
                    "ka": float(f"{10 ** rng.uniform(-4, -1.5):.4g}"), "format": _fmt(rng)})
        ops.append(_build_op(rng))
    rng.shuffle(ops)
    return ops


def _build_op(rng) -> dict:
    """An ``entangle build`` whose construction never symmetrizes to zero:
    both value pairs are distinct, and |m| <= 1 < j for every label."""
    fields = ("tau", "omega", "j", "m")
    pairs = {"tau": rng.sample(["E", "M"], 2), "omega": rng.sample(range(1, 6), 2),
             "j": rng.sample(range(2, 5), 2), "m": rng.sample(range(-1, 2), 2)}
    alpha = sorted(rng.sample(fields, rng.choice((1, 2))), key=fields.index)
    gamma = [f for f in fields if f not in alpha]
    values = {f"{blk}{k + 1}": ",".join(str(pairs[f][k]) for f in flds)
              for blk, flds in (("alpha", alpha), ("gamma", gamma)) for k in range(2)}
    return {"kind": "build", "partition": "+".join(alpha), "format": "json",
            "bell": rng.choice(("psi-minus", "psi-plus", "phi-plus", "phi-minus")), **values}


def cli_argv(op: dict) -> list[str]:
    kind, fmt = op["kind"], ["--format", op["format"]]
    if kind == "modes":
        tau = ["--tau", op["tau"]] if op["tau"] else []
        return ["modes", "--jmax", str(op["jmax"]), "--nmax", str(op["nmax"]), *tau, *fmt]
    if kind == "field":
        return ["field", "--tau", op["tau"], "--j", str(op["j"]), f"--m={op['m']}",
                "--n", str(op["n"]), "--nr", str(op["nr"]), "--ndirs", str(op["ndirs"]), *fmt]
    if kind == "rotate":
        return ["rotate", "--vec=" + ",".join(map(str, op["vec"])),
                "--euler=" + ",".join(map(str, op["euler"])), *fmt]
    if kind == "ratios":
        return ["ratios", "--jmax", str(op["jmax"]), "--ka", repr(op["ka"]), *fmt]
    if kind == "catalog":
        return ["entangle", "catalog", *fmt]
    return ["entangle", "build", "--partition", op["partition"], "--bell", op["bell"],
            *(f"--{k}={op[k]}" for k in ("alpha1", "alpha2", "gamma1", "gamma2")), *fmt]


# Table sizes of a mode_tables pass: four small tables, one mid-size, and
# one at each edge.  Their (tau, j, count) cache keys never collide with
# each other or with the mode_spec groups, so a pass costs the same in any
# order at the commit that defined the benchmark.
MODE_TABLES = ((2, 4), (3, 3), (4, 2), (4, 5), (7, 7), (20, 1), (2, 32))
# j bands of the three (tau, j) groups, and the n bands each group asks for
MODE_GROUPS_J = ((5, 6), (10, 12), (18, 20))
MODE_GROUPS_N = ((3, 4), (9, 11), (28, 30))


def mode_tables_pass(seed: int, idx: int, ready=None) -> list[dict]:
    """The seven tables and three (tau, j) groups at three growing n, in
    seeded order; the seed draws j, m and n within narrow bands.  An E root
    costs about twice an M root, so tau alternates over groups and passes
    instead of being drawn."""
    rng = random.Random(f"mode_tables:{seed}:{idx}")
    ops = [{"op": "spectrum", "jmax": jm, "nmax": nm} for jm, nm in MODE_TABLES]
    for g, jr in enumerate(MODE_GROUPS_J):
        tau, j = "EM"[(g + idx) % 2], rng.randint(*jr)
        for nr in MODE_GROUPS_N:
            ops.append({"op": "mode_spec", "tau": tau, "j": j, "m": rng.randint(-j, j),
                        "n": rng.randint(*nr)})
    rng.shuffle(ops)
    return ops


def verify_pass(seed: int, idx: int, ready) -> list[dict]:
    """Every check once, in suite_check_names() order, with one suite seed."""
    suite_seed = random.Random(f"verify_suite:{seed}:{idx}").randrange(1, 2 ** 31 - 1)
    return [{"op": "verify", "name": name, "seed": suite_seed} for name in ready["names"]]


# ------------------------------------------------------------------ checks

class Outcomes:
    """Latencies, check results and accuracy figures of one run."""

    def __init__(self, chk, tally):
        self.chk, self.tally = chk, tally
        self.lat: list[float] = []
        self.digits: list[float] = []
        self.margins: dict[str, float] = {}
        self.by_name: dict[str, list[float]] = {}

    def add_pass(self, ops: list[dict], lat: list[float]) -> None:
        self.lat += lat
        for op, dt in zip(ops, lat):
            if op.get("op") == "verify":
                self.by_name.setdefault(op["name"], []).append(dt)

    def add_digits(self, err: float | None) -> None:
        if err is not None:
            self.digits.append(-math.log10(max(err, 1e-30)))


def check_worker_op(out: Outcomes, op: dict, resp: dict) -> None:
    if "error" in resp:
        out.tally.fail(f"{op['op']}: {resp['error']}")
        return
    from checker import check_result
    value = out.tally.run(lambda: check_result(out.chk, op, resp["result"]))
    if op["op"] == "verify":
        if value is not None:
            out.margins[op["name"]] = min(value, out.margins.get(op["name"], math.inf))
    else:
        out.add_digits(value)


def check_cli_op(out: Outcomes, op: dict, rc: int, stdout: str, stderr: str) -> None:
    from checker import check_cli
    err = out.tally.run(lambda: check_cli(out.chk, op, rc, stdout))
    if rc != 0:
        out.tally.errors[-1] += f" ({stderr.strip()[-200:]})"
    out.add_digits(err)


# -------------------------------------------------------------------- runs

WORKLOADS = {
    "cli_cold": cli_pass,
    "mode_tables": mode_tables_pass,
    "verify_suite": verify_pass,
}


def run_op(workload: str, op: dict, tag: str, worker, out: Outcomes, traced: bool,
           cli_in_worker: bool, dumps: list | None) -> float:
    """Execute one op, check its output, and return its latency."""
    if workload != "cli_cold":
        resp = worker.call({**op, "id": tag})
        check_worker_op(out, op, resp)
        return resp["dt"]
    if not cli_in_worker:
        dt, rc, stdout, stderr = run_cli(cli_argv(op))
        check_cli_op(out, op, rc, stdout, stderr)
        return dt
    w = Worker(workload, traced)
    try:
        resp = w.call({"op": "cli", "argv": cli_argv(op), "id": tag})
        if dumps is not None:
            dumps.append(w.call({"op": "spans"}))
    finally:
        w.close()
    if "error" in resp:
        out.tally.fail(resp["error"])
    else:
        check_cli_op(out, op, resp["result"]["rc"], resp["result"]["stdout"],
                     resp["result"]["stderr"])
    return resp["dt"]


def run_passes(workload: str, seed: int, out: Outcomes, *, n_passes: int | None = None,
               seconds: float | None = None, traced: bool = False, cli_in_worker: bool = False,
               setups: list | None = None, dumps: list | None = None) -> int:
    """Run passes until ``n_passes`` have run, or until the pass boundary
    nearest to ``seconds`` of wall time; returns the passes run.

    mode_tables and verify_suite run each pass in a fresh worker, so the
    library state starts cold.  cli_cold ops run as ``python -m
    sphcavity.cli`` processes, or with ``cli_in_worker`` as ``cli.main``
    calls in a fresh worker each.
    """
    make_pass = WORKLOADS[workload]
    t_start = time.perf_counter()
    k = 0
    while True:
        worker = None
        try:
            if workload != "cli_cold":
                worker = Worker(workload, traced)
                if setups is not None:
                    setups.append(worker.setup_s)
            ops = make_pass(seed, k, worker.ready if worker else None)
            lat = [run_op(workload, op, f"{k}.{n}", worker, out, traced, cli_in_worker, dumps)
                   for n, op in enumerate(ops)]
            if dumps is not None and worker is not None:
                dumps.append(worker.call({"op": "spans"}))
        finally:
            if worker is not None:
                worker.close()
        out.add_pass(ops, lat)
        k += 1
        if n_passes is not None and k >= n_passes:
            break
        elapsed = time.perf_counter() - t_start
        if seconds is not None and elapsed * (1 + 0.5 / k) >= seconds:
            break
    return k


def timed_run(workload: str, seed: int, seconds: float, out: Outcomes) -> dict:
    setups: list[float] = []
    for _ in range(SETUP_STARTS):
        w = Worker(workload)
        setups.append(w.setup_s)
        w.close()
    passes = run_passes(workload, seed, out, seconds=seconds, setups=setups)
    lat = np.array(out.lat)
    pct = TAIL_PCT[workload]
    tail = float(np.percentile(lat, pct))
    accuracy = min(out.margins.values() if workload == "verify_suite" else out.digits,
                   default=0.0)  # 0 only when no op returned a checkable output
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    n_note = f"n={len(lat)} ops in {passes} passes"
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} starts"),
        "ops_per_s": (len(lat) / lat.sum(), "1/s", n_note),
        "op_p50_ms": (1e3 * float(np.median(lat)), "ms", n_note),
        "op_tail_ms": (1e3 * tail, "ms", f"p{pct}, {int(np.sum(lat > tail))} beyond; {n_note}"),
        "ok_ratio": (1.0 - out.tally.failed / max(out.tally.attempted, 1), "ratio",
                     f"fail_ratio = {out.tally.failed}/{out.tally.attempted}"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", "largest child"),
        "accuracy_digits": (accuracy, "digits", "min over "
                            + (f"{len(out.margins)} checks" if workload == "verify_suite"
                               else f"{len(out.digits)} checked outputs")),
    }


# ------------------------------------------------------------- traced run

def interpreter_figures(reps: int = 5) -> dict:
    """Bare interpreter start, and `import sphcavity` in fresh interpreters."""
    interp, imp, mods = [], [], []
    code = ("import sys, time; n = len(sys.modules); t = time.perf_counter(); "
            "import sphcavity; print(time.perf_counter() - t, len(sys.modules) - n)")
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([PY, "-c", "pass"], env=ENV, cwd=ROOT, check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
        res = subprocess.run([PY, "-c", code], env=ENV, cwd=ROOT, check=True, timeout=60,
                             capture_output=True, text=True)
        dt, n = res.stdout.split()
        imp.append(float(dt))
        mods.append(int(n))
    return {"cli.interp_s": statistics.median(interp), "cli.import_s": statistics.median(imp),
            "cli.import_modules": statistics.median(mods)}


def traced_run(workload: str, seed: int, seconds: float, out: Outcomes,
               layer_names: list[str]) -> tuple[dict, list]:
    n_passes = max(1, int(seconds / (2 * NOMINAL_PASS_S[workload])))
    untraced = Outcomes(out.chk, out.tally)
    run_passes(workload, seed, untraced, n_passes=n_passes, cli_in_worker=True)
    dumps: list = []
    run_passes(workload, seed, out, n_passes=n_passes, traced=True, cli_in_worker=True,
               dumps=dumps)
    import tracing
    d = tracing.derive(dumps)
    d.update(interpreter_figures())
    d["trace.overhead_ratio"] = statistics.median(t / u for t, u in zip(out.lat, untraced.lat))
    d["trace.coverage"] = d["coverage"]
    for name, times in untraced.by_name.items():
        d[f"verify.{name}.s"] = statistics.median(times)
    for name, margin in out.margins.items():
        d[f"verify.{name}.margin_digits"] = margin
    values = {name: float(d.get(name, 0.0)) for name in layer_names}
    return values, dumps


# ------------------------------------------------------------------- main

def compile_sources() -> None:
    """Byte-compile src/ once, so that cold processes do not compile on import."""
    subprocess.run([PY, "-m", "compileall", "-q", str(SRC)], cwd=ROOT, check=True, timeout=300,
                   env={**ENV, "PYTHONDONTWRITEBYTECODE": ""}, stdout=subprocess.DEVNULL)


def environment() -> dict:
    probe = subprocess.run(
        [PY, "-c", "import json, platform, numpy, scipy; print(json.dumps({'python': "
         "platform.python_version(), 'numpy': numpy.__version__, 'scipy': scipy.__version__}))"],
        env=ENV, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return {**json.loads(probe.stdout), "nproc": os.cpu_count(), "source": source_id()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "sphcavity" / "__init__.py", TESTS / "_oracles.py",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print("perfbench: not a sphcavity checkout; missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(TESTS))
    import checker

    compile_sources()
    env_info = environment()
    chk = checker.Checker()
    tally = checker.Tally()
    out = Outcomes(chk, tally)

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, dumps = traced_run(args.workload, args.seed, args.seconds, out, list(units))
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env_info, "workload": args.workload,
                                          "seed": args.seed, "dumps": dumps}))
        metrics = {k: (v, units[k], "") for k, v in values.items()}
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = timed_run(args.workload, args.seed, args.seconds, out)
        if set(metrics) != set(units):
            raise RuntimeError("BENCHMARK.json and run.py disagree on the end-to-end metrics")

    selftest = checker.Tally()
    selftest_ok = checker.self_test(chk, selftest)
    for name, (value, unit, note) in metrics.items():
        print(f"{args.workload:13s} {name:48s} {value:14.6g} {unit:7s} {note}")
    print(f"checker self-test: {'ok' if selftest_ok else 'FAILED'} "
          f"({selftest.failed} of {selftest.attempted} fed outputs failed; 2 perturbed expected)")
    for msg in tally.errors[:5]:
        print(f"failed: {msg}", file=sys.stderr)
    print(json.dumps({"env": env_info}))
    print(json.dumps({
        "correct": tally.failed == 0 and selftest_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
