"""Benchmark worker: runs sphcavity calls for run.py over a JSON-lines pipe.

Usage: ``python perfbench/worker.py <workload> [--trace]``, with the
library's ``src`` directory on PYTHONPATH.  The worker imports the
library, installs the tracer when asked, and writes ``{"ready": ...}``.
Each stdin line is then one op; the reply carries the op's wall time
``dt``, measured around the library call alone, and the outputs run.py
checks.  The worker never checks anything itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Library:
    """The library state of one worker: its imports."""

    def __init__(self, workload: str):
        from sphcavity import modes, verify  # importing the library is set-up

        self.workload = workload
        self.md, self.vf = modes, verify
        self.cli = None
        if workload == "cli_cold":
            from sphcavity import cli
            self.cli = cli

    def ready(self) -> dict:
        out = {"ready": True}
        if self.workload == "verify_suite":
            out["names"] = self.vf.suite_check_names()
        return out

    def call(self, req: dict):
        """Return (thunk, encode): the timed library call and its encoder."""
        md, kind = self.md, req["op"]
        if kind == "spectrum":
            return (lambda: md.spectrum(req["jmax"], req["nmax"])), _encode_specs
        if kind == "mode_spec":
            return (lambda: [md.mode_spec(req["tau"], req["j"], req["m"], req["n"])]), _encode_specs
        if kind == "verify":
            return (lambda: self.vf.run_suite(only=[req["name"]], seed=req["seed"])), \
                _encode_reports
        if kind == "cli":
            return (lambda: _run_cli(self.cli, req["argv"])), (lambda r: r)
        raise ValueError(f"unknown op {kind!r}")


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _encode_specs(specs):
    return [[s.index.tau, s.index.j, s.index.m, s.index.n, s.x_root, s.omega,
             s.norm_const, s.degeneracy] for s in specs]


def _encode_reports(reports):
    return [[r.name, r.max_residual, r.tolerance, r.passed] for r in reports]


def main() -> int:
    workload = sys.argv[1]
    traced = "--trace" in sys.argv[2:]
    lib = Library(workload)
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    _send(lib.ready())
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "exit":
            break
        if req["op"] == "spans":
            _send(tracer.dump() if tracer else {"spans": [], "counters": {}})
            continue
        thunk, encode = lib.call(req)
        try:
            t0 = time.perf_counter()
            result = tracer.run_op(req.get("id"), req["op"], thunk) if tracer else thunk()
            dt = time.perf_counter() - t0
        except Exception as exc:  # reported to run.py as a failed op
            _send({"dt": time.perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"})
            continue
        _send({"dt": dt, "result": encode(result)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
