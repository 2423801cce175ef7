"""Golden CLI outputs: the "same behaviour" gate for refactors.

Each file under tests/golden/ holds the stdout of one ``sphcavity``
command.  Tables, rotations, ratios and the entanglement commands must
reproduce it byte for byte.  Two outputs carry digits that move with a
last-ulp change in a root and are compared by value instead:

* ``field``: every printed value matches to 9 significant digits, except
  entries below 1e-9 of their column's peak (rounding noise of a
  component that vanishes, such as B_z of the E1 m=0 mode), which must
  stay below that level.  The peak of a field component column is taken
  over all six columns of that field (A, E or B), since a component that
  vanishes identically prints noise only.
* ``verify --format json``: name, tolerance, pass and details match byte
  for byte; max_residual must stay within its tolerance.

To regenerate the files from the library on PYTHONPATH (only when a
change of output is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from sphcavity.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

EXACT = {
    "modes_4_4.csv": ["modes", "--jmax", "4", "--nmax", "4", "--format", "csv"],
    "modes_4_4.json": ["modes", "--jmax", "4", "--nmax", "4", "--format", "json"],
    "modes_20_32.csv": ["modes", "--jmax", "20", "--nmax", "32", "--format", "csv"],
    "modes_si.csv": ["modes", "--si", "--radius-m", "0.01", "--jmax", "2", "--nmax", "2",
                     "--format", "csv"],
    "rotate_vec.csv": ["rotate", "--vec", "1,0,0", "--euler", "0,1.5707963,0",
                       "--format", "csv"],
    "rotate_coeffs.json": ["rotate", "--coeffs", "1,0.5,-0.25j", "--j", "1",
                           "--euler", "0.2,0.3,0.4", "--format", "json"],
    "ratios.csv": ["ratios", "--jmax", "4", "--ka", "1e-3", "--format", "csv"],
    "entangle_catalog.csv": ["entangle", "catalog", "--format", "csv"],
    "entangle_build.json": ["entangle", "build", "--partition", "omega",
                            "--bell", "psi-minus", "--alpha1", "1", "--alpha2", "2",
                            "--gamma1", "E,1,0", "--gamma2", "M,2,1", "--format", "json"],
}
FIELD = {
    "field_E1n1.csv": ["field", "--tau", "E", "--j", "1", "--n", "1",
                       "--nr", "5", "--ndirs", "16", "--format", "csv"],
    "field_M2m1n2.csv": ["field", "--tau", "M", "--j", "2", "--m", "1", "--n", "2",
                         "--nr", "4", "--ndirs", "8", "--format", "csv"],
    "field_si.csv": ["field", "--si", "--radius-m", "0.01", "--tau", "E", "--j", "2",
                     "--m", "1", "--n", "1", "--nr", "3", "--ndirs", "8", "--format", "csv"],
}
VERIFY = {"verify.json": ["verify", "--format", "json"]}
GOLDEN = {**EXACT, **FIELD, **VERIFY}

# entries below this share of their column's peak are noise, not output
FIELD_FLOOR = 1e-9


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact(name):
    assert run(EXACT[name]) == golden(name)


def _csv(text: str):
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("name", sorted(FIELD))
def test_field(name):
    head, rows = _csv(run(FIELD[name]))
    want_head, want_rows = _csv(golden(name))
    assert head == want_head
    assert len(rows) == len(want_rows)
    labels = head.split(",")
    for col, label in enumerate(labels):
        same = [c for c, other in enumerate(labels) if other[0] == label[0]] \
            if label[0] in "AEB" else [col]
        floor = FIELD_FLOOR * max(abs(float(r[c])) for r in want_rows for c in same)
        for k, (got, want) in enumerate(zip(rows, want_rows)):
            if abs(float(want[col])) < floor:
                assert abs(float(got[col])) < floor, (label, k, got[col], want[col])
            else:
                assert got[col] == want[col], (label, k)


def test_verify():
    got, want = json.loads(run(VERIFY["verify.json"])), json.loads(golden("verify.json"))
    fixed = ("name", "tolerance", "pass", "details")
    assert [{k: r[k] for k in fixed} for r in got] == [{k: r[k] for k in fixed} for r in want]
    for row in got:
        assert row["max_residual"] <= row["tolerance"], row["name"]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for file_name, argv in GOLDEN.items():
        (GOLDEN_DIR / file_name).write_text(run(argv))
        print(file_name, file=sys.stderr)
