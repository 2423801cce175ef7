import json
import math

import numpy as np
import pytest

from sphcavity.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModesCommand:
    def test_magnetic_table_contains_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--tau", "M", "--jmax", "4",
                               "--nmax", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("tau,j,n,x_root,omega,degeneracy,norm_const")
        rows = lines[1:]
        assert len(rows) == 16
        x_values = [float(r.split(",")[3]) for r in rows]
        reference = [4.49341, 7.72525, 10.9041, 5.76346, 12.3229, 15.5146,
                     6.98793, 10.4171, 13.698, 8.18256, 11.7049, 15.0397, 18.3013]
        for ref in reference:
            assert min(abs(x - ref) / ref for x in x_values) < 5e-5

    def test_single_electric_mode(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--tau", "E", "--jmax", "1",
                               "--nmax", "1", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1
        assert abs(float(rows[0].split(",")[3]) - 2.74371) / 2.74371 < 5e-5

    def test_byte_stable(self, capsys):
        _, out1, _ = run_cli(capsys, "modes", "--jmax", "2", "--nmax", "2",
                             "--format", "csv")
        _, out2, _ = run_cli(capsys, "modes", "--jmax", "2", "--nmax", "2",
                             "--format", "csv")
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--jmax", "1", "--nmax", "1",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2
        assert payload[0]["tau"] == "E"

    def test_si_flag(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--tau", "E", "--jmax", "1",
                               "--nmax", "1", "--format", "json",
                               "--si", "--radius-m", "0.01")
        payload = json.loads(out)
        expected = 299792458.0 * 2.74371 / 0.01
        assert abs(payload[0]["omega"] - expected) / expected < 1e-4

    def test_tau_solves_only_its_roots(self, capsys, monkeypatch):
        # --tau M solves no electric root and --tau E no magnetic one; each
        # prints the rows of the full table with its tau
        import sphcavity.modes as md
        cache = {}
        monkeypatch.setattr(md, "_ROOT_CACHE", cache)
        argv = ("modes", "--jmax", "20", "--nmax", "32", "--format", "csv")
        _, magnetic, _ = run_cli(capsys, *argv, "--tau", "M")
        assert set(cache) == {("M", j) for j in range(1, 21)}
        cache.clear()
        _, electric, _ = run_cli(capsys, *argv, "--tau", "E")
        assert set(cache) == {("E", j) for j in range(1, 21)}
        cache.clear()
        header, *rows = run_cli(capsys, *argv)[1].splitlines()
        for tau, out in (("M", magnetic), ("E", electric)):
            assert out.splitlines() == [header] + [r for r in rows if r.startswith(tau + ",")]


class TestFieldCommand:
    def test_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--tau", "M", "--j", "1",
                               "--n", "1", "--nr", "3", "--ndirs", "4",
                               "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 12

    def test_magnetic_wall_row_vanishes(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--tau", "M", "--j", "1",
                               "--n", "1", "--nr", "2", "--ndirs", "6",
                               "--format", "json")
        payload = json.loads(out)
        wall = [row for row in payload if abs(row["r"] - 1.0) < 1e-12]
        for row in wall:
            a_mag = math.hypot(row["Ax_re"], row["Ax_im"]) \
                + math.hypot(row["Ay_re"], row["Ay_im"]) \
                + math.hypot(row["Az_re"], row["Az_im"])
            assert a_mag < 1e-8

    def test_electric_center_finite(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--tau", "E", "--j", "1",
                               "--n", "1", "--nr", "2", "--ndirs", "2",
                               "--format", "json")
        payload = json.loads(out)
        center = [row for row in payload if row["r"] == 0.0]
        assert center
        assert all(np.isfinite(v) for row in center for v in row.values())

    def test_one_call_prints_per_radius_loop_bytes(self, capsys):
        # the command evaluates every radius in one mode_field call; the
        # per-radius loop it replaced, rebuilt here, must print the same bytes
        from sphcavity import modes as md
        from sphcavity.cli import _emit_table

        spec = md.mode_spec("E", 20, 5, 32)
        th, ph = md.fibonacci_directions(33)
        rows = []
        for r in np.linspace(0.0, md.CavityConfig().radius, 9):
            sample = md.mode_field(spec, np.full_like(th, r), th, ph)
            for k in range(th.size):
                row = {"r": float(r), "theta": float(th[k]), "phi": float(ph[k])}
                for name, arr in (("A", sample.A), ("E", sample.E), ("B", sample.B)):
                    for ci, comp in enumerate("xyz"):
                        row[f"{name}{comp}_re"] = float(arr[ci, k].real)
                        row[f"{name}{comp}_im"] = float(arr[ci, k].imag)
                rows.append(row)
        for fmt in ("csv", "json"):
            _emit_table(rows, fmt)
            expected = capsys.readouterr().out
            code, out, _ = run_cli(capsys, "field", "--tau", "E", "--j", "20", "--m", "5",
                                   "--n", "32", "--nr", "9", "--ndirs", "33", "--format", fmt)
            assert code == 0
            assert out == expected

    def test_invalid_mode_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "field", "--tau", "E", "--j", "1",
                               "--m", "5", "--n", "1")
        assert code == 2
        assert "m must be in [-1, 1] and an integer, got 5" in err


class TestVerifyCommand:
    def test_subset_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "dmatrix",
                               "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert {r.split(",")[0] for r in rows} == {"dmatrix_golden", "dmatrix_unitarity"}
        assert all(r.split(",")[3] == "true" for r in rows)

    def test_impossible_tolerance_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--only", "dmatrix_golden",
                                 "--tol", "dmatrix_golden=1e-30", "--format", "csv")
        assert code == 1
        assert "dmatrix_golden" in err

    def test_unknown_check_name_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--tol", "bogus=1")
        assert code == 2
        assert "bogus" in err

    def test_full_suite_green(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(row["pass"] for row in payload)


class TestEntangleCommand:
    def test_catalog_lists_forty(self, capsys):
        code, out, _ = run_cli(capsys, "entangle", "catalog", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 40
        assert len({r.split(",")[0] for r in rows}) == 40

    def test_build_normalized_state(self, capsys):
        code, out, _ = run_cli(capsys, "entangle", "build",
                               "--partition", "omega", "--bell", "psi-minus",
                               "--alpha1", "1", "--alpha2", "2",
                               "--gamma1", "E,1,0", "--gamma2", "M,2,1",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        total = sum((2.0 if row["label1"] != row["label2"] else 1.0)
                    * (row["re"] ** 2 + row["im"] ** 2)
                    for row in payload["amplitudes"])
        assert abs(total - 1.0) < 1e-9

    def test_degenerate_build_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "entangle", "build",
                               "--partition", "omega", "--bell", "psi-minus",
                               "--alpha1", "1", "--alpha2", "2",
                               "--gamma1", "E,1,0", "--gamma2", "E,1,0")
        assert code == 1
        assert "zero" in err

    def test_missing_arguments_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "entangle", "build", "--partition", "omega")
        assert code == 2
        assert "--bell" in err


class TestRotateCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "rotate", "--vec", "1,0,0",
                               "--euler", "0,1.5707963267948966,0",
                               "--format", "json")
        assert code == 0
        payload = {row["component"]: complex(row["re"], row["im"])
                   for row in json.loads(out)}
        assert abs(payload["x"]) < 1e-9
        assert abs(payload["y"]) < 1e-9
        assert abs(payload["z"] - 1.0) < 1e-9

    def test_zero_angles_identity(self, capsys):
        code, out, _ = run_cli(capsys, "rotate", "--vec", "0.3,-0.4,0.5",
                               "--euler", "0,0,0", "--format", "json")
        payload = {row["component"]: row["re"] for row in json.loads(out)}
        assert payload["x"] == 0.3 and payload["y"] == -0.4 and payload["z"] == 0.5

    def test_norm_preserved(self, capsys, rng):
        v = rng.normal(size=3)
        code, out, _ = run_cli(capsys, "rotate",
                               "--vec", ",".join(str(float(x)) for x in v),
                               "--euler", "0.7,1.1,2.2", "--format", "json")
        payload = json.loads(out)
        norm = math.sqrt(sum(row["re"] ** 2 + row["im"] ** 2
                             for row in payload if not row["component"].startswith("sph")))
        assert abs(norm - np.linalg.norm(v)) < 1e-7  # 9-digit rounding

    def test_coefficient_rotation(self, capsys):
        code, out, _ = run_cli(capsys, "rotate", "--coeffs", "1,0,0", "--j", "1",
                               "--euler", "0.2,0.3,0.4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        norm = math.sqrt(sum(row["re"] ** 2 + row["im"] ** 2 for row in payload))
        assert abs(norm - 1.0) < 1e-8  # 9-significant-digit output

    def test_malformed_vector_exits_2(self, capsys):
        # rotate_cartesian names the shape it rejects
        code, _, err = run_cli(capsys, "rotate", "--vec", "1,2",
                               "--euler", "0,0,0")
        assert code == 2
        assert "(2,)" in err


class TestRatiosCommand:
    def test_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "ratios", "--jmax", "1", "--ka", "1e-3",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload[0]["M_over_E"] - 1.6667e-7) / 1.6667e-7 < 1e-4

    def test_doubling_ka_quadruples(self, capsys):
        _, out1, _ = run_cli(capsys, "ratios", "--jmax", "3", "--ka", "1e-3",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "ratios", "--jmax", "3", "--ka", "2e-3",
                             "--format", "json")
        p1, p2 = json.loads(out1), json.loads(out2)
        for r1, r2 in zip(p1, p2):
            for kind in ("M_over_E", "E_step", "M_step"):
                assert abs(r2[kind] / r1[kind] - 4.0) < 1e-7  # 9-digit rounding

    def test_monotonic_columns(self, capsys):
        _, out, _ = run_cli(capsys, "ratios", "--jmax", "6", "--ka", "1e-3",
                            "--format", "json")
        payload = json.loads(out)
        js = [row["j"] for row in payload]
        assert js == sorted(js)
        for kind in ("M_over_E", "E_step", "M_step"):
            vals = [row[kind] for row in payload]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_nonpositive_ka_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "ratios", "--ka", "-1")
        assert code == 2
        assert "ka" in err


class TestFormatHandling:
    def test_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHCAVITY_FORMAT", "csv")
        code, out, _ = run_cli(capsys, "ratios", "--jmax", "1", "--ka", "1e-3")
        assert code == 0
        assert out.splitlines()[0].startswith("j,")

    def test_pretty_is_default(self, capsys, monkeypatch):
        monkeypatch.delenv("SPHCAVITY_FORMAT", raising=False)
        code, out, _ = run_cli(capsys, "ratios", "--jmax", "1", "--ka", "1e-3")
        assert code == 0
        assert not out.splitlines()[0].startswith("j,")  # aligned header

    def test_nine_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "modes", "--tau", "E", "--jmax", "1",
                            "--nmax", "1", "--format", "csv")
        x_field = out.strip().splitlines()[1].split(",")[3]
        assert x_field == "2.74370727"


_BUILD = ("entangle", "build", "--bell", "psi-minus", "--alpha1", "1", "--alpha2", "2")

# (argv, exit code, a piece of stderr that names the input at fault); the
# cases the command classes above already test are not repeated here
EXIT_CODES = [
    (("modes", "--jmax", "0"), 2, "j_max"),
    (("modes", "--jmax", "21"), 2, "j_max"),
    (("modes", "--nmax", "0"), 2, "n_max"),
    (("modes", "--radius-m", "0", "--jmax", "1", "--nmax", "1"), 2, "radius"),
    (("field", "--tau", "E", "--j", "1", "--nr", "0"), 2, "--nr"),
    (("verify", "--tol", "x"), 2, "'x'"),
    (("verify", "--tol", "dmatrix_golden=abc"), 2, "abc"),
    (("verify", "--only", "dmatrix_golden", "--tol", "dmatrix_golden=0"), 2, "0.0"),
    (("verify", "--only", "dmatrix_golden", "--tol", "dmatrix_golden=-1"), 2, "-1.0"),
    (("verify", "--only", "dmatrix_golden", "--tol", "dmatrix_golden=nan"), 2, "nan"),
    (("verify", "--only", "dmatrix_golden", "--tol", "dmatrix_golden=inf"), 2, "inf"),
    (("verify", "--only", "zzz"), 2, "zzz"),
    (_BUILD + ("--partition", "nope", "--gamma1", "E,1,0", "--gamma2", "M,2,1"), 2, "nope"),
    (("rotate", "--vec", "1,0,0", "--euler", "1,2"), 2, "--euler"),
    (("rotate", "--vec", "1,0", "--euler", "0,0,0"), 2, "(2,)"),
    (("rotate", "--euler", "0,0,0"), 2, "--vec"),
    (("rotate", "--coeffs", "1,0,0", "--euler", "0,0,0"), 2, "--j"),
    # j is checked before the coefficient count, so the range is named
    (("rotate", "--coeffs", "1,2,3", "--j", "21", "--euler", "0,0,0"), 2,
     "[0, 20] and an integer, got 21"),
    (("rotate", "--coeffs", "1,2,3", "--j", "-1", "--euler", "0,0,0"), 2,
     "[0, 20] and an integer, got -1"),
    (("ratios", "--ka", "1e-3", "--jmax", "0"), 2, "jmax"),
    (("ratios", "--ka", "nan"), 2, "ka must be a finite number > 0, got nan"),
    (("ratios", "--ka", "inf"), 2, "ka must be a finite number > 0, got inf"),
]


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_non_finite_radius_exits_2(capsys, radius):
    code, _, err = run_cli(capsys, "modes", "--radius-m", radius, "--jmax", "1", "--nmax", "1")
    assert code == 2
    assert "radius must be finite and strictly positive" in err


@pytest.mark.parametrize("argv,code,named", EXIT_CODES, ids=[" ".join(r[0]) for r in EXIT_CODES])
def test_exit_code_table(capsys, argv, code, named):
    got, out, err = run_cli(capsys, *argv)
    assert (got, named in err) == (code, True), err
    if code == 2:
        assert out == ""


def test_root_finding_error_exits_1(capsys, monkeypatch):
    import sphcavity.modes as md

    def fail(*args, **kwargs):
        raise md.RootFindingError("failed to bracket root 3 below x = 1e4")
    monkeypatch.setattr(md, "mode_spec", fail)
    code, out, err = run_cli(capsys, "field", "--tau", "M", "--j", "2")
    assert (code, out) == (1, "")
    assert "failed to bracket root 3" in err


@pytest.mark.parametrize("argv", [("ratios", "--ka", "1e-3"), _BUILD + (
    "--partition", "omega", "--gamma1", "E,1,0", "--gamma2", "M,2,1")])
def test_invalid_format_variable_exits_2(capsys, monkeypatch, argv):
    # argparse does not check a default against the choices
    monkeypatch.setenv("SPHCAVITY_FORMAT", "xml")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "SPHCAVITY_FORMAT" in err and "xml" in err
