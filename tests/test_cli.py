import csv
import json
import math
import os

import numpy as np
import pytest

from medianforge import cli, errors, solvers
from medianforge.cli import main
from medianforge.reportio import fmt_float, read_profile_csv


def write_csv(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture
def triangle_csv(tmp_path):
    return write_csv(
        tmp_path / "triangle.csv",
        "1,0\n-0.5,0.86602540378443860\n-0.5,-0.86602540378443860\n",
    )


DIAG5 = {"kind": "diagonal-gaussian", "dim": 5, "sigmas": [1, 1, 1, 1, 4]}
THEOREM1 = {"experiment": "theorem1", "X": 20, "V_grid": [200]}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAggregate:
    def test_gm_triangle(self, triangle_csv, capsys):
        code, out, _ = run_cli(
            ["aggregate", "--input", triangle_csv, "--method", "gm"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        point = np.array(doc["results"]["point"])
        assert np.linalg.norm(point) <= 1e-8
        assert doc["certificates"]["grad_norm"] <= 1e-10
        assert doc["results"]["hull_member"] is True

    def test_cw_simplex(self, tmp_path, capsys):
        path = write_csv(tmp_path / "simplex.csv", "x,y,z\n1,0,0\n0,1,0\n0,0,1\n")
        code, out, _ = run_cli(["aggregate", "--input", path, "--method", "cw"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["point"] == [0.0, 0.0, 0.0]
        assert doc["results"]["hull_member"] is False

    @pytest.mark.parametrize("seed,method", [(0, "cw"), (6, "cw"), (7, "gm")])
    def test_far_offset_median_is_a_hull_member(self, tmp_path, capsys, seed, method):
        # the median lies inside the hull; its computed distance is about
        # 1e-16 of the coordinates, far above an absolute 1e-9
        x = np.random.default_rng(seed).standard_normal((40, 3)) * 1e9 + 5e9
        path = str(tmp_path / "far.csv")
        np.savetxt(path, x, delimiter=",", fmt="%.17g")
        code, out, _ = run_cli(["aggregate", "--input", path, "--method", method], capsys)
        assert code == 0
        assert json.loads(out)["results"]["hull_member"] is True

    def test_empty_file_exit_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "empty.csv", "")
        code, out, err = run_cli(["aggregate", "--input", path, "--method", "gm"], capsys)
        assert code == 2
        assert out == ""
        assert "empty" in err

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"\xff\xfe1,2\n")
        code, out, err = run_cli(["aggregate", "--input", str(path), "--method", "gm"],
                                 capsys)
        assert (code, out) == (2, "")
        assert "cannot read file" in err and err.count("\n") == 1

    def test_bad_cell_has_line_number(self, tmp_path, capsys):
        path = write_csv(tmp_path / "bad.csv", "1,2\n3,oops\n")
        code, _, err = run_cli(["aggregate", "--input", path, "--method", "gm"], capsys)
        assert code == 2
        assert ":2:" in err

    def test_cell_over_the_csv_field_limit_exit_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "big.csv", "1" * 131073 + "\n")
        code, out, err = run_cli(["aggregate", "--input", path, "--method", "gm"], capsys)
        assert (code, out, err) == (
            2, "", f"error: {path}:1: field larger than field limit (131072)\n")

    def test_infinite_cell_exit_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "inf.csv", "1,2\n3,inf\n")
        code, out, err = run_cli(["aggregate", "--input", path, "--method", "gm"], capsys)
        assert (code, out, err) == (2, "", f"error: {path}:2: cell 'inf' is not finite\n")

    def test_ragged_rows_exit_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "ragged.csv", "1,2\n3\n")
        code, _, err = run_cli(["aggregate", "--input", path, "--method", "avg"], capsys)
        assert code == 2
        assert ":2:" in err

    def test_skewed_gm_needs_matrix(self, triangle_csv, capsys):
        code, _, err = run_cli(
            ["aggregate", "--input", triangle_csv, "--method", "skewed-gm"], capsys
        )
        assert code == 2
        assert "skew-matrix" in err

    def test_skewed_gm(self, triangle_csv, tmp_path, capsys):
        mat = write_csv(tmp_path / "sigma.csv",
                        f"1,0\n0,{2.0 / math.sqrt(3.0):.17g}\n")
        code, out, _ = run_cli(
            ["aggregate", "--input", triangle_csv, "--method", "skewed-gm",
             "--skew-matrix", mat],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["point"][0] > 1e-3

    def test_skew_matrix_dimension_mismatch_exit_2(self, triangle_csv, tmp_path, capsys):
        mat = write_csv(tmp_path / "sigma3.csv", "1,0,0\n0,1,0\n0,0,1\n")
        code, out, err = run_cli(
            ["aggregate", "--input", triangle_csv, "--method", "skewed-gm",
             "--skew-matrix", mat],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: {mat}: skew matrix has shape (3, 3), "
                                           "dim is 2\n")

    def test_nonpositive_tol_exit_2(self, triangle_csv, capsys):
        for tol in ("-1", "0"):
            code, out, err = run_cli(
                ["aggregate", "--input", triangle_csv, "--method", "gm", "--tol", tol],
                capsys,
            )
            assert (code, out) == (2, "")
            assert err.startswith("error: --tol") and err.count("\n") == 1

    def test_skewed_tol_that_underflows_exit_2(self, triangle_csv, tmp_path, capsys):
        mat = write_csv(tmp_path / "sigma.csv", "2e4,0\n0,1\n")
        code, out, err = run_cli(
            ["aggregate", "--input", triangle_csv, "--method", "skewed-gm",
             "--skew-matrix", mat, "--tol", "1e-320"],
            capsys,
        )
        assert (code, out, err) == (2, "", "error: tol_grad must be positive\n")

    def test_weights_mismatch_exit_2(self, triangle_csv, tmp_path, capsys):
        wpath = write_csv(tmp_path / "w.csv", "1\n2\n")
        code, _, err = run_cli(
            ["aggregate", "--input", triangle_csv, "--method", "gm",
             "--weights", wpath],
            capsys,
        )
        assert code == 2

    def test_weighted_average(self, tmp_path, capsys):
        prof = write_csv(tmp_path / "p.csv", "0,0\n1,0\n")
        wpath = write_csv(tmp_path / "w.csv", "1\n3\n")
        code, out, _ = run_cli(
            ["aggregate", "--input", prof, "--method", "avg", "--weights", wpath],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"]["point"] == [0.75, 0.0]

    def test_output_file_and_stdout_silence(self, triangle_csv, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        code, out, _ = run_cli(
            ["aggregate", "--input", triangle_csv, "--method", "gm",
             "--output", out_path],
            capsys,
        )
        assert code == 0
        assert out == ""
        doc = json.load(open(out_path))
        assert doc["provenance"]["tool"] == "medianforge"

    def test_inputs_echo_the_arguments(self, triangle_csv, capsys):
        code, out, _ = run_cli(
            ["aggregate", "--input", triangle_csv, "--method", "gm", "--output", "",
             "--deterministic"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["inputs"] == {
            "input": triangle_csv, "method": "gm", "skew_matrix": None,
            "weights": None, "tol": 1e-10,
        }

    def test_degenerate_flagged(self, triangle_csv, tmp_path, capsys):
        line = write_csv(tmp_path / "line.csv", "0,0\n1,1\n2,2\n3,3\n")
        skew = write_csv(tmp_path / "skew.csv", "2,0\n0,1\n")
        for method in ("gm", "skewed-gm", "cw", "avg"):
            for path, flat in ((line, True), (triangle_csv, False)):
                code, out, _ = run_cli(["aggregate", "--input", path, "--method", method,
                                        "--skew-matrix", skew], capsys)
                assert code == 0
                assert json.loads(out)["results"]["degenerate_dimension"] is flat

    def test_weights_whose_sum_overflows_are_thirds(self, triangle_csv, tmp_path, capsys):
        wpath = write_csv(tmp_path / "w.csv", "1e308\n1e308\n1e308\n")
        reports = []
        for weights in (["--weights", wpath], []):
            code, out, _ = run_cli(
                ["aggregate", "--input", triangle_csv, "--method", "gm", *weights], capsys)
            assert code == 0
            reports.append(json.loads(out))
        # equal thirds: the same point, loss and certificates as the unweighted run
        assert reports[0]["results"] == reports[1]["results"]
        assert reports[0]["certificates"] == reports[1]["certificates"]

    def test_weight_lost_to_normalizing_exit_2(self, triangle_csv, tmp_path, capsys):
        wpath = write_csv(tmp_path / "w.csv", "5e-324\n1\n1\n")
        code, out, err = run_cli(
            ["aggregate", "--input", triangle_csv, "--method", "gm", "--weights", wpath],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {wpath}: weight 5e-324 of voter 0 ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text,message", [
        ("w\n", ":2: no data rows after the header"),
        ("1\n-1\n1\n", ": weight -1.0 of voter 1 is not strictly positive and finite"),
        ("1,1\n1,1\n1,1\n", ": expected 3 rows of one weight, found 3 rows of 2"),
        ("1\n1\n", ": expected 3 rows of one weight, found 2 rows of 1"),
    ])
    def test_bad_weights_name_the_weights_file(self, triangle_csv, tmp_path, capsys,
                                                text, message):
        wpath = write_csv(tmp_path / "w.csv", text)
        code, out, err = run_cli(
            ["aggregate", "--input", triangle_csv, "--method", "gm", "--weights", wpath],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: {wpath}{message}\n")

    def test_bad_coordinate_with_weights_names_the_profile(self, tmp_path, capsys):
        path = write_csv(tmp_path / "far.csv", "0,0\n1e308,0\n0,1\n")
        wpath = write_csv(tmp_path / "w.csv", "1\n2\n3\n")
        code, out, err = run_cli(
            ["aggregate", "--input", path, "--method", "gm", "--weights", wpath], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: coordinate 1e+308 is too large: " \
                      f"squared distances overflow\n"

    # hull-edge: the cw median (0, 0, 0) lies 1/sqrt(3) from the face e1 e2 e3, and
    # the far voter puts the hull tolerance 1e-9 * X within an ulp of that distance,
    # so a distance computed over the voters in input order reads true in one of
    # these orders and false in the other
    @pytest.mark.parametrize("case", ["gaussian", "hull-edge"])
    @pytest.mark.parametrize("method", ["gm", "skewed-gm", "cw", "avg"])
    def test_report_depends_only_on_the_voter_weight_pairs(self, tmp_path, capsys,
                                                           method, case):
        rng = np.random.default_rng(5)
        if case == "gaussian":
            x, w = rng.standard_normal((30, 3)), rng.uniform(0.5, 2.0, size=(30, 1))
            orders = np.arange(30), rng.permutation(30)
        else:
            x = np.vstack([np.eye(3), [577350269.1896261, 0.0, 0.0]])
            w = np.array([[1.0], [2.0], [2.0], [1.0]])
            orders = [1, 0, 2, 3], [0, 1, 2, 3]
        skew = write_csv(tmp_path / "skew.csv", "2,0.5,0\n0.5,1,0.2\n0,0.2,0.5\n")
        reports = []
        for name, order in zip("ab", orders):
            path, wpath = str(tmp_path / f"{name}.csv"), str(tmp_path / f"w{name}.csv")
            np.savetxt(path, x[order], delimiter=",", fmt="%.17g")
            np.savetxt(wpath, w[order], delimiter=",", fmt="%.17g")
            code, out, _ = run_cli(["aggregate", "--input", path, "--weights", wpath,
                                    "--method", method, "--skew-matrix", skew], capsys)
            assert code == 0
            reports.append(json.loads(out))
        for key in ("results", "certificates"):
            assert reports[0][key] == reports[1][key]

    def test_solver_failure_exit_3(self, triangle_csv, capsys, monkeypatch):
        monkeypatch.setattr(solvers, "MAX_ITERATIONS", 0)
        code, out, err = run_cli(
            ["aggregate", "--input", triangle_csv, "--method", "gm"], capsys
        )
        assert (code, out) == (3, "")
        assert err.startswith("solver failure: ") and err.count("\n") == 1


    @pytest.mark.parametrize("c", ["5e153", "9e153"])
    def test_cluster_at_infinite_distance_exit_3(self, tmp_path, capsys, c):
        # The profile passes the overflow rule, but from the start (-c,-c)
        # the far voters lie at an infinite distance.
        path = write_csv(tmp_path / "cluster.csv",
                         f"-{c},-{c}\n-{c},-{c}\n-{c},{c}\n{c},-{c}\n{c},{c}\n{c},{c}\n")
        code, out, err = run_cli(["aggregate", "--input", path, "--method", "gm"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("solver failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("e", [155, 200])
def test_coordinates_whose_squares_overflow_exit_2(e, tmp_path, capsys):
    path = write_csv(tmp_path / "far.csv", f"0,0\n1e{e},0\n0,1e{e}\n")
    for argv in (["aggregate", "--method", "gm"], ["best-response", "--theta0", "0,0"]):
        code, out, err = run_cli([*argv, "--input", path], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: coordinate 1e+{e} is too large: " \
                      f"squared distances overflow\n"


def test_coordinates_whose_squares_underflow_exit_2(tmp_path, capsys):
    path = write_csv(tmp_path / "tiny.csv", "0,0\n1e-162,0\n0,1e-162\n")
    code, out, err = run_cli(["aggregate", "--method", "gm", "--input", path], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: coordinates span only 1e-162: " \
                  f"squared distances underflow\n"


class TestSkewnessCommand:
    def test_identity(self, tmp_path, capsys):
        mat = write_csv(tmp_path / "i.csv", "1,0\n0,1\n")
        code, out, _ = run_cli(["skewness", "--matrix", mat], capsys)
        assert code == 0
        assert json.loads(out)["results"]["value"] == 0.0

    def test_diag_1_4(self, tmp_path, capsys):
        mat = write_csv(tmp_path / "m.csv", "1,0\n0,4\n")
        code, out, _ = run_cli(["skewness", "--matrix", mat, "--numeric-check"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["value"] == pytest.approx(0.25, abs=1e-12)
        assert doc["results"]["numeric_gap"] <= 1e-7

    def test_non_symmetric_exit_2(self, tmp_path, capsys):
        mat = write_csv(tmp_path / "m.csv", "1,2\n0,1\n")
        code, _, err = run_cli(["skewness", "--matrix", mat], capsys)
        assert code == 2
        assert "symmetric" in err

    def test_zero_matrix_exit_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "zero.csv", "0,0\n0,0\n")
        code, out, err = run_cli(["skewness", "--matrix", path], capsys)
        assert (code, out, err) == (2, "", f"error: {path}: matrix is zero\n")

    def test_non_square_names_its_file(self, tmp_path, capsys):
        mat = write_csv(tmp_path / "m23.csv", "1,0,0\n0,1,0\n")
        code, out, err = run_cli(["skewness", "--matrix", mat], capsys)
        assert (code, out, err) == (2, "", f"error: {mat}: expected a square matrix, "
                                           "got shape (2, 3)\n")


class TestBestResponseCommand:
    def test_center_gains_nothing(self, tmp_path, capsys):
        prof = write_csv(tmp_path / "p.csv",
                         "1,0\n-1,0\n0,2\n0,-2\n3,1\n-3,-1\n")
        code, out, _ = run_cli(
            ["best-response", "--input", prof, "--theta0", "0,0", "--seed", "1"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["gain_alpha"] == pytest.approx(0.0, abs=1e-9)
        assert doc["results"]["exact_capture"] is True
        assert doc["results"]["gain_is_lower_bound"] is True

    def test_preset_thm1(self, capsys):
        code, out, _ = run_cli(
            ["best-response", "--preset", "thm1", "--X", "20", "--V", "200",
             "--seed", "0"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        res = doc["results"]
        assert res["gain_alpha"] >= (20.0**2 - 8 * 20.0 + 1) / (8 * 20.0)
        assert res["preset"]["analytic_truthful_dist"] == pytest.approx(
            200.0**-1.5, rel=1e-9
        )

    def test_theta0_dimension_mismatch(self, tmp_path, capsys):
        prof = write_csv(tmp_path / "p.csv", "1,0\n0,1\n-1,-1\n")
        code, _, err = run_cli(
            ["best-response", "--input", prof, "--theta0", "1,2,3"], capsys
        )
        assert code == 2

    def test_theta0_file(self, triangle_csv, tmp_path, capsys):
        one = write_csv(tmp_path / "one.csv", "0.5,0.5\n")
        code, out, _ = run_cli(
            ["best-response", "--input", triangle_csv, "--theta0", one, "--restarts", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["results"]["theta0"] == [0.5, 0.5]
        two = write_csv(tmp_path / "two.csv", "0.5,0.5\n0,0\n")
        for theta0 in (two, "a,b"):
            code, out, err = run_cli(
                ["best-response", "--input", triangle_csv, "--theta0", theta0], capsys
            )
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("theta0", ["nan,0", "inf,0"])
    def test_non_finite_theta0_exit_2(self, triangle_csv, theta0, capsys):
        code, out, err = run_cli(
            ["best-response", "--input", triangle_csv, "--theta0", theta0], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --theta0: theta0") and err.count("\n") == 1

    @pytest.mark.parametrize("in_file", [False, True], ids=["inline", "file"])
    def test_wrong_size_theta0_names_its_source(self, triangle_csv, tmp_path, capsys,
                                                in_file):
        theta0 = write_csv(tmp_path / "th3.csv", "1,2,3\n") if in_file else "1,2,3"
        code, out, err = run_cli(
            ["best-response", "--input", triangle_csv, "--theta0", theta0], capsys
        )
        source = theta0 if in_file else "--theta0"
        assert (code, out, err) == (2, "", f"error: {source}: theta0 has shape (3,), dim is 2\n")

    def test_theta0_whose_distance_overflows_exit_2(self, triangle_csv, capsys):
        code, out, err = run_cli(
            ["best-response", "--input", triangle_csv, "--theta0", "1e160,1e160"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: theta0 [1e+160, 1e+160]") and err.count("\n") == 1

    def test_preset_without_v_exit_2(self, capsys):
        code, out, err = run_cli(["best-response", "--preset", "thm1", "--X", "20"], capsys)
        assert (code, out, err) == (2, "", "error: --preset thm1 requires --X and --V\n")

    def test_input_without_theta0_exit_2(self, triangle_csv, capsys):
        code, out, err = run_cli(["best-response", "--input", triangle_csv], capsys)
        assert (code, out, err) == (
            2, "", "error: best-response requires --input and --theta0 (or --preset)\n")

    def test_preset_small_x_exit_2(self, capsys):
        code, out, err = run_cli(
            ["best-response", "--preset", "thm1", "--X", "5", "--V", "10"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_preset_non_finite_x_exit_2(self, x, capsys):
        code, out, err = run_cli(
            ["best-response", "--preset", "thm1", "--X", x, "--V", "10"], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: --preset thm1: the construction needs a finite corner " \
                      f"abscissa X >= 8, got {x}\n"

    def test_collinear_input_names_the_file(self, tmp_path, capsys):
        prof = write_csv(tmp_path / "p.csv", "0,0,0\n1,1,1\n2,2,2\n")
        code, out, err = run_cli(["best-response", "--input", prof, "--theta0", "1,1,1"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {prof}: best response needs an honest profile of dimension >= 2\n"

    def test_zero_restarts_exit_2(self, triangle_csv, capsys):
        code, out, err = run_cli(
            ["best-response", "--input", triangle_csv, "--theta0", "2,2",
             "--restarts", "0"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --restarts") and err.count("\n") == 1

    def test_pref_matrix_dimension_mismatch_exit_2(self, triangle_csv, tmp_path, capsys):
        mat = write_csv(tmp_path / "pref1.csv", "1\n")
        code, out, err = run_cli(
            ["best-response", "--input", triangle_csv, "--theta0", "2,2",
             "--pref-matrix", mat],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: {mat}: preference matrix has shape "
                                           "(1, 1), dim is 2\n")

    def test_preset_overflowing_x_exit_2(self, capsys):
        code, out, err = run_cli(
            ["best-response", "--preset", "thm1", "--X", "1e200", "--V", "10"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("x,reason", [("1e25", "theta0 rounds onto g_V"),
                                          ("1e40", "non-finite entries"),
                                          ("1e10", "the corners read as collinear"),
                                          ("1e15", "theta0 rounds onto g_V"),
                                          ("1e20", "theta0 rounds onto g_V")])
    def test_preset_x_lost_to_rounding_exit_2(self, x, reason, capsys):
        code, out, err = run_cli(
            ["best-response", "--preset", "thm1", "--X", x, "--V", "50"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"X={float(x)!r} is too large" in err and reason in err

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        prof = write_csv(tmp_path / "p.csv", "1,0\n-1,0\n0,2\n0,-2\n0.5,0.5\n")
        monkeypatch.setenv("MEDIANFORGE_SEED", "77")
        code, out, _ = run_cli(
            ["best-response", "--input", prof, "--theta0", "0.05,0.1"], capsys
        )
        assert code == 0
        assert json.loads(out)["inputs"]["seed"] == 77


    def test_bad_seed_env_exit_2(self, triangle_csv, capsys, monkeypatch):
        for env in ("abc", "-1"):
            monkeypatch.setenv("MEDIANFORGE_SEED", env)
            code, out, err = run_cli(
                ["best-response", "--input", triangle_csv, "--theta0", "2,2"], capsys
            )
            assert (code, out) == (2, "")
            assert err.startswith("error: MEDIANFORGE_SEED") and err.count("\n") == 1

    def test_negative_seed_exit_2(self, triangle_csv, capsys):
        code, out, err = run_cli(
            ["best-response", "--input", triangle_csv, "--theta0", "2,2", "--seed", "-1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: --seed must be a nonnegative integer, got -1\n"


class TestSimulateCommand:
    def test_bad_experiment_exit_2(self, tmp_path, capsys):
        cfg = write_csv(tmp_path / "c.json", json.dumps({"experiment": "nope"}))
        code, _, err = run_cli(
            ["simulate", "--config", cfg, "--output", str(tmp_path / "o")], capsys
        )
        assert code == 2

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        cfg = write_csv(tmp_path / "c.json", "{not json")
        code, _, err = run_cli(
            ["simulate", "--config", cfg, "--output", str(tmp_path / "o")], capsys
        )
        assert code == 2

    def test_config_nested_too_deeply_exit_2(self, tmp_path, capsys):
        # past the JSON decoder's recursion limit; 900 deep is a list, not a config
        cfg = write_csv(tmp_path / "c.json", "[" * 1100 + "]" * 1100)
        out_dir = tmp_path / "o"
        code, out, err = run_cli(["simulate", "--config", cfg, "--output", str(out_dir)],
                                 capsys)
        assert (code, out, err) == (2, "", f"error: {cfg}: invalid JSON: nested too deeply\n")
        assert not out_dir.exists()

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(
            ["simulate", "--config", str(cfg), "--output", str(tmp_path / "o")], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_keys_exit_2(self, tmp_path, capsys):
        cfg = write_csv(tmp_path / "c.json", json.dumps({"experiment": "theorem1"}))
        code, _, err = run_cli(
            ["simulate", "--config", cfg, "--output", str(tmp_path / "o")], capsys
        )
        assert code == 2

    # each case with a word its error line must contain
    @pytest.mark.parametrize("cfg,names", [
        ({"experiment": "byzantine", "V_T": 5, "V_S": 1, "trials": 0,
          "distribution": {"kind": "isotropic-gaussian", "dim": 3}}, "trials"),
        ({"experiment": "byzantine", "V_T": 5, "V_S": -1, "trials": 3,
          "distribution": {"kind": "isotropic-gaussian", "dim": 3}}, "V_S"),
        ({"experiment": "theorem1", "X": 5, "V_grid": [10]}, "X >= 8"),
        ({"experiment": "theorem1", "X": 20, "V_grid": []}, "V_grid"),
        ([1, 2], "JSON object"),
        ({"experiment": "byzantine", "seed": "abc", "V_T": 5, "V_S": 1, "trials": 1,
          "distribution": {"kind": "isotropic-gaussian", "dim": 3}}, "seed"),
        ({"experiment": "asymptotic", "V_grid": 5, "trials": 1, "distribution": DIAG5},
         "V_grid: "),
        ({"experiment": "theorem1", "X": 20, "V_grid": 5}, "V_grid: "),
        ({"experiment": "byzantine", "V_T": 5, "V_S": 1, "trials": None,
          "distribution": {"kind": "isotropic-gaussian", "dim": 3}}, "trials"),
        ({"experiment": "theorem1", "X": 1e200, "V_grid": [10]}, "too large"),
        ({"experiment": "theorem1", "X": 1e25, "V_grid": [50]},
         "X=1e+25 is too large at V=50: theta0 rounds onto g_V"),
        ({"experiment": "theorem1", "X": 1e40, "V_grid": [50]},
         "X=1e+40 is too large: the instance has non-finite entries"),
        *(({"experiment": "byzantine", "V_T": 3, "V_S": 1, "trials": trials,
            "distribution": {"kind": "isotropic-gaussian", "dim": 3}}, "trials")
          for trials in (2.9, True, "3", math.inf)),
        ({"experiment": "theorem1", "X": 20, "V_grid": [200.5]},
         "V_grid: expected an integer, got 200.5"),
        ({"experiment": "byzantine", "seed": -3, "V_T": 5, "V_S": 1, "trials": 1,
          "distribution": {"kind": "isotropic-gaussian", "dim": 3}},
         "seed must be a nonnegative integer, got -3"),
        *(({"experiment": "theorem1", "X": x, "V_grid": [10]},
           f"finite corner abscissa X >= 8, got {x}") for x in (math.nan, math.inf)),
        ({"experiment": "convergence", "V_grid": [100], "trials": 1,
          "distribution": {"kind": "isotropic-gaussian", "dim": 5}}, "two V_grid entries"),
        ({"experiment": "asymptotic", "V_grid": [200], "trials": 1,
          "distribution": dict(DIAG5, sigmas=5)}, "distribution: sigmas: "),
        ({"experiment": "asymptotic", "V_grid": [200], "trials": 1, "distribution": "x"},
         "distribution: "),
        ({"experiment": "asymptotic", "V_grid": [200], "trials": 1, "distribution": DIAG5,
          "epsilon": "abc"}, "epsilon: "),
        ({"experiment": "theorem1", "X": "abc", "V_grid": [10]}, "X: "),
        *(({"experiment": kind, "V_T": 5, "V_S": 1, "V_grid": [100, 200], "trials": 1,
            "distribution": {"kind": "four-corner", "dim": 2, "X": 8}},
           "unknown distribution kind 'four-corner'")
          for kind in ("byzantine", "asymptotic", "convergence")),
        ({"experiment": "byzantine", "V_T": 0, "V_S": 0, "trials": 1,
          "distribution": {"kind": "isotropic-gaussian", "dim": 3}}, "V_T must be >= 1"),
        *(({"experiment": "theorem1", "X": x, "V_grid": [50]}, f"X={x!r} is too large")
          for x in (1e10, 1e15, 1e20)),
        *(({"experiment": "asymptotic", "V_grid": [200], "trials": 1, "distribution": DIAG5,
            "epsilon": eps}, "epsilon") for eps in (math.nan, -5)),
        ({"experiment": "asymptotic", "V_grid": [200], "trials": 1,
          "distribution": {"kind": "diagonal-gaussian", "dim": 2, "sigmas": [math.inf, 1]}},
         "sigmas"),
        ({"experiment": "byzantine", "V_T": 5, "V_S": 1, "trials": 1,
          "distribution": {"kind": "uniform-ball", "dim": 3, "radius": math.inf}}, "radius"),
        *(({"experiment": "byzantine", "V_T": 5, "V_S": 1, "trials": 1,
            "distribution": {"kind": "uniform-ball", "dim": 3, "radius": radius}},
           f"distribution: radius: expected a number, got {radius!r}")
          for radius in (True, "1.5")),
        ({"experiment": "theorem1", "X": "20", "V_grid": [10]},
         "X: expected a number, got '20'"),
        ({"experiment": "asymptotic", "V_grid": [200], "trials": 1,
          "distribution": dict(DIAG5, sigmas=[True, 1, 1, 1, 4])},
         "distribution: sigmas: expected a number, got True"),
        *(({"experiment": "asymptotic", "V_grid": [200], "trials": 1, "distribution": DIAG5,
            key: True}, f"{key}: expected a number, got True") for key in ("epsilon", "delta")),
    ], ids=["zero-trials", "negative-V_S", "theorem1-small-X", "theorem1-empty-grid",
            "list", "seed-abc", "asymptotic-V_grid-5", "theorem1-V_grid-5",
            "trials-null", "theorem1-overflowing-X", "theorem1-X-1e25", "theorem1-X-1e40",
            "trials-2.9", "trials-true",
            "trials-string", "trials-infinite", "theorem1-V_grid-200.5", "seed--3",
            "theorem1-X-nan", "theorem1-X-inf", "convergence-V_grid-one", "sigmas-5",
            "distribution-string", "epsilon-abc", "theorem1-X-abc", "four-corner",
            "four-corner-asymptotic", "four-corner-convergence", "byzantine-V_T-0",
            "theorem1-X-1e10", "theorem1-X-1e15", "theorem1-X-1e20", "epsilon-nan",
            "epsilon-negative", "sigmas-infinite", "radius-infinite", "radius-true",
            "radius-string", "theorem1-X-string", "sigmas-true", "epsilon-true",
            "delta-true"])
    def test_invalid_config_exit_2(self, cfg, names, tmp_path, capsys):
        path = write_csv(tmp_path / "c.json", json.dumps(cfg))
        code, out, err = run_cli(
            ["simulate", "--config", path, "--output", str(tmp_path / "o")], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert names in err

    @pytest.mark.parametrize("matrices", [
        {"preference_matrix": np.diag([1.0, 1.0, -1.0, 1.0, 1.0]).tolist()},
        {"preference_matrix": np.eye(2).tolist()},
        {"median_skew": np.eye(2).tolist()},
    ], ids=["non-spd-preference", "2x2-preference", "2x2-median-skew"])
    def test_bad_matrix_exit_2_before_any_trial(self, matrices, tmp_path, capsys):
        cfg = {"experiment": "asymptotic", "V_grid": [200], "trials": 1,
               "distribution": DIAG5, **matrices}
        path = write_csv(tmp_path / "c.json", json.dumps(cfg))
        out_dir = tmp_path / "o"
        code, out, err = run_cli(
            ["simulate", "--config", path, "--output", str(out_dir)], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out_dir / "asymptotic_report.json").exists()

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_parallel_below_one_exit_2(self, parallel, tmp_path, capsys):
        path = write_csv(tmp_path / "c.json", json.dumps(THEOREM1))
        out_dir = tmp_path / "o"
        code, out, err = run_cli(["simulate", "--config", path, "--parallel", parallel,
                                  "--output", str(out_dir)], capsys)
        assert (code, out, err) == (2, "", f"error: --parallel must be >= 1, got {parallel}\n")
        assert not out_dir.exists()

    def test_failed_trials_exit_3(self, tmp_path, capsys):
        # two voters in d=5: every trial fails, and the run still writes its report
        cfg = {"experiment": "asymptotic", "seed": 0, "V_grid": [2], "trials": 2,
               "distribution": {"kind": "isotropic-gaussian", "dim": 5}}
        path = write_csv(tmp_path / "c.json", json.dumps(cfg))
        out_dir = tmp_path / "o"
        code, out, err = run_cli(
            ["simulate", "--config", path, "--output", str(out_dir)], capsys
        )
        assert (code, out) == (3, "")
        assert "2/2 trials failed" in err
        doc = json.load(open(out_dir / "asymptotic_report.json"))
        assert doc["results"]["summary"] == {"2": {"completed": 0}}

    def test_convergence_median_on_a_voter_exit_2(self, tmp_path, capsys):
        # at seed 6, the V=4 median of trial 0 lies on a voter (so does V=3 of trial 1)
        cfg = {"experiment": "convergence", "seed": 6, "V_grid": [3, 4], "trials": 3,
               "distribution": {"kind": "isotropic-gaussian", "dim": 5}}
        path = write_csv(tmp_path / "c.json", json.dumps(cfg))
        code, out, err = run_cli(
            ["simulate", "--config", path, "--output", str(tmp_path / "o")], capsys
        )
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: convergence V=4 trial 0: the median lies on a "
                       "voter's point, where the loss Hessian is undefined\n")

    @pytest.mark.parametrize("text,message", [
        (json.dumps({"experiment": "byzantine", "V_T": 3, "V_S": 3, "trials": 1,
                     "distribution": {"kind": "isotropic-gaussian", "dim": 3}}),
         "strategic voters must be a strict minority"),
        (json.dumps({"experiment": "asymptotic", "V_grid": [200], "trials": 1,
                     "distribution": DIAG5, "preference_matrix": np.eye(2).tolist()}),
         "preference matrix has shape (2, 2), dim is 5"),
        ('{"experiment": "asymptotic", "V_grid": [200], "trials": 1, "distribution": '
         + json.dumps(DIAG5) + ', "preference_matrix": '
         + json.dumps(np.eye(5).tolist()).replace("1.0", "1e309", 1) + "}",
         "preference matrix has non-finite entries"),
        (json.dumps({"experiment": "byzantine", "V_T": 5, "V_S": 1, "trials": 0,
                     "distribution": {"kind": "isotropic-gaussian", "dim": 3}}),
         "trials must be >= 1, got 0"),
        ('{"experiment": "theorem1", "X": 1' + "0" * 400 + ', "V_grid": [10]}',
         f"X: {10**400!r} overflows a float"),
        (json.dumps({"experiment": "convergence", "V_grid": [100, 200], "trials": 1,
                     "distribution": {"kind": "isotropic-gaussian", "dim": 3}}),
         "convergence diagnostics need dim >= 5 under a smooth density"),
        # a key the experiment does not read, judged after every value it reads
        (json.dumps({"experiment": "asymptotic", "V_grid": [200], "trials": 1,
                     "distribution": DIAG5, "median_skw": np.eye(5).tolist()}),
         "asymptotic reads no key 'median_skw'"),
        (json.dumps({"experiment": "byzantine", "V_T": 5, "V_S": 1, "trials": 1,
                     "V_grid": [100], "epsilon": 0.1,
                     "distribution": {"kind": "isotropic-gaussian", "dim": 3}}),
         "byzantine reads no key 'V_grid', 'epsilon'"),
        (json.dumps(dict(THEOREM1, seed=3)), "theorem1 reads no key 'seed'"),
        # epsilon and delta are asymptotic keys; no convergence diagnostic reads them
        (json.dumps({"experiment": "convergence", "V_grid": [100, 200], "trials": 1,
                     "epsilon": 123.0, "delta": 0.9,
                     "distribution": {"kind": "isotropic-gaussian", "dim": 5}}),
         "convergence reads no key 'delta', 'epsilon'"),
        (json.dumps({"experiment": "byzantine", "V_T": 5, "V_S": 1, "trials": 1,
                     "distribution": {"kind": "isotropic-gaussian", "dim": 3,
                                      "radius": -4}}),
         "distribution: isotropic-gaussian takes no radius; only uniform-ball does"),
        (json.dumps({"experiment": "byzantine", "V_T": 5, "V_S": 1, "trials": 1,
                     "distribution": {"kind": "uniform-ball", "dim": 3, "radius": 1,
                                      "sigmas": [1, 1, 1]}}),
         "distribution: uniform-ball takes no sigmas; only diagonal-gaussian does"),
        (json.dumps({"experiment": "byzantine", "V_T": 5, "V_S": 1, "trials": 1,
                     "distribution": {"kind": "isotropic-gaussian", "dim": 3, "X": 8}}),
         "distribution: isotropic-gaussian reads no key 'X'"),
    ], ids=["byzantine-majority", "2x2-preference", "infinite-preference", "zero-trials",
            "theorem1-X-401-digits", "convergence-dim-3", "misspelled-median-skew",
            "byzantine-unread-keys", "theorem1-seed", "convergence-epsilon-delta",
            "gaussian-radius", "ball-sigmas", "unread-distribution-key"])
    def test_rejected_config_names_it_and_writes_nothing(self, text, message, tmp_path,
                                                         capsys):
        path = write_csv(tmp_path / "c.json", text)
        out_dir = tmp_path / "o"
        code, out, err = run_cli(
            ["simulate", "--config", path, "--output", str(out_dir)], capsys
        )
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
        assert not out_dir.exists()

    def test_solver_failure_in_the_experiment_exit_3(self, tmp_path, capsys, monkeypatch):
        def stall(*args, **kwargs):
            raise errors.SolverFailure("stalled")

        monkeypatch.setattr(cli, "theorem1_experiment", stall)
        path = write_csv(tmp_path / "c.json", json.dumps(THEOREM1))
        out_dir = tmp_path / "o"
        code, out, err = run_cli(
            ["simulate", "--config", path, "--output", str(out_dir)], capsys
        )
        assert (code, out, err) == (3, "", "solver failure: stalled\n")
        assert not out_dir.exists()

    def test_config_seed_overrides_a_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MEDIANFORGE_SEED", "abc")
        byzantine = {"experiment": "byzantine", "V_T": 3, "V_S": 1, "trials": 2,
                     "distribution": {"kind": "isotropic-gaussian", "dim": 2}}
        codes = []
        for cfg in (byzantine, dict(byzantine, seed=3)):
            path = write_csv(tmp_path / "c.json", json.dumps(cfg))
            codes.append(run_cli(
                ["simulate", "--config", path, "--output", str(tmp_path / "o")], capsys
            )[0])
        assert codes == [2, 0]

    def test_theorem1_run_and_csv(self, tmp_path, capsys):
        cfg = write_csv(
            tmp_path / "c.json",
            json.dumps({"experiment": "theorem1", "X": 20, "V_grid": [200, 400]}),
        )
        out_dir = str(tmp_path / "out")
        code, _, err = run_cli(
            ["simulate", "--config", cfg, "--output", out_dir, "--deterministic"],
            capsys,
        )
        assert code == 0
        csv_text = open(os.path.join(out_dir, "theorem1_trials.csv")).read()
        assert csv_text.count("\n") == 3  # header + 2 rows
        doc = json.load(open(os.path.join(out_dir, "theorem1_report.json")))
        assert doc["results"]["summary"]["limit_ratio"] == pytest.approx(5.0125)

    @pytest.mark.parametrize("cfg", [
        THEOREM1,
        {"experiment": "byzantine", "seed": 11, "V_T": 5, "V_S": 2, "trials": 3,
         "distribution": {"kind": "isotropic-gaussian", "dim": 3}},
        {"experiment": "asymptotic", "seed": 13, "V_grid": [200], "trials": 1,
         "distribution": DIAG5},
        {"experiment": "convergence", "seed": 14, "V_grid": [100, 200], "trials": 1,
         "distribution": {"kind": "isotropic-gaussian", "dim": 5}},
    ], ids=lambda cfg: cfg["experiment"])
    def test_csv_columns_are_the_row_fields(self, cfg, tmp_path, capsys):
        path = write_csv(tmp_path / "c.json", json.dumps(cfg))
        out_dir = tmp_path / "o"
        code, _, _ = run_cli(["simulate", "--config", path, "--output", str(out_dir)],
                             capsys)
        assert code == 0
        kind = cfg["experiment"]
        rows = json.load(open(out_dir / f"{kind}_report.json"))["results"]["rows"]
        with open(out_dir / f"{kind}_trials.csv", newline="", encoding="utf-8") as fh:
            header, *cells = csv.reader(fh)
        assert sorted(header) == list(rows[0])  # the report sorts its keys
        # each cell as write_rows_csv writes the row's value
        assert [dict(zip(header, line)) for line in cells] == [
            {k: "" if v is None else fmt_float(v) if isinstance(v, float) else str(v)
             for k, v in row.items()} for row in rows]

    def test_deterministic_across_runs_and_parallel(self, tmp_path, capsys):
        cfg = write_csv(
            tmp_path / "c.json",
            json.dumps(
                {
                    "experiment": "byzantine",
                    "V_T": 5,
                    "V_S": 2,
                    "trials": 8,
                    "seed": 11,
                    "distribution": {"kind": "isotropic-gaussian", "dim": 3},
                }
            ),
        )
        outputs = []
        for i, par in enumerate((1, 1, 4)):
            out_dir = str(tmp_path / f"out{i}")
            code, _, _ = run_cli(
                ["simulate", "--config", cfg, "--parallel", str(par),
                 "--output", out_dir, "--deterministic"],
                capsys,
            )
            assert code == 0
            outputs.append(
                (
                    open(os.path.join(out_dir, "byzantine_report.json")).read(),
                    open(os.path.join(out_dir, "byzantine_trials.csv")).read(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("make_argv", [
    lambda d: ["aggregate", "--input", write_csv(d / "p.csv", "1,0\n0,1\n-1,-1\n"),
               "--method", "gm", "--output", str(d / "missing" / "x.json")],
    lambda d: ["skewness", "--matrix", write_csv(d / "m.csv", "1,0\n0,2\n"),
               "--output", str(d / "missing" / "x.json")],
    lambda d: ["simulate", "--config", write_csv(d / "c.json", json.dumps(THEOREM1)),
               "--output", write_csv(d / "f", "")],
    lambda d: ["simulate", "--config", write_csv(d / "c.json", json.dumps(THEOREM1)),
               "--output", os.path.join(write_csv(d / "f", ""), "sub")],
], ids=["aggregate-missing-dir", "skewness-missing-dir", "simulate-onto-file",
        "simulate-under-file"])
def test_unwritable_output_exit_2(make_argv, tmp_path, capsys):
    code, out, err = run_cli(make_argv(tmp_path), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cannot" in err


@pytest.mark.parametrize("make_argv,name", [
    (lambda d, m: ["aggregate", "--input", write_csv(d / "t.csv", "1,0\n0,1\n-1,-1\n"),
                   "--method", "skewed-gm", "--skew-matrix", m], "skew matrix"),
    (lambda d, m: ["best-response", "--input", write_csv(d / "t.csv", "1,0\n0,1\n-1,-1\n"),
                   "--theta0", "2,2", "--pref-matrix", m], "preference matrix"),
    (lambda d, m: ["skewness", "--matrix", m], "matrix"),
], ids=["skew-matrix", "pref-matrix", "skewness"])
def test_non_spd_matrix_names_its_file(make_argv, name, tmp_path, capsys):
    mat = write_csv(tmp_path / "notspd.csv", "1,0\n0,-1\n")
    code, out, err = run_cli(make_argv(tmp_path, mat), capsys)
    assert (code, out, err) == (2, "", f"error: {mat}: {name} is not positive definite\n")


@pytest.mark.parametrize("cls", errors.MedianForgeError.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_every_package_error_but_solver_failure_is_a_value_error(cls):
    # main exits 2 on a ValueError, 3 on a SolverFailure
    assert issubclass(cls, ValueError) == (cls is not errors.SolverFailure)


class TestRoundTrip:
    def test_profile_write_read_identical(self, tmp_path, rng):
        pts = rng.standard_normal((20, 4)) * np.pi
        path = str(tmp_path / "roundtrip.csv")
        np.savetxt(path, pts, delimiter=",", fmt="%.17g")
        back = read_profile_csv(path)
        np.testing.assert_array_equal(back, pts)

    def test_fmt_float_17_digits(self):
        for x in (1.0 / 3.0, math.pi, 1e-300, -2.5e300, 0.1 + 0.2):
            assert float(fmt_float(x)) == x
