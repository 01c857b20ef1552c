import csv
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from aqbernstein.bernstein import OperatorParams
from aqbernstein.cli import _json_text, main
from aqbernstein.eigen import eigensystem, eigensystem_from_dict

F = Fraction


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "aqbernstein", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\n"
        f"stderr: {proc.stderr}"
    )
    return proc


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestEig:
    def test_known_eigensystem(self):
        out = run_cli("eig", "--n", "2", "--q", "1/2", "--alpha", "1").stdout
        obj = json.loads(out)
        assert obj["lambdas"] == [
            {"num": "1", "den": "1"},
            {"num": "1", "den": "1"},
            {"num": "1", "den": "3"},
        ]
        assert obj["vectors"][2] == [
            {"num": "0", "den": "1"},
            {"num": "-1", "den": "1"},
            {"num": "1", "den": "1"},
        ]

    def test_n1(self):
        obj = json.loads(run_cli("eig", "--n", "1", "--q", "3", "--alpha", "0").stdout)
        assert obj["lambdas"] == [{"num": "1", "den": "1"}] * 2

    def test_degree3_classical(self):
        obj = json.loads(run_cli("eig", "--n", "3", "--q", "1", "--alpha", "1").stdout)
        assert obj["vectors"][3] == [
            {"num": "0", "den": "1"},
            {"num": "1", "den": "2"},
            {"num": "-3", "den": "2"},
            {"num": "1", "den": "1"},
        ]

    def test_json_roundtrip(self):
        out = run_cli("eig", "--n", "4", "--q", "2/3", "--alpha", "0.25").stdout
        system = eigensystem_from_dict(json.loads(out))
        assert system == eigensystem(OperatorParams(4, F(2, 3), F(1, 4)))

    def test_csv_shape(self):
        rows = parse_csv(
            run_cli("eig", "--n", "2", "--q", "1/2", "--alpha", "1",
                    "--format", "csv").stdout
        )
        assert rows[0] == ["k", "lambda", "c0", "c1", "c2"]
        assert rows[3][1] == "1/3"

    def test_bad_params_exit_2(self):
        run_cli("eig", "--n", "0", "--q", "1/2", "--alpha", "1", expect=2)
        run_cli("eig", "--n", "2", "--q", "0", "--alpha", "1", expect=2)
        run_cli("eig", "--n", "2", "--q", "1/2", "--alpha", "2", expect=2)

    def test_non_finite_input_exit_2(self):
        proc = run_cli("eig", "--n", "2", "--q", "inf", "--alpha", "0.4",
                       "--mode", "float", expect=2)
        assert proc.stdout == ""
        run_cli("eig", "--n", "2", "--q", "1/2", "--alpha", "nan",
                "--mode", "float", expect=2)
        with pytest.raises(ValueError):
            _json_text({"lambda": float("nan")})

    def test_float_range_failure_exit_1(self):
        for n, q in [("40", "1.5"), ("50", "0.5")]:
            proc = run_cli("eig", "--n", n, "--q", q, "--alpha", "0.4",
                           "--mode", "float", expect=1)
            assert "Traceback" not in proc.stderr
            assert proc.stderr.count("\n") == 1
            assert f"eig --n {n} --q {q} --alpha 0.4 --mode float" in proc.stderr

    def test_out_file(self, tmp_path):
        path = tmp_path / "eig.json"
        run_cli("eig", "--n", "2", "--q", "1/2", "--alpha", "1", "--out", str(path))
        assert json.loads(path.read_text())["n"] == 2


class TestApply:
    def test_monomial(self):
        obj = json.loads(
            run_cli("apply", "--n", "2", "--q", "1/2", "--alpha", "1",
                    "--k", "2").stdout
        )
        assert obj["image"][-1] == {"num": "1", "den": "3"}

    def test_explicit_samples_linear(self):
        obj = json.loads(
            run_cli("apply", "--n", "1", "--q", "2", "--alpha", "1",
                    "--f", "3,5").stdout
        )
        assert obj["image"] == [
            {"num": "3", "den": "1"},
            {"num": "2", "den": "1"},
        ]

    def test_constant_samples(self):
        obj = json.loads(
            run_cli("apply", "--n", "3", "--q", "2/3", "--alpha", "2/5",
                    "--f", "7,7,7,7").stdout
        )
        assert obj["image"] == [{"num": "7", "den": "1"}]

    def test_requires_exactly_one_input(self):
        run_cli("apply", "--n", "2", "--q", "1/2", "--alpha", "1", expect=2)
        run_cli("apply", "--n", "2", "--q", "1/2", "--alpha", "1",
                "--f", "1,2,3", "--k", "1", expect=2)

    def test_wrong_sample_count(self):
        run_cli("apply", "--n", "2", "--q", "1/2", "--alpha", "1",
                "--f", "1,2", expect=2)


class TestBasis:
    def test_point_values_sum_to_one(self):
        obj = json.loads(
            run_cli("basis", "--n", "4", "--q", "1/2", "--alpha", "2/5",
                    "--x", "1/3").stdout
        )
        total = sum(F(int(v["num"]), int(v["den"])) for v in obj["values"])
        assert total == 1

    def test_grid_csv(self):
        rows = parse_csv(
            run_cli("basis", "--n", "2", "--q", "1/2", "--alpha", "1",
                    "--samples", "3").stdout
        )
        assert rows[0] == ["x", "p0", "p1", "p2"]
        assert [r[0] for r in rows[1:]] == ["0", "1/2", "1"]

    def test_format_option(self):
        obj = json.loads(
            run_cli("basis", "--n", "2", "--q", "1/2", "--alpha", "2/5",
                    "--samples", "3", "--format", "json").stdout
        )
        assert [F(int(v["num"]), int(v["den"])) for v in obj["x"]] == [0, F(1, 2), 1]
        assert len(obj["values"]) == 3
        for row in obj["values"]:
            assert sum(F(int(v["num"]), int(v["den"])) for v in row) == 1
        rows = parse_csv(
            run_cli("basis", "--n", "2", "--q", "1/2", "--alpha", "2/5",
                    "--x", "1/3", "--format", "csv").stdout
        )
        assert rows[0] == ["x", "p0", "p1", "p2"]
        assert len(rows) == 2 and rows[1][0] == "1/3"
        assert sum(F(v) for v in rows[1][1:]) == 1

    def test_requires_exactly_one_of_x_samples(self):
        run_cli("basis", "--n", "2", "--q", "1/2", "--alpha", "1", expect=2)


class TestLimits:
    def test_below_one(self):
        obj = json.loads(
            run_cli("limits", "--q", "1/2", "--alpha", "1/2", "--k", "2").stdout
        )
        assert obj["regime"] == "q_below_1"
        assert obj["limit_lambda"] == {"num": "1", "den": "2"}
        assert obj["coeffs"][1] == {"num": "-1", "den": "1"}

    def test_above_one(self):
        obj = json.loads(
            run_cli("limits", "--q", "2", "--alpha", "0", "--k", "3").stdout
        )
        assert obj["regime"] == "q_above_1"
        assert obj["limit_lambda"] == {"num": "1", "den": "1"}
        assert obj["coeffs"][1] == {"num": "10", "den": "27"}

    def test_q_one_rejected(self):
        proc = run_cli("limits", "--q", "1", "--alpha", "0", "--k", "2", expect=2)
        assert "no limit regime at q=1" in proc.stderr


class TestConverge:
    def test_exact_degree_two_is_zero_error(self):
        rows = parse_csv(
            run_cli("converge", "--q", "1/2", "--alpha", "2/5", "--k", "2",
                    "--n", "5,10,20", "--mode", "exact").stdout
        )
        assert rows[0] == ["n", "j", "finite", "limit", "abs_error"]
        assert all(r[4] == "0" for r in rows[1:])

    def test_float_errors_shrink(self):
        rows = parse_csv(
            run_cli("converge", "--q", "1/2", "--alpha", "2/5", "--k", "3",
                    "--n", "25,50,100").stdout
        )
        worst = {}
        for n, j, fin, lim, err in rows[1:]:
            worst[int(n)] = max(worst.get(int(n), 0.0), float(err))
        assert worst[50] <= worst[25] + 1e-9
        assert worst[100] <= worst[50] + 1e-9

    def test_q_one_exit_2(self):
        proc = run_cli("converge", "--q", "1", "--alpha", "0", "--k", "2",
                       "--n", "10,20", expect=2)
        assert "no limit regime at q=1" in proc.stderr


class TestPlotData:
    def test_grid_shape(self):
        rows = parse_csv(
            run_cli("plot-data", "--n", "3", "--k", "3", "--alpha", "0.4",
                    "--q", "0.25,0.5,0.75", "--samples", "5").stdout
        )
        assert rows[0][0] == "x"
        assert rows[0][1] == "p_3[q=1/4,alpha=2/5]"
        assert len(rows) == 6
        assert [r[0] for r in rows[1:]] == ["0", "1/4", "1/2", "3/4", "1"]

    def test_endpoint_zeros(self):
        rows = parse_csv(
            run_cli("plot-data", "--n", "4", "--k", "3", "--alpha", "0.4",
                    "--q", "0.5,2", "--samples", "5").stdout
        )
        assert rows[1][1:] == ["0", "0"]
        assert rows[-1][1:] == ["0", "0"]

    def test_classical_column_at_half(self):
        rows = parse_csv(
            run_cli("plot-data", "--n", "3", "--k", "3", "--alpha", "1",
                    "--q", "1", "--samples", "3").stdout
        )
        # vector is [0, 1/2, -3/2, 1]; at 1/2: 1/4 - 3/8 + 1/8 = 0
        assert rows[2][0] == "1/2" and rows[2][1] == "0"

    def test_deterministic(self):
        args = ("plot-data", "--n", "3", "--k", "2", "--alpha", "0,1",
                "--q", "0.5,2", "--samples", "4")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestVerify:
    def test_passes(self):
        obj = json.loads(run_cli("verify", "--max-n", "3").stdout)
        assert obj["passed"] is True
        names = {c["name"] for c in obj["checks"]}
        assert {"stirling_cross_check", "representation_equivalence",
                "eigen_relation", "leading_coefficient", "distinctness",
                "example_fixed_points", "operator_axioms"} <= names
        assert all(c["passed"] for c in obj["checks"])

    def test_fault_injection_caught(self, corrupt_kernel, capsys):
        assert main(["verify", "--max-n", "2"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["passed"] is False
        failed = [c for c in obj["checks"] if not c["passed"]]
        assert failed and "counterexample" in failed[0]
        # faults are substituted by tests, never switched on from the CLI
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--inject-fault", "ark-sign"])
        assert exc.value.code == 2
