import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import aqbernstein.cli
from aqbernstein.bernstein import OperatorParams
from aqbernstein.cli import _json_text, main
from aqbernstein.eigen import EigenSystem, eigensystem, eigensystem_from_dict
from aqbernstein.polynomials import Polynomial
from aqbernstein.scalars import parse_scalar

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
        # an infinite [n]_q named by the image kernel, and an eigenvalue
        # difference below the float range, named by the eigenvector recursion
        for n, q, error, ending in [
            ("1024", "2", "FloatingPointError: non-finite float in image_rows: nan",
             " (n=1024, q=2.0, alpha=0.4)\n"),
            ("50", "0.5", "DegenerateEigenvalueError: lambda_47 - lambda_46 underflowed ",
             " (n=50, q=0.5, alpha=0.4)\n"),
        ]:
            proc = run_cli("eig", "--n", n, "--q", q, "--alpha", "0.4",
                           "--mode", "float", expect=1)
            assert "Traceback" not in proc.stderr
            assert proc.stderr.count("\n") == 1
            assert f"eig --n {n} --q {q} --alpha 0.4 --mode float': {error}" in proc.stderr
            assert proc.stderr.endswith(ending)

    def test_out_file(self, tmp_path):
        path = tmp_path / "eig.json"
        run_cli("eig", "--n", "2", "--q", "1/2", "--alpha", "1", "--out", str(path))
        assert json.loads(path.read_text())["n"] == 2

    def test_unwritable_out_exit_2(self, tmp_path):
        path = tmp_path / "missing" / "eig.json"
        proc = run_cli("eig", "--n", "2", "--q", "1/2", "--alpha", "1",
                       "--out", str(path), expect=2)
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot write --out {path}: ")
        assert proc.stderr.count("\n") == 1

    def test_broken_stdout_not_a_usage_error(self, monkeypatch):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        with pytest.raises(BrokenPipeError):
            main(["eig", "--n", "2", "--q", "1/2", "--alpha", "1"])


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

    def test_extreme_exponent_exit_2(self):
        # an exact 1e-100000 used to run 9.7 s and 1e-1000000 past 60 s
        proc = run_cli("limits", "--q", "1e-1000000", "--alpha", "0", "--k", "3",
                       expect=2)
        assert proc.stdout == ""
        assert "exponent beyond +-4300 in '1e-1000000'" in proc.stderr

    def test_alpha_outside_unit_interval_exit_2(self):
        # as for eig and converge; alpha = 9/5 at q = 2 used to divide by zero
        for alpha in ["9/5", "-3"]:
            proc = run_cli("limits", "--q", "2", "--alpha", alpha, "--k", "3",
                           expect=2)
            assert proc.stdout == ""
            assert f"alpha={alpha} is outside [0,1]" in proc.stderr


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


class TestExactOutputOfAnySize:
    """Exact numerators past the interpreter's 4300-digit int/str cap are
    written and read back, without changing the interpreter's setting."""

    ARGS = ["eig", "--n", "28", "--q", "3/2", "--alpha", "2/5"]

    @pytest.fixture(scope="class")
    def system(self):
        system = eigensystem(OperatorParams(28, F(3, 2), F(2, 5)))
        digits = max(len(str(Decimal(abs(c.numerator))))
                     for p in system.vectors for c in p.coeffs)
        assert digits > sys.get_int_max_str_digits() > 0
        return system

    def test_json_roundtrip(self, system, capsys):
        assert main(self.ARGS) == 0
        assert eigensystem_from_dict(json.loads(capsys.readouterr().out)) == system
        assert sys.get_int_max_str_digits() == 4300

    def test_csv_parses_back(self, system, capsys):
        assert main([*self.ARGS, "--format", "csv"]) == 0
        rows = parse_csv(capsys.readouterr().out)[1:]
        assert [parse_scalar(r[1]) for r in rows] == list(system.lambdas)
        vectors = [Polynomial(tuple(parse_scalar(c) for c in r[2:])) for r in rows]
        assert vectors == list(system.vectors)

    def test_converge_exact_to_200(self, capsys):
        assert main(["converge", "--q", "3/2", "--alpha", "2/5", "--k", "12",
                     "--n", "25,50,100,200", "--mode", "exact"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1 + 4 * 13


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

    def test_empty_value_list_exit_2(self):
        for q, alpha, flag in [(",", "2/5", "--q"), ("1/2", ",", "--alpha")]:
            proc = run_cli("plot-data", "--n", "3", "--k", "2", "--q", q,
                           "--alpha", alpha, expect=2)
            assert proc.stdout == ""
            assert f"{flag} needs at least one value" in proc.stderr

    def test_deterministic(self):
        args = ("plot-data", "--n", "3", "--k", "2", "--alpha", "0,1",
                "--q", "0.5,2", "--samples", "4")
        assert run_cli(*args).stdout == run_cli(*args).stdout


# SHA-256 of the stdout of ``verify --max-n 4`` and of ``verify`` (--max-n 6)
VERIFY_4_SHA256 = "8119482adba00a8301775f828d8c4ea5f71c7b1a5b9aa07e567270df7fd4766f"
VERIFY_6_SHA256 = "8eb7e0f21b9c8c38a7b7944f407f8b06d821ffd42f937ee720f8fdd2bb3330c5"


class TestVerify:
    def test_passes(self):
        obj = json.loads(run_cli("verify", "--max-n", "3").stdout)
        assert obj["passed"] is True
        names = {c["name"] for c in obj["checks"]}
        assert {"stirling_cross_check", "representation_equivalence",
                "eigen_relation", "leading_coefficient", "distinctness",
                "example_fixed_points", "operator_axioms"} <= names
        assert all(c["passed"] for c in obj["checks"])

    def test_report_of_the_benchmark_is_pinned(self, capsys):
        # the report that the benchmark's command-line session writes, byte
        # for byte
        assert main(["verify", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert [c["cases"] for c in json.loads(out)["checks"]] == [
            845, 300, 350, 250, 150, 100, 950]
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_4_SHA256

    def test_default_report_is_pinned(self, capsys):
        # the report at the default --max-n 6, byte for byte; CI's
        # console-script step runs a grid containing this one (--max-n 10)
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert [c["cases"] for c in json.loads(out)["checks"]] == [
            845, 450, 675, 525, 375, 150, 1575]
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_6_SHA256

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

    def test_empty_grid_exit_2(self, capsys):
        assert main(["verify", "--max-n", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: max_n must be >= 1, got 0\n"


ALPHA_OUTSIDE = [
    ("eig --n 3 --q 1/2 --alpha 2", "2"),
    ("eig --n 3 --q 1/2 --alpha 2.0 --mode float", "2.0"),
    ("apply --n 3 --q 1/2 --alpha 3/2 --k 2", "3/2"),
    ("basis --n 3 --q 1/2 --alpha 2 --x 1/3", "2"),
    ("limits --q 2 --alpha 2.0 --k 3", "2.0"),
    ("converge --q 1/2 --alpha 2.0 --k 3 --n 5,10", "2.0"),
    ("plot-data --n 3 --k 2 --q 1/2 --alpha 0,2", "2"),
]


@pytest.mark.parametrize("command, typed", ALPHA_OUTSIDE,
                         ids=[c for c, _ in ALPHA_OUTSIDE])
def test_alpha_outside_unit_interval_message(command, typed, capsys):
    # one message for every command, quoting --alpha as typed
    assert main(command.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: alpha={typed} is outside [0,1]\n"


NON_FINITE = [
    ("basis --n 1800 --q 1.5 --alpha 0.4 --x 0.5 --mode float --format csv",
     "non-finite float in basis_values: nan (n=1800, q=1.5, alpha=0.4)"),
    ("basis --n 1800 --q 1.5 --alpha 0.4 --x 0.5 --mode float",
     "non-finite float in basis_values: nan (n=1800, q=1.5, alpha=0.4)"),
    ("apply --n 1000 --q 2 --alpha 0.4 --k 2 --mode float",
     "non-finite float in apply_to_samples: nan (n=1000, q=2.0, alpha=0.4)"),
    ("apply --n 1000 --q 2 --alpha 0.4 --k 2 --mode float --format csv",
     "non-finite float in apply_to_samples: nan (n=1000, q=2.0, alpha=0.4)"),
    ("limits --q 0.5 --alpha 0.4 --k 400 --mode float",
     "non-finite float in limit_coeffs: nan (q=0.5, alpha=0.4, k=400)"),
    ("limits --q 1.5 --alpha 0.4 --k 2000 --mode float",
     "float overflow in limit_coeffs (q=1.5, alpha=0.4, k=2000)"),
]


@pytest.mark.parametrize("command, message", NON_FINITE, ids=[c for c, _ in NON_FINITE])
def test_non_finite_result_exit_1(command, message, capsys):
    # a nan, an infinity or a float overflow in the result is an arithmetic
    # failure in either format, never printed as a cell and never a usage
    # error; the library kernel that produced it refuses it and names itself
    # and its parameters
    assert main(command.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"arithmetic failure in '{command}': FloatingPointError: {message}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_refuses_non_finite(fmt, monkeypatch, capsys):
    # every kernel refuses a non-finite float first, so a substitute
    # evaluator is what reaches the writer's own check
    monkeypatch.setattr(aqbernstein.cli, "poly_eval", lambda p, x: math.nan)
    command = f"plot-data --n 3 --k 2 --q 0.5 --alpha 0.4 --mode float --format {fmt}"
    assert main(command.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"arithmetic failure in '{command}': "
                   "FloatingPointError: float result is not finite: nan\n")


# Full stdout of small commands, byte for byte. A JSON answer is written here
# on one line and compared in the CLI's layout (two-space indent).
GOLDEN = [
    ("eig --n 2 --q 1/2 --alpha 2/5",
     '{"n": 2, "q": {"num": "1", "den": "2"}, "alpha": {"num": "2", "den": '
     '"5"}, "lambdas": [{"num": "1", "den": "1"}, {"num": "1", "den": '
     '"1"}, {"num": "2", "den": "15"}], "vectors": [[{"num": "1", "den": '
     '"1"}], [{"num": "0", "den": "1"}, {"num": "1", "den": "1"}], '
     '[{"num": "0", "den": "1"}, {"num": "-1", "den": "1"}, {"num": "1", '
     '"den": "1"}]]}'),
    ("eig --n 2 --q 1/2 --alpha 2/5 --format csv",
     'k,lambda,c0,c1,c2\n0,1,1,0,0\n1,1,0,1,0\n2,2/15,0,-1,1\n'),
    ("eig --n 2 --q 1.5 --alpha 0.4 --mode float",
     '{"n": 2, "q": 1.5, "alpha": 0.4, "lambdas": [1.0, 1.0, 0.24], '
     '"vectors": [[1.0], [0.0, 1.0], [-0.0, -1.0000000000000002, 1.0]]}'),
    ("apply --n 2 --q 1/2 --alpha 2/5 --k 2",
     '{"n": 2, "q": {"num": "1", "den": "2"}, "alpha": {"num": "2", "den": '
     '"5"}, "image": [{"num": "0", "den": "1"}, {"num": "13", "den": '
     '"15"}, {"num": "2", "den": "15"}]}'),
    ("apply --n 2 --q 1/2 --alpha 2/5 --k 2 --format csv",
     'j,coeff\n0,0\n1,13/15\n2,2/15\n'),
    ("basis --n 2 --q 1/2 --alpha 2/5 --x 1/3",
     '{"n": 2, "q": {"num": "1", "den": "2"}, "alpha": {"num": "2", "den": '
     '"5"}, "x": {"num": "1", "den": "3"}, "values": [{"num": "28", "den": '
     '"45"}, {"num": "2", "den": "15"}, {"num": "11", "den": "45"}]}'),
    ("basis --n 2 --q 1/2 --alpha 2/5 --samples 3",
     'x,p0,p1,p2\n0,1,0,0\n1/2,9/20,3/20,2/5\n1,0,0,1\n'),
    ("limits --q 2 --alpha 0 --k 2",
     '{"regime": "q_above_1", "k": 2, "q": {"num": "2", "den": "1"}, '
     '"alpha": {"num": "0", "den": "1"}, "limit_lambda": {"num": "1", '
     '"den": "1"}, "coeffs": [{"num": "0", "den": "1"}, {"num": "-1", '
     '"den": "1"}, {"num": "1", "den": "1"}]}'),
    ("limits --q 2 --alpha 0 --k 2 --format csv",
     'j,coeff,limit_lambda\n0,0,1\n1,-1,1\n2,1,1\n'),
    ("converge --q 1/2 --alpha 2/5 --k 3 --n 3",
     'n,j,finite,limit,abs_error\n'
     '3,0,0,0,0\n'
     '3,1,0.64550264550264524,0.66666666666666674,0.021164021164021496\n'
     '3,2,-1.6455026455026451,-1.6666666666666667,0.021164021164021607\n'
     '3,3,1,1,0\n'),
    ("converge --q 1/2 --alpha 2/5 --k 2 --n 3 --mode exact --format json",
     '[{"n": 3, "j": 0, "finite": {"num": "0", "den": "1"}, "limit": '
     '{"num": "0", "den": "1"}, "abs_error": {"num": "0", "den": "1"}}, '
     '{"n": 3, "j": 1, "finite": {"num": "-1", "den": "1"}, "limit": '
     '{"num": "-1", "den": "1"}, "abs_error": {"num": "0", "den": "1"}}, '
     '{"n": 3, "j": 2, "finite": {"num": "1", "den": "1"}, "limit": '
     '{"num": "1", "den": "1"}, "abs_error": {"num": "0", "den": "1"}}]'),
    ("plot-data --n 2 --k 2 --alpha 2/5 --q 1/2 --samples 3",
     'x,"p_2[q=1/2,alpha=2/5]"\n0,0\n1/2,-1/4\n1,0\n'),
    ("plot-data --n 2 --k 2 --alpha 2/5 --q 1/2 --samples 3 --format json",
     '{"n": 2, "k": 2, "x": [{"num": "0", "den": "1"}, {"num": "1", "den": '
     '"2"}, {"num": "1", "den": "1"}], "columns": [{"q": {"num": "1", '
     '"den": "2"}, "alpha": {"num": "2", "den": "5"}, "values": [{"num": '
     '"0", "den": "1"}, {"num": "-1", "den": "4"}, {"num": "0", "den": '
     '"1"}]}]}'),
    ("verify --max-n 1",
     '{"passed": true, "max_n": 1, "checks": [{"name": '
     '"stirling_cross_check", "passed": true, "cases": 845}, {"name": '
     '"representation_equivalence", "passed": true, "cases": 75}, {"name": '
     '"eigen_relation", "passed": true, "cases": 50}, {"name": '
     '"leading_coefficient", "passed": true, "cases": 25}, {"name": '
     '"distinctness", "passed": true, "cases": 0}, {"name": '
     '"example_fixed_points", "passed": true, "cases": 0}, {"name": '
     '"operator_axioms", "passed": true, "cases": 200}]}'),
    # max-n 3 is the smallest cap with distinctness and example_fixed_points
    # cases, including the closed-form degree-3 eigenvectors at n = 3
    ("verify --max-n 3",
     '{"passed": true, "max_n": 3, "checks": [{"name": '
     '"stirling_cross_check", "passed": true, "cases": 845}, {"name": '
     '"representation_equivalence", "passed": true, "cases": 225}, {"name": '
     '"eigen_relation", "passed": true, "cases": 225}, {"name": '
     '"leading_coefficient", "passed": true, "cases": 150}, {"name": '
     '"distinctness", "passed": true, "cases": 75}, {"name": '
     '"example_fixed_points", "passed": true, "cases": 75}, {"name": '
     '"operator_axioms", "passed": true, "cases": 675}]}'),
]


@pytest.mark.parametrize("command, expected", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_stdout(command, expected):
    if expected.startswith(("{", "[")):
        expected = json.dumps(json.loads(expected), indent=2) + "\n"
    assert run_cli(*command.split()).stdout == expected


def test_eig_csv_builds_no_json_dict(monkeypatch, capsys):
    # CSV prints the rows alone; a JSON dict built as well would convert
    # every integer to digits a second time
    def refuse(self):
        raise AssertionError("as_dict called for CSV output")

    monkeypatch.setattr(EigenSystem, "as_dict", refuse)
    command, expected = GOLDEN[1]
    assert command.endswith("--format csv")
    assert main(command.split()) == 0
    assert capsys.readouterr().out == expected
