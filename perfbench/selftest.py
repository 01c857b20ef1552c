"""Self-tests of the benchmark's correctness checks.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Each check must accept a correct output and reject a corrupted copy of it,
which shows that the checks are not vacuous. Outputs are corrupted here, on
copies, never inside the package.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import unittest
from fractions import Fraction

import checkout

api = checkout.use_checkout_source()

import aqbernstein.cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ALPHA = Fraction(2, 5)


def cli_output(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = aqbernstein.cli.main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


def system(n, q, alpha=ALPHA):
    return api.eigensystem(api.OperatorParams(n, q, alpha))


def with_coeff(sys_, k, j, value):
    """Copy of an eigensystem with coefficient j of p_k replaced."""
    coeffs = list(sys_.vectors[k].coeffs)
    coeffs[j] = value
    vectors = list(sys_.vectors)
    vectors[k] = api.Polynomial(tuple(coeffs))
    return dataclasses.replace(sys_, vectors=tuple(vectors))


class ExactEigensystem(unittest.TestCase):
    def test_accepts_correct(self):
        for q in (Fraction(1, 2), Fraction(3, 2)):
            self.assertEqual(checks.exact_eigensystem(system(6, q)), [])

    def test_rejects_perturbed_coefficient(self):
        good = system(6, Fraction(3, 2))
        bad = with_coeff(good, 4, 2, good.vectors[4].coeffs[2] + Fraction(1, 10**12))
        self.assertTrue(checks.exact_eigensystem(bad))

    def test_rejects_swapped_eigenvalues(self):
        good = system(6, Fraction(1, 2))
        lams = list(good.lambdas)
        lams[3], lams[4] = lams[4], lams[3]
        bad = dataclasses.replace(good, lambdas=tuple(lams))
        self.assertTrue(checks.exact_eigensystem(bad))

    def test_product_form_matches_library(self):
        params = api.OperatorParams(9, Fraction(3, 2), ALPHA)
        lams = checks.product_form_eigenvalues(9, params.q, ALPHA)
        self.assertEqual(lams, [api.eigenvalue(k, params) for k in range(10)])


class FloatEigensystem(unittest.TestCase):
    def setUp(self):
        self.exact = system(8, Fraction(3, 2))
        self.floats = api.eigensystem(api.OperatorParams(8, 1.5, 0.4))

    def test_accepts_correct(self):
        problems, err = checks.float_eigensystem(self.floats, self.exact)
        self.assertEqual(problems, [])
        self.assertLess(err, checks.FLOAT_REL_TOL)

    def test_rejects_coefficient_off_by_more_than_tolerance(self):
        c = self.floats.vectors[5].coeffs[3]
        inside = with_coeff(self.floats, 5, 3, c * (1 + checks.FLOAT_REL_TOL / 10))
        outside = with_coeff(self.floats, 5, 3, c * (1 + checks.FLOAT_REL_TOL * 10))
        self.assertEqual(checks.float_eigensystem(inside, self.exact)[0], [])
        self.assertTrue(checks.float_eigensystem(outside, self.exact)[0])

    def test_rejects_non_finite(self):
        bad = with_coeff(self.floats, 5, 3, float("nan"))
        problems, err = checks.float_eigensystem(bad, self.exact)
        self.assertTrue(problems)
        self.assertEqual(err, float("inf"))


class Convergence(unittest.TestCase):
    def setUp(self):
        self.schedule = (8, 16, 32)
        self.exact = api.convergence_table(Fraction(3, 2), ALPHA, 4, self.schedule, mode="exact")

    def test_accepts_correct(self):
        self.assertEqual(checks.exact_convergence(self.exact, self.schedule, 4), [])
        rows = api.convergence_table(Fraction(3, 2), ALPHA, 4, self.schedule, mode="float")
        self.assertEqual(checks.float_convergence(rows, self.exact)[0], [])

    def test_rejects_growing_error(self):
        rows = list(self.exact)
        first, last = rows[1], rows[-4]  # j = 1 at the first and last n
        rows[1] = dataclasses.replace(last, n=first.n)
        rows[-4] = dataclasses.replace(first, n=last.n)
        self.assertTrue(checks.exact_convergence(rows, self.schedule, 4))

    def test_rejects_float_row_off(self):
        rows = list(api.convergence_table(Fraction(3, 2), ALPHA, 4, self.schedule, mode="float"))
        rows[2] = dataclasses.replace(rows[2], finite=rows[2].finite * (1 + 1e-7))
        self.assertTrue(checks.float_convergence(rows, self.exact)[0])


class CommandLine(unittest.TestCase):
    def test_eig_json_accepts_and_rejects_non_strict(self):
        ref = system(4, Fraction(1, 2))
        text = cli_output("eig", "--n", "4", "--q", "1/2", "--alpha", "2/5")
        self.assertEqual(checks.cli_eig_json(text, ref), [])
        obj = json.loads(text)
        for constant in ("NaN", "Infinity"):
            obj["lambdas"][2] = float(constant.lower().replace("infinity", "inf"))
            self.assertTrue(checks.cli_eig_json(json.dumps(obj), ref))
        self.assertRaises(ValueError, checks.strict_json, '{"x": NaN}')

    def test_eig_json_rejects_other_system(self):
        text = cli_output("eig", "--n", "4", "--q", "1/2", "--alpha", "2/5")
        self.assertTrue(checks.cli_eig_json(text, system(4, Fraction(1, 2), Fraction(1, 5))))

    def test_eig_csv(self):
        ref = system(4, Fraction(3, 2))
        text = cli_output("eig", "--n", "4", "--q", "3/2", "--alpha", "2/5", "--format", "csv")
        self.assertEqual(checks.cli_eig_csv(text, ref), [])
        self.assertTrue(checks.cli_eig_csv(text.replace(",-1,1,", ",-1,2,"), ref))

    def test_basis_rows_sum_to_one(self):
        text = cli_output("basis", "--n", "4", "--q", "3/2", "--alpha", "2/5", "--samples", "5")
        self.assertEqual(checks.cli_basis_csv(text, 4, 5), [])
        lines = text.splitlines()
        cells = lines[2].split(",")
        cells[1] = str(Fraction(cells[1]) + Fraction(1, 1000))
        lines[2] = ",".join(cells)
        self.assertTrue(checks.cli_basis_csv("\n".join(lines) + "\n", 4, 5))

    def test_apply(self):
        params = api.OperatorParams(5, Fraction(1, 2), ALPHA)
        text = cli_output("apply", "--n", "5", "--q", "1/2", "--alpha", "2/5", "--k", "3")
        self.assertEqual(checks.cli_apply_json(text, params, 3), [])
        self.assertTrue(checks.cli_apply_json(text, params, 2))

    def test_limits(self):
        text = cli_output("limits", "--q", "1/2", "--alpha", "2/5", "--k", "5")
        self.assertEqual(checks.cli_limits_json(text, Fraction(1, 2), 5), [])
        self.assertTrue(checks.cli_limits_json(text, Fraction(1, 3), 5))

    def test_plot_data(self):
        refs = [system(4, Fraction(1, 2)), system(4, Fraction(3, 2))]
        text = cli_output("plot-data", "--n", "4", "--k", "3", "--alpha", "2/5",
                          "--q", "1/2,3/2", "--samples", "5", "--format", "json")
        self.assertEqual(checks.cli_plot_json(text, 3, 5, refs), [])
        self.assertTrue(checks.cli_plot_json(text, 3, 5, refs[::-1]))

    def test_verify_report(self):
        good = {"passed": True, "checks": [{"passed": True}] * checks.VERIFY_CHECK_COUNT}
        self.assertEqual(checks.cli_verify_json(json.dumps(good)), [])
        bad = dict(good, passed=False)
        self.assertTrue(checks.cli_verify_json(json.dumps(bad)))


class Layout(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.BUILDERS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.per_layer_units())

    def test_fingerprint_treats_nan_as_equal(self):
        self.assertEqual(run.fingerprint((float("nan"), Fraction(1, 3))),
                         run.fingerprint((float("nan"), Fraction(1, 3))))
        self.assertNotEqual(run.fingerprint(Fraction(1, 3)), run.fingerprint(Fraction(2, 6) + 1))


if __name__ == "__main__":
    sys.exit(unittest.main())
