"""Acceptance gate: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (the lines print regardless; ``-s`` shows them live).
"""

import json
import random
import subprocess
import sys
import time
import functools
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain

from aqbernstein import verify
from aqbernstein.asymptotics import limit_coeffs
from aqbernstein.bernstein import OperatorParams, apply_to_samples, basis_values
from aqbernstein.cli import main
from aqbernstein.eigen import eigensystem, eigenvalue, eigenvector
from aqbernstein.polynomials import Polynomial, poly_eval

F = Fraction
Q_GRID = (F(1, 3), F(1, 2), F(1), F(3, 2), F(2))
A_GRID = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
# alpha = 2/5 joins criteria 3, 5 and 10 at these q
Q_GRID_2_5 = (F(1, 2), F(1), F(3, 2), F(2))
SLACK = 1e-9  # float comparison slack for error-monotonicity checks

CRITERION_LINES = []  # replayed in the terminal summary by conftest.py


def _report(line):
    CRITERION_LINES.append(line)
    print(line)


@contextmanager
def criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(f"criterion {num:2d} ({label}): FAIL")
        raise
    _report(
        f"criterion {num:2d} ({label}): PASS  [{time.perf_counter() - start:.1f}s]"
    )


def grid(ns, qs=Q_GRID, alphas=A_GRID):
    return [OperatorParams(n, q, alpha) for n in ns for q in qs for alpha in alphas]


def full_grid(max_n):
    return grid(range(1, max_n + 1))


def union(*grids):
    """The operators of ``grids`` in order, each once."""
    return list(dict.fromkeys(chain(*grids)))


_eigensystem = functools.cache(eigensystem)  # one build per operator for all criteria


def systems(operators):
    return list(map(_eigensystem, operators))


def assert_check(result, cases):
    """A check from verify passed over all of its ``cases``."""
    assert result.passed and result.cases == cases, result


def test_criterion_01_exact_eigen_relation():
    with criterion(1, "exact eigen relation, n <= 8"):
        assert_check(verify.check_eigen_relation(systems(full_grid(8))), 1100)


def test_criterion_02_closed_form_eigenvectors():
    with criterion(2, "closed-form low-degree eigenvectors"):
        # degree 2 for n <= 10; degree 3 at n = 3, also at q = 2/3, alpha = 2/5
        degree3 = grid([3], (F(1, 2), F(2, 3), F(1), F(3, 2)), (F(0), F(2, 5), F(1)))
        found = systems(union(full_grid(10), degree3))
        assert_check(verify.check_example_fixed_points(found), 231 + 31)
        classical = next(s for s in found if s.params == OperatorParams(3, F(1), F(1)))
        assert classical.vectors[3] == Polynomial((0, F(1, 2), F(-3, 2), 1))


def test_criterion_03_leading_coefficient_and_dual_forms():
    with criterion(3, "leading coefficient and dual eigenvalue forms"):
        operators = union(full_grid(8), grid(range(2, 9), Q_GRID_2_5, [F(2, 5)]))
        assert_check(verify.check_leading_coefficient(systems(operators)), 900 + 140)


def test_criterion_04_distinctness_monotonicity():
    with criterion(4, "eigenvalue distinctness and monotonicity, n <= 10"):
        found = systems(full_grid(10))
        assert all(s.lambdas[:2] == (1, 1) for s in found)
        assert_check(verify.check_distinctness(found), 1125)


def test_criterion_05_representation_equivalence():
    with criterion(5, "basis sum equals difference form, 30 vectors each"):
        rng = random.Random(20260810)
        for params in union(full_grid(8), grid(range(1, 8), Q_GRID_2_5, [F(2, 5)])):
            n = params.n
            xs = [F(t, 2 * n + 1) for t in range(n + 2)]
            rows = [basis_values(params, x) for x in xs]
            for _ in range(30):
                f = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
                direct = apply_to_samples(f, params)
                # both forms have degree <= n: n + 2 equal values make them equal
                for x, row in zip(xs, rows):
                    assert poly_eval(direct, x) == verify.basis_sum(f, row), (params, x)


def test_criterion_06_stirling_cross_check():
    with criterion(6, "q-Stirling explicit sum vs recurrence, k,r <= 12"):
        assert_check(verify.check_stirling_cross((*Q_GRID, F(2, 3))), 6 * 13 * 13)


def test_criterion_07_limit_convergence_q_below_1():
    with criterion(7, "limit convergence for q = 1/2 (float mode)"):
        q = 0.5
        schedule = [25, 50, 100, 200]
        alphas = [0.0, 0.5, 1.0]
        for k in range(2, 6):
            limits = limit_coeffs(q, 0.0, k).coeffs
            coeffs = {}  # (n, alpha) -> coefficient list
            for n in schedule:
                for alpha in alphas:
                    vec = eigenvector(k, OperatorParams(n, q, alpha))
                    coeffs[(n, alpha)] = [vec.coeff(j) for j in range(k + 1)]
            for alpha in alphas:
                errs = [
                    max(abs(coeffs[(n, alpha)][j] - limits[j]) for j in range(k + 1))
                    for n in schedule
                ]
                for prev, nxt in zip(errs, errs[1:]):
                    assert nxt <= prev + SLACK, (k, alpha, errs)
                assert errs[-1] < 1e-6, (k, alpha, errs)
            spreads = []
            for n in schedule:
                spreads.append(max(
                    max(coeffs[(n, a)][j] for a in alphas)
                    - min(coeffs[(n, a)][j] for a in alphas)
                    for j in range(k + 1)
                ))
            for prev, nxt in zip(spreads, spreads[1:]):
                assert nxt <= prev / 2 + SLACK, (k, spreads)


def test_criterion_08_limit_convergence_q_above_1():
    with criterion(8, "limit convergence for q in {3/2, 2} (float mode)"):
        schedule = [20, 40, 80]
        for q in [1.5, 2.0]:
            for alpha in [0.0, 0.5, 1.0]:
                for k in range(2, 5):
                    limits = limit_coeffs(q, alpha, k).coeffs
                    errs = []
                    for n in schedule:
                        vec = eigenvector(k, OperatorParams(n, q, alpha))
                        errs.append(max(
                            abs(vec.coeff(j) - limits[j]) for j in range(k + 1)
                        ))
                    for prev, nxt in zip(errs, errs[1:]):
                        assert nxt <= prev + SLACK, (q, alpha, k, errs)
                    assert errs[-1] < 1e-4, (q, alpha, k, errs)


def test_criterion_09_limit_eigenvalues():
    with criterion(9, "eigenvalue limits at n = 200 (float mode)"):
        for alpha in [0.0, 0.5, 1.0]:
            for k in range(6):
                lam = eigenvalue(k, OperatorParams(200, 0.5, alpha))
                assert abs(lam - 0.5 ** (k * (k - 1) // 2)) < 1e-8, (alpha, k)
                lam = eigenvalue(k, OperatorParams(200, 2.0, alpha))
                assert abs(lam - 1.0) < 1e-8, (alpha, k)


def test_criterion_10_operator_axioms():
    with criterion(10, "operator axioms, exact over the full grid"):
        # with alpha = 2/5, and endpoint interpolation's n = 9, 10 operators
        endpoints = [OperatorParams(n, q, alpha) for n in (9, 10)
                     for q, alpha in [(F(3, 2), F(1, 2)), (F(1, 2), F(0)), (F(1), F(1))]]
        operators = union(full_grid(8), grid(range(1, 9), Q_GRID_2_5, [F(2, 5)]), endpoints)
        assert_check(verify.check_operator_axioms(systems(operators)), 2300 + 368 + 99)


def test_criterion_11_verify_cli(corrupt_kernel, tmp_path):
    with criterion(11, "verify command: clean pass, fault caught"):
        proc = subprocess.run(
            [sys.executable, "-m", "aqbernstein", "verify"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert report["passed"] is True and report["max_n"] == 6

        # corrupt_kernel has replaced image_rows in this process only
        out = tmp_path / "report.json"
        assert main(["verify", "--max-n", "2", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed and failed[0].get("counterexample")
