"""Acceptance gate: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (the lines print regardless; ``-s`` shows them live).
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from aqbernstein.asymptotics import limit_coeffs
from aqbernstein.bernstein import (
    OperatorParams,
    apply_to_samples,
    basis_values,
    monomial_image,
    sample_nodes,
)
from aqbernstein.cli import main
from aqbernstein.eigen import eigensystem, eigenvalue, eigenvector
from aqbernstein.polynomials import Polynomial, poly_eval, poly_scale
from aqbernstein.qcalc import q_stirling2_rows
from aqbernstein.verify import closed_form_eigenvalue, q_integer, q_stirling2
from test_operator import basis_sum

F = Fraction
Q_GRID = [F(1, 3), F(1, 2), F(1), F(3, 2), F(2)]
A_GRID = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
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


def full_grid(max_n):
    for n in range(1, max_n + 1):
        for q in Q_GRID:
            for alpha in A_GRID:
                yield OperatorParams(n, q, alpha)


def test_criterion_01_exact_eigen_relation():
    with criterion(1, "exact eigen relation, n <= 8"):
        for params in full_grid(8):
            system = eigensystem(params)
            nodes = sample_nodes(params)
            for k in range(params.n + 1):
                p = system.vectors[k]
                image = apply_to_samples([poly_eval(p, t) for t in nodes], params)
                assert image == poly_scale(p, system.lambdas[k]), (params, k)


def test_criterion_02_closed_form_eigenvectors():
    with criterion(2, "closed-form low-degree eigenvectors"):
        x2_minus_x = Polynomial((0, -1, 1))
        for n in range(2, 11):
            for q in Q_GRID:
                for alpha in A_GRID:
                    assert eigenvector(2, OperatorParams(n, q, alpha)) == x2_minus_x
        for q in [F(1, 2), F(2, 3), F(1), F(3, 2)]:
            for alpha in [F(0), F(2, 5), F(1)]:
                den = (1 - alpha) * q**4 + q**3 + 2 * q**2 + (1 + alpha) * q + 1
                a2 = -((1 - alpha) * q**4 + (2 - alpha) * q**3 + 3 * q**2
                       + (2 * alpha + 1) * q + 2) / den
                a1 = ((1 - alpha) * q**3 + q**2 + alpha * q + 1) / den
                got = eigenvector(3, OperatorParams(3, q, alpha))
                assert got.coeffs == (F(0), a1, a2, F(1)), (q, alpha)
        assert eigenvector(3, OperatorParams(3, F(1), F(1))) == \
            Polynomial((0, F(1, 2), F(-3, 2), 1))


def test_criterion_03_leading_coefficient_and_dual_forms():
    with criterion(3, "leading coefficient and dual eigenvalue forms"):
        for params in full_grid(8):
            for k in range(2, params.n + 1):
                lam = eigenvalue(k, params)
                assert monomial_image(k, params).coeffs[k] == lam, (params, k)
                assert closed_form_eigenvalue(k, params) == lam, (params, k)


def test_criterion_04_distinctness_monotonicity():
    with criterion(4, "eigenvalue distinctness and monotonicity, n <= 10"):
        for n in range(2, 11):
            for q in Q_GRID:
                for alpha in A_GRID:
                    params = OperatorParams(n, q, alpha)
                    lams = [eigenvalue(k, params) for k in range(n + 1)]
                    assert lams[0] == 1 and lams[1] == 1
                    for k in range(2, n + 1):
                        assert lams[k] < lams[k - 1], (n, q, alpha, k)
                    assert lams[n] >= 0


def test_criterion_05_representation_equivalence():
    with criterion(5, "basis sum equals difference form, 30 vectors each"):
        rng = random.Random(20260810)
        for params in full_grid(8):
            n = params.n
            xs = [F(t, 2 * n + 1) for t in range(n + 2)]
            rows = [basis_values(params, x) for x in xs]
            for _ in range(30):
                f = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
                direct = apply_to_samples(f, params)
                # both forms have degree <= n: n + 2 equal values make them equal
                for x, row in zip(xs, rows):
                    assert poly_eval(direct, x) == basis_sum(f, row), (params, x)


def test_criterion_06_stirling_cross_check():
    with criterion(6, "q-Stirling explicit sum vs recurrence, k,r <= 12"):
        for q in Q_GRID:
            rows = q_stirling2_rows(12, [q_integer(m, q) for m in range(13)])
            for k, row in enumerate(rows):
                for r, value in enumerate(row):
                    assert q_stirling2(k, r, q) == value, (q, k, r)


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
        rng = random.Random(20260811)
        xs = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        for params in full_grid(8):
            n = params.n
            nodes = sample_nodes(params)
            for x in xs:
                assert sum(basis_values(params, x)) == 1, (params, x)
            f = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
            assert basis_sum(f, basis_values(params, F(0))) == f[0]
            assert basis_sum(f, basis_values(params, F(1))) == f[-1]
            a = F(rng.randint(-5, 5), rng.randint(1, 5))
            b = F(rng.randint(-5, 5), rng.randint(1, 5))
            assert apply_to_samples([a * t + b for t in nodes], params) == \
                Polynomial((b, a))
            for k in range(1, n + 1):
                image = apply_to_samples([t**k for t in nodes], params)
                assert image.degree <= k
                if eigenvalue(k, params) != 0:
                    assert image.degree == k


def test_criterion_11_verify_cli(corrupt_kernel, tmp_path):
    with criterion(11, "verify command: clean pass, fault caught"):
        proc = subprocess.run(
            [sys.executable, "-m", "aqbernstein", "verify"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(proc.stdout)
        assert report["passed"] is True and report["max_n"] == 6

        # corrupt_kernel has replaced monomial_image in this process only
        out = tmp_path / "report.json"
        assert main(["verify", "--max-n", "2", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed and failed[0].get("counterexample")
