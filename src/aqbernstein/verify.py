"""Exact-mode verification suite.

Runs the library's independent-oracle checks over a (q, alpha) grid and all
degrees n up to a cap: the two operator representations agree, eigenvectors
satisfy the eigen relation exactly, the production eigenvalues (product
form) equal the leading monomial-image coefficient and the paper's closed
form (the oracle, in q-factorials), eigenvalues are strictly
decreasing from k = 1, the production q-Stirling recurrence agrees with the
explicit sum, the closed-form low-degree eigenvectors come out, and the
operator axioms (endpoint interpolation, invariance of a t + b, degree
reduction, partition of unity) hold.

The oracles that exist only to be compared against live here: the closed
form (q^n - 1)/(q - 1) of the q-integers, the explicit alternating sum for
the q-Stirling numbers, and the q-factorials and q-binomials it and the
closed-form eigenvalue are built from. Production computes the q-integers
one way only, by :func:`aqbernstein.qcalc.q_integers`, and the q-Stirling
numbers one way only, by :func:`aqbernstein.qcalc.q_stirling2_rows`.

Each grid operator's image matrix, the coefficients of T(t^m) for
m = 1..n, is built once, by one :func:`~aqbernstein.bernstein.image_rows`
call on one q-Stirling triangle built to row n + 1: the eigensystem is
assembled from its rows, and the leading-coefficient check reads a(k,k)
from its diagonal. That eigensystem is shared by every check that reads
eigenvalues or eigenvectors (eigen relation, leading coefficient,
distinctness, the low-degree eigenvectors and degree reduction). The
production q-Stirling rows are built once per q, plain and in the integer
form the image kernel reads, and compared entry by entry with the explicit
sum, and the representation check
evaluates each basis row once for all its sample vectors. Every check
reads the same grid objects, so each operator's q-table
(``OperatorParams.table``) and its q-binomial rows are built once.

Every check reports its case count and, on failure, the first
counterexample in serialized form. The suite is deterministic: the random
sample vectors used by the representation-equivalence check come from a
fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .bernstein import (
    OperatorParams,
    apply_to_samples,
    basis_values,
    image_rows,
    sample_nodes,
)
from .eigen import EigenSystem, eigensystem_from_rows
from .polynomials import Polynomial, poly_eval, poly_scale
from .qcalc import q_integers, q_stirling2_rows
from .scalars import Scalar, format_scalar

Q_GRID = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
ALPHA_GRID = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)
SEED = 20260801
VECTORS_PER_CASE = 3  # random sample vectors per case of the representation check
STIRLING_MAX_KR = 12  # the Stirling cross-check covers 0 <= k, r <= this


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    counterexample: dict | None

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "cases": self.cases}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    max_n: int
    checks: tuple[CheckResult, ...]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_n": self.max_n,
            "checks": [c.as_dict() for c in self.checks],
        }


def _ce(**fields) -> dict:
    out = {}
    for key, value in fields.items():
        if isinstance(value, Polynomial):
            out[key] = [format_scalar(c) for c in value.coeffs]
        elif isinstance(value, (list, tuple)):
            out[key] = [format_scalar(v) for v in value]
        elif isinstance(value, int):
            out[key] = value
        else:
            out[key] = format_scalar(value)
    return out


def _grid(max_n: int):
    for n in range(1, max_n + 1):
        for q in Q_GRID:
            for alpha in ALPHA_GRID:
                yield OperatorParams(n, q, alpha)


def q_integer(n: int, q: Scalar) -> Scalar:
    """[n]_q = 1 + q + ... + q^(n-1), with [0]_q = 0, by the closed form
    (q^n - 1)/(q - 1); the oracle for :func:`aqbernstein.qcalc.q_integers`."""
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    if n < 0:
        raise ValueError(f"q-integer needs n >= 0, got {n}")
    if n == 0:
        return q * 0
    if q == 1:
        return q * 0 + n
    return (q**n - 1) / (q - 1)


def q_factorial(n: int, q: Scalar) -> Scalar:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    out = q * 0 + 1
    for m in range(1, n + 1):
        out = out * q_integer(m, q)
    return out


def q_binomial(n: int, k: int, q: Scalar) -> Scalar:
    """q-binomial coefficient, extended by 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return q * 0
    k = min(k, n - k)
    out = q * 0 + 1
    for i in range(1, k + 1):
        out = out * q_integer(n - k + i, q) / q_integer(i, q)
    return out


def q_stirling2(k: int, r: int, q: Scalar) -> Scalar:
    """q-Stirling number of the second kind S_q(k, r), by its explicit sum.

    S_q(k, r) = (1 / ([r]_q! q^(r(r-1)/2)))
                * sum_{i=0}^{r} (-1)^i q^(i(i-1)/2) qbinom(r, i) [r-i]_q^k.

    Boundary values are pinned before the sum is consulted: S_q(0,0) = 1,
    S_q(k,0) = 0 for k > 0, and S_q(k,r) = 0 for k < r. The oracle for the
    production recurrence :func:`aqbernstein.qcalc.q_stirling2_rows`; its
    alternating terms cancel in floats, so it is meant for exact mode.
    """
    if k < 0 or r < 0:
        raise ValueError(f"q-Stirling number needs k, r >= 0, got ({k}, {r})")
    if r == 0:
        return q * 0 + 1 if k == 0 else q * 0
    if k < r:
        return q * 0
    total = q * 0
    for i in range(r + 1):
        term = q ** (i * (i - 1) // 2) * q_binomial(r, i, q) * q_integer(r - i, q) ** k
        total = total - term if i % 2 else total + term
    return total / (q_factorial(r, q) * q ** (r * (r - 1) // 2))


def check_stirling_cross() -> CheckResult:
    """The explicit sum equals the production recurrence's rows, entry by
    entry, for 0 <= k, r <= K = STIRLING_MAX_KR, and b^(K(k-r)) times it
    equals the integer rows of the image kernel's form: the recurrence run
    on b^K [r]_q = b^(K+1-r) N_r, N_r the numerator of [r]_q for q = a/b.
    One set of each per q."""
    cases, K = 0, STIRLING_MAX_KR
    for q in Q_GRID:
        qints, b = q_integers(q, K), q.denominator
        rows = q_stirling2_rows(K, qints)
        scaled = q_stirling2_rows(K, [t.numerator * b**(K + 1 - r) for r, t in enumerate(qints)])
        for k, (row, scaled_row) in enumerate(zip(rows, scaled)):
            for r, (x, h) in enumerate(zip(row, scaled_row)):
                cases += 1
                a = q_stirling2(k, r, q)
                if a != x or h != a * Fraction(b) ** (K * (k - r)):
                    return CheckResult("stirling_cross_check", False, cases, _ce(
                        q=q, k=k, r=r, explicit=a, recurrence=x, scaled=h))
    return CheckResult("stirling_cross_check", True, cases, None)


def _basis_sum(samples: list[Scalar], row: tuple[Scalar, ...]) -> Scalar:
    """T(f; x) as sum_i f_i p_i(x), from the basis row p_0(x)..p_n(x)."""
    return sum(fi * b for fi, b in zip(samples, row))


def check_representation_equivalence(grid: list[OperatorParams]) -> CheckResult:
    """The difference form and the basis sum agree at n + 2 points; both are
    polynomials of degree <= n, so they are then the same polynomial."""
    rng = random.Random(SEED)
    cases = 0
    for params in grid:
        xs = [Fraction(t, 2 * params.n + 1) for t in range(params.n + 2)]
        rows = [basis_values(params, x) for x in xs]
        for _ in range(VECTORS_PER_CASE):
            f = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(params.n + 1)
            ]
            cases += 1
            direct = apply_to_samples(f, params)
            for x, row in zip(xs, rows):
                via_difference = poly_eval(direct, x)
                via_basis = _basis_sum(f, row)
                if via_difference != via_basis:
                    return CheckResult(
                        "representation_equivalence",
                        False,
                        cases,
                        _ce(
                            n=params.n,
                            q=params.q,
                            alpha=params.alpha,
                            samples=f,
                            x=x,
                            difference_form=via_difference,
                            basis_form=via_basis,
                        ),
                    )
    return CheckResult("representation_equivalence", True, cases, None)


def check_eigen_relation(systems: list[EigenSystem]) -> CheckResult:
    cases = 0
    for system in systems:
        params = system.params
        nodes = sample_nodes(params)
        for k in range(params.n + 1):
            cases += 1
            p = system.vectors[k]
            image = apply_to_samples([poly_eval(p, t) for t in nodes], params)
            if image != poly_scale(p, system.lambdas[k]):
                return CheckResult(
                    "eigen_relation",
                    False,
                    cases,
                    _ce(
                        n=params.n,
                        q=params.q,
                        alpha=params.alpha,
                        k=k,
                        eigenvector=p,
                        image=image,
                        eigenvalue=system.lambdas[k],
                    ),
                )
    return CheckResult("eigen_relation", True, cases, None)


def closed_form_eigenvalue(k: int, params: OperatorParams) -> Fraction:
    """The paper's closed form of lambda_k, 2 <= k <= n, exact mode only:
    q^(k(k-1)/2) [n-2]_q! / ([n-k]_q! [n]_q^k)
      * ((1-alpha) [n-k]_q [n+k-1]_q + alpha [n]_q [n-1]_q)."""
    n, q, alpha = params.n, params.q, params.alpha
    dn = q_integer(n, q)
    return (
        q ** (k * (k - 1) // 2)
        * q_factorial(n - 2, q)
        / (q_factorial(n - k, q) * dn**k)
        * ((1 - alpha) * q_integer(n - k, q) * q_integer(n + k - 1, q)
           + alpha * dn * q_integer(n - 1, q))
    )


def check_leading_coefficient(
    systems: list[EigenSystem], diagonals: list[list[Scalar]]
) -> CheckResult:
    """lambda_k (product form) equals a(k,k) of T(t^k) and the closed form;
    ``diagonals[i]`` holds a(m,m), m = 0..n, from the image matrix of
    ``systems[i]``'s operator."""
    cases = 0
    for system, diagonal in zip(systems, diagonals):
        params = system.params
        for k in range(1, params.n + 1):
            cases += 1
            lam = system.lambdas[k]
            a_kk = diagonal[k]
            closed = closed_form_eigenvalue(k, params) if k >= 2 else lam
            if a_kk != lam or closed != lam:
                return CheckResult(
                    "leading_coefficient",
                    False,
                    cases,
                    _ce(n=params.n, q=params.q, alpha=params.alpha, k=k,
                        leading=a_kk, closed_form=closed, eigenvalue=lam),
                )
    return CheckResult("leading_coefficient", True, cases, None)


def check_distinctness(systems: list[EigenSystem]) -> CheckResult:
    cases = 0
    for system in systems:
        params, lams = system.params, system.lambdas
        for k in range(2, params.n + 1):
            cases += 1
            if not lams[k] < lams[k - 1] or lams[k] < 0:
                return CheckResult(
                    "distinctness",
                    False,
                    cases,
                    _ce(n=params.n, q=params.q, alpha=params.alpha, k=k,
                        lambdas=lams),
                )
    return CheckResult("distinctness", True, cases, None)


def check_example_fixed_points(systems: list[EigenSystem]) -> CheckResult:
    """Degree 2 is t^2 - t for every n >= 2; degree 3 at n = 3 has the
    closed form below."""
    cases = 0
    for system in systems:
        params = system.params
        if params.n < 2:
            continue
        cases += 1
        if system.vectors[2] != Polynomial((0, -1, 1)):
            return CheckResult(
                "example_fixed_points",
                False,
                cases,
                _ce(n=params.n, q=params.q, alpha=params.alpha,
                    degree2=system.vectors[2]),
            )
    for system in systems:
        if system.params.n != 3:
            continue
        cases += 1
        q, alpha = system.params.q, system.params.alpha
        den = (1 - alpha) * q**4 + q**3 + 2 * q**2 + (1 + alpha) * q + 1
        a2 = -((1 - alpha) * q**4 + (2 - alpha) * q**3 + 3 * q**2
               + (2 * alpha + 1) * q + 2) / den
        a1 = ((1 - alpha) * q**3 + q**2 + alpha * q + 1) / den
        expected = Polynomial((Fraction(0), a1, a2, Fraction(1)))
        got = system.vectors[3]
        if got != expected:
            return CheckResult(
                "example_fixed_points",
                False,
                cases,
                _ce(q=q, alpha=alpha, degree3=got, expected=expected),
            )
    return CheckResult("example_fixed_points", True, cases, None)


def check_operator_axioms(systems: list[EigenSystem]) -> CheckResult:
    rng = random.Random(SEED + 1)
    cases = 0
    xs = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    for system in systems:
        params = system.params
        nodes = sample_nodes(params)
        # partition of unity
        for x in xs:
            cases += 1
            total = sum(basis_values(params, x))
            if total != 1:
                return CheckResult(
                    "operator_axioms", False, cases,
                    _ce(axiom="partition_of_unity", n=params.n, q=params.q,
                        alpha=params.alpha, x=x, total=total),
                )
        # endpoint interpolation on a random sample vector
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(params.n + 1)]
        cases += 1
        if (_basis_sum(f, basis_values(params, Fraction(0))) != f[0]
                or _basis_sum(f, basis_values(params, Fraction(1))) != f[-1]):
            return CheckResult(
                "operator_axioms", False, cases,
                _ce(axiom="endpoint_interpolation", n=params.n, q=params.q,
                    alpha=params.alpha, samples=f),
            )
        # invariance of a t + b
        a_, b_ = Fraction(rng.randint(-5, 5), rng.randint(1, 5)), Fraction(
            rng.randint(-5, 5), rng.randint(1, 5))
        cases += 1
        image = apply_to_samples([a_ * t + b_ for t in nodes], params)
        if image != Polynomial((b_, a_)):
            return CheckResult(
                "operator_axioms", False, cases,
                _ce(axiom="linear_invariance", n=params.n, q=params.q,
                    alpha=params.alpha, a=a_, b=b_, image=image),
            )
        # degree reduction on monomials
        for k in range(1, params.n + 1):
            cases += 1
            image = apply_to_samples([t**k for t in nodes], params)
            lam = system.lambdas[k]
            bad = image.degree > k or (lam != 0 and image.degree != k)
            if bad:
                return CheckResult(
                    "operator_axioms", False, cases,
                    _ce(axiom="degree_reduction", n=params.n, q=params.q,
                        alpha=params.alpha, k=k, image=image),
                )
    return CheckResult("operator_axioms", True, cases, None)


def run_verify(max_n: int = 6) -> VerifyReport:
    """Run every check; the report carries one result per check.

    The image matrix of each grid operator is built by one ``image_rows``
    call; its eigensystem is assembled from the rows, and both are shared
    by the checks that read them. Every check takes the
    grid's own objects, so each operator's q-table is built once.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    grid = list(_grid(max_n))
    matrices = [image_rows(params, params.n) for params in grid]
    systems = [eigensystem_from_rows(params, rows) for params, (rows, _) in zip(grid, matrices)]
    checks = (
        check_stirling_cross(),
        check_representation_equivalence(grid),
        check_eigen_relation(systems),
        check_leading_coefficient(systems, [diagonal for _, diagonal in matrices]),
        check_distinctness(systems),
        check_example_fixed_points(systems),
        check_operator_axioms(systems),
    )
    return VerifyReport(all(c.passed for c in checks), max_n, checks)
