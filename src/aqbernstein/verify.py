"""Exact-mode verification suite.

Runs the library's independent-oracle checks over a (q, alpha) grid and all
degrees n up to a cap: the two operator representations agree, eigenvectors
satisfy the eigen relation exactly, the production eigenvalues (product
form) equal the leading monomial-image coefficient and the paper's closed
form (the oracle, in q-factorials), eigenvalues are strictly
decreasing from k = 1, the two q-Stirling computation paths agree, the
closed-form low-degree eigenvectors come out, and the operator axioms
(endpoint interpolation, invariance of a t + b, degree reduction, partition
of unity) hold.

Each grid operator's monomial images T(t^m), m = 1..n, are built once: the
eigensystem is assembled from them, and the leading-coefficient check reads
a(k,k) from the same images. That eigensystem is shared by every check that
reads eigenvalues or eigenvectors (eigen relation, leading coefficient,
distinctness, the low-degree eigenvectors and degree reduction). The
q-Stirling recurrence table is built once per q and compared entry by entry
with the explicit sum, and the representation check evaluates each basis
row once for all its sample vectors.

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
    MonomialImage,
    OperatorParams,
    apply_pointwise,
    apply_to_samples,
    basis_values,
    sample_nodes,
)
from .eigen import EigenSystem, eigensystem_from_images, monomial_images
from .polynomials import Polynomial, poly_eval, poly_fit, poly_scale
from .qcalc import q_factorial, q_integer, q_stirling2
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


def q_stirling2_table(size: int, q: Scalar) -> tuple[tuple[Scalar, ...], ...]:
    """S_q(k, r) for 0 <= k, r <= size as ``table[k][r]``, by the recurrence
    S_q(k+1, r) = S_q(k, r-1) + [r]_q S_q(k, r) from S_q(0, r) = [r = 0].

    An independent computation path kept solely for cross-checking the
    explicit sum :func:`aqbernstein.qcalc.q_stirling2`.
    """
    zero = q * 0
    qints = [q_integer(m, q) for m in range(size + 1)]
    row = [zero + 1] + [zero] * size
    table = [tuple(row)]
    for _ in range(size):
        row = [zero] + [row[r - 1] + qints[r] * row[r] for r in range(1, size + 1)]
        table.append(tuple(row))
    return tuple(table)


def check_stirling_cross() -> CheckResult:
    cases = 0
    for q in Q_GRID:
        table = q_stirling2_table(STIRLING_MAX_KR, q)
        for k in range(STIRLING_MAX_KR + 1):
            for r in range(STIRLING_MAX_KR + 1):
                cases += 1
                a = q_stirling2(k, r, q)
                b = table[k][r]
                if a != b:
                    return CheckResult(
                        "stirling_cross_check",
                        False,
                        cases,
                        _ce(q=q, k=k, r=r, explicit=a, recurrence=b),
                    )
    return CheckResult("stirling_cross_check", True, cases, None)


def check_representation_equivalence(max_n: int) -> CheckResult:
    rng = random.Random(SEED)
    cases = 0
    for params in _grid(max_n):
        xs = [Fraction(t, 2 * params.n + 1) for t in range(params.n + 2)]
        rows = [basis_values(params, x) for x in xs]
        for _ in range(VECTORS_PER_CASE):
            f = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(params.n + 1)
            ]
            cases += 1
            direct = apply_to_samples(f, params)
            pts = [(x, sum(fi * b for fi, b in zip(f, row)))
                   for x, row in zip(xs, rows)]
            fitted = poly_fit(pts, params.n)
            if direct != fitted:
                return CheckResult(
                    "representation_equivalence",
                    False,
                    cases,
                    _ce(
                        n=params.n,
                        q=params.q,
                        alpha=params.alpha,
                        samples=f,
                        difference_form=direct,
                        basis_form=fitted,
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
    systems: list[EigenSystem], images: list[dict[int, MonomialImage]]
) -> CheckResult:
    """lambda_k (product form) equals a(k,k) of T(t^k) and the closed form;
    ``images[i]`` holds the monomial images of ``systems[i]``'s operator."""
    cases = 0
    for system, system_images in zip(systems, images):
        params = system.params
        for k in range(1, params.n + 1):
            cases += 1
            lam = system.lambdas[k]
            a_kk = system_images[k].coeffs[k]
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
        if (apply_pointwise(f, params, Fraction(0)) != f[0]
                or apply_pointwise(f, params, Fraction(1)) != f[-1]):
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

    The monomial images of each grid operator are built once; its
    eigensystem is assembled from them, and both are shared by the checks
    that read them.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    grid = list(_grid(max_n))
    images = [monomial_images(params, params.n) for params in grid]
    systems = [
        eigensystem_from_images(params, system_images)
        for params, system_images in zip(grid, images)
    ]
    checks = (
        check_stirling_cross(),
        check_representation_equivalence(max_n),
        check_eigen_relation(systems),
        check_leading_coefficient(systems, images),
        check_distinctness(systems),
        check_example_fixed_points(systems),
        check_operator_axioms(systems),
    )
    return VerifyReport(all(c.passed for c in checks), max_n, checks)
