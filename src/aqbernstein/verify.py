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
sum, which reads one closed-form table of q-integers, q-factorials,
q-binomials and q-powers per q; the representation check
evaluates each basis row once for all its sample vectors. Every check
reads the same grid objects, so each operator's q-table
(``OperatorParams.table``) and its q-binomial rows are built once.

Each check takes its inputs (a q grid, operators or their eigensystems), so
it serves both :func:`run_verify` and the acceptance tests, which pass
grids of their own. It yields its cases in a fixed order: None for a case
that holds, its counterexample in serialized form for one that does not.
The report counts a check's cases through the first failure, which ends
the check; :func:`_check` does that counting for every check. The suite is
deterministic: the random sample vectors come from fixed seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import accumulate
from operator import mul

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
        elif isinstance(value, (int, str)):
            out[key] = value
        else:
            out[key] = format_scalar(value)
    return out


def _check(name: str):
    """Make a generator of cases into the check ``name``: each case is None
    when it holds and its counterexample when it does not, and the check
    returns the CheckResult that counts the cases through the first
    counterexample, which ends the check. A call runs the whole check, so
    timing the call times the check."""

    def decorate(cases):
        @wraps(cases)
        def check(*args) -> CheckResult:
            count, counterexample = 0, None
            for counterexample in cases(*args):
                count += 1
                if counterexample is not None:
                    break
            return CheckResult(name, counterexample is None, count, counterexample)

        return check

    return decorate


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


def _sum_tables(q: Scalar, rows: range | list[int]) -> tuple[list, list, dict, list]:
    """What the explicit q-Stirling sum reads for the r in ``rows``: [j]_q
    by the closed form and [j]_q!, j <= max(rows), the q-binomial row
    qbinom(r, .) of each r, and q^(j(j-1)/2)."""
    top = max(rows)
    qints = [q_integer(j, q) for j in range(top + 1)]
    facts = list(accumulate(qints[1:], mul, initial=q * 0 + 1))
    binomials = {r: [q_binomial(r, i, q) for i in range(r + 1)] for r in rows}
    return qints, facts, binomials, [q ** (j * (j - 1) // 2) for j in range(top + 1)]


def q_stirling2(k: int, r: int, q: Scalar, tables: tuple[list, list, dict, list] | None = None
                ) -> Scalar:
    """q-Stirling number of the second kind S_q(k, r), by its explicit sum.

    S_q(k, r) = (1 / ([r]_q! q^(r(r-1)/2)))
                * sum_{i=0}^{r} (-1)^i q^(i(i-1)/2) qbinom(r, i) [r-i]_q^k.

    Boundary values are pinned before the sum is consulted: S_q(0,0) = 1,
    S_q(k,0) = 0 for k > 0, and S_q(k,r) = 0 for k < r. The sum reads the
    closed-form q-integers, q-factorials, q-binomials and q-powers of
    ``tables`` (from :func:`_sum_tables`, with r among its rows), built here
    when not given; a caller that sums many (k, r) builds them once. The
    oracle for the production recurrence
    :func:`aqbernstein.qcalc.q_stirling2_rows`; its alternating terms cancel
    in floats, so it is meant for exact mode.
    """
    if k < 0 or r < 0:
        raise ValueError(f"q-Stirling number needs k, r >= 0, got ({k}, {r})")
    if r == 0:
        return q * 0 + 1 if k == 0 else q * 0
    if k < r:
        return q * 0
    qints, facts, binomials, tri = tables or _sum_tables(q, [r])
    total = q * 0
    for i, binomial in enumerate(binomials[r]):
        term = tri[i] * binomial * qints[r - i] ** k
        total = total - term if i % 2 else total + term
    return total / (facts[r] * tri[r])


@_check("stirling_cross_check")
def check_stirling_cross(q_grid: tuple[Fraction, ...]):
    """The explicit sum equals the production recurrence's rows, entry by
    entry, for 0 <= k, r <= K = STIRLING_MAX_KR, and b^(K(k-r)) times it
    equals the integer rows of the image kernel's form: the recurrence run
    on b^K [r]_q = b^(K+1-r) N_r, N_r the numerator of [r]_q for q = a/b.
    One set of each per q of ``q_grid``, and one set of the closed forms
    the explicit sum reads (:func:`_sum_tables`) per q."""
    K = STIRLING_MAX_KR
    for q in q_grid:
        qints, b = q_integers(q, K), q.denominator
        rows = q_stirling2_rows(K, qints)
        scaled = q_stirling2_rows(K, [t.numerator * b**(K + 1 - r) for r, t in enumerate(qints)])
        tables = _sum_tables(q, range(K + 1))
        for k, (row, scaled_row) in enumerate(zip(rows, scaled)):
            for r, (x, h) in enumerate(zip(row, scaled_row)):
                a = q_stirling2(k, r, q, tables)
                yield _ce(q=q, k=k, r=r, explicit=a, recurrence=x, scaled=h) if (
                    a != x or h != a * Fraction(b) ** (K * (k - r))) else None


def basis_sum(samples: list[Scalar], row: tuple[Scalar, ...]) -> Scalar:
    """T(f; x) as sum_i f_i p_i(x), from the basis row p_0(x)..p_n(x)."""
    return sum(fi * b for fi, b in zip(samples, row))


@_check("representation_equivalence")
def check_representation_equivalence(grid: list[OperatorParams]):
    """The difference form and the basis sum agree at n + 2 points; both are
    polynomials of degree <= n, so they are then the same polynomial. One
    case per sample vector."""
    rng = random.Random(SEED)
    for params in grid:
        xs = [Fraction(t, 2 * params.n + 1) for t in range(params.n + 2)]
        rows = [basis_values(params, x) for x in xs]
        for _ in range(VECTORS_PER_CASE):
            f = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(params.n + 1)
            ]
            direct = apply_to_samples(f, params)
            for x, row in zip(xs, rows):
                via_difference = poly_eval(direct, x)
                via_basis = basis_sum(f, row)
                if via_difference != via_basis:
                    yield _ce(n=params.n, q=params.q, alpha=params.alpha, samples=f, x=x,
                              difference_form=via_difference, basis_form=via_basis)
                    break
            else:
                yield None


@_check("eigen_relation")
def check_eigen_relation(systems: list[EigenSystem]):
    for system in systems:
        params = system.params
        nodes = sample_nodes(params)
        for k in range(params.n + 1):
            p, lam = system.vectors[k], system.lambdas[k]
            image = apply_to_samples([poly_eval(p, t) for t in nodes], params)
            yield _ce(n=params.n, q=params.q, alpha=params.alpha, k=k, eigenvector=p,
                      image=image, eigenvalue=lam) if image != poly_scale(p, lam) else None


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


@_check("leading_coefficient")
def check_leading_coefficient(systems: list[EigenSystem], diagonals: list[list[Scalar]]):
    """lambda_k (product form) equals a(k,k) of T(t^k) and the closed form;
    ``diagonals[i]`` holds a(m,m), m = 0..n, from the image matrix of
    ``systems[i]``'s operator."""
    for system, diagonal in zip(systems, diagonals):
        params = system.params
        for k in range(1, params.n + 1):
            lam = system.lambdas[k]
            a_kk = diagonal[k]
            closed = closed_form_eigenvalue(k, params) if k >= 2 else lam
            yield _ce(n=params.n, q=params.q, alpha=params.alpha, k=k, leading=a_kk,
                      closed_form=closed, eigenvalue=lam) if a_kk != lam or closed != lam else None


@_check("distinctness")
def check_distinctness(systems: list[EigenSystem]):
    for system in systems:
        params, lams = system.params, system.lambdas
        for k in range(2, params.n + 1):
            yield _ce(n=params.n, q=params.q, alpha=params.alpha, k=k, lambdas=lams) if (
                not lams[k] < lams[k - 1] or lams[k] < 0) else None


@_check("example_fixed_points")
def check_example_fixed_points(systems: list[EigenSystem]):
    """Degree 2 is t^2 - t for every n >= 2; degree 3 at n = 3 has the
    closed form below."""
    for system in systems:
        params = system.params
        if params.n >= 2:
            yield _ce(n=params.n, q=params.q, alpha=params.alpha, degree2=system.vectors[2]) if (
                system.vectors[2] != Polynomial((0, -1, 1))) else None
    for system in systems:
        if system.params.n != 3:
            continue
        q, alpha = system.params.q, system.params.alpha
        den = (1 - alpha) * q**4 + q**3 + 2 * q**2 + (1 + alpha) * q + 1
        a2 = -((1 - alpha) * q**4 + (2 - alpha) * q**3 + 3 * q**2
               + (2 * alpha + 1) * q + 2) / den
        a1 = ((1 - alpha) * q**3 + q**2 + alpha * q + 1) / den
        expected = Polynomial((Fraction(0), a1, a2, Fraction(1)))
        got = system.vectors[3]
        yield _ce(q=q, alpha=alpha, degree3=got, expected=expected) if got != expected else None


@_check("operator_axioms")
def check_operator_axioms(systems: list[EigenSystem]):
    rng = random.Random(SEED + 1)
    xs = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    for system in systems:
        params = system.params
        at = {"n": params.n, "q": params.q, "alpha": params.alpha}
        nodes = sample_nodes(params)
        for x in xs:
            total = sum(basis_values(params, x))
            yield _ce(axiom="partition_of_unity", **at, x=x, total=total) if total != 1 else None
        # endpoint interpolation on a random sample vector
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(params.n + 1)]
        yield _ce(axiom="endpoint_interpolation", **at, samples=f) if (
            basis_sum(f, basis_values(params, Fraction(0))) != f[0]
            or basis_sum(f, basis_values(params, Fraction(1))) != f[-1]) else None
        # invariance of a t + b
        a_, b_ = Fraction(rng.randint(-5, 5), rng.randint(1, 5)), Fraction(
            rng.randint(-5, 5), rng.randint(1, 5))
        image = apply_to_samples([a_ * t + b_ for t in nodes], params)
        yield _ce(axiom="linear_invariance", **at, a=a_, b=b_, image=image) if (
            image != Polynomial((b_, a_))) else None
        # degree reduction on monomials
        for k in range(1, params.n + 1):
            image = apply_to_samples([t**k for t in nodes], params)
            lam = system.lambdas[k]
            bad = image.degree > k or (lam != 0 and image.degree != k)
            yield _ce(axiom="degree_reduction", **at, k=k, image=image) if bad else None


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
        check_stirling_cross(Q_GRID),
        check_representation_equivalence(grid),
        check_eigen_relation(systems),
        check_leading_coefficient(systems, [diagonal for _, diagonal in matrices]),
        check_distinctness(systems),
        check_example_fixed_points(systems),
        check_operator_axioms(systems),
    )
    return VerifyReport(all(c.passed for c in checks), max_n, checks)
