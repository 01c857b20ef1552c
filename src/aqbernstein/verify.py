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

The oracle side runs on integers, as the kernels do: for q = a/b each
closed form is an integer numerator over a power of b, and the numerators
of :func:`q_integer`, :func:`q_factorial` and :func:`q_binomial` are read
into one table per q. Exact values go over one denominator
(:func:`_over_lcm`), so a polynomial is evaluated by Horner's rule on
homogeneous integers (:func:`_horner`) and a basis sum is one integer dot
product (:func:`_basis_dot`). Values are
compared on cross-multiplied integers; the Fraction-valued oracles that
the tests read (:func:`q_stirling2`, :func:`closed_form_eigenvalue`,
:func:`basis_sum`) are called for a counterexample only.

Each grid operator's image matrix, the coefficients of T(t^m) for
m = 1..n, is built once, by one :func:`~aqbernstein.bernstein.image_rows`
call on one q-Stirling triangle built to row n + 1: the eigensystem is
assembled from its rows, and the leading-coefficient check reads a(k,k)
from its diagonal. That eigensystem is shared by every check that reads
eigenvalues or eigenvectors (eigen relation, leading coefficient,
distinctness, the low-degree eigenvectors and degree reduction). The
production q-Stirling rows are built once per q, plain and in the integer
form the image kernel reads, and compared entry by entry with the explicit
sum, which reads one closed-form table of q-integers, q-factorials and
q-binomials per q; the leading-coefficient check reads one such table per
q for the closed-form eigenvalue. The representation check evaluates each
basis row once for all its sample vectors, and the axiom check reuses its
rows at x = 0 and x = 1 for endpoint interpolation. Every check
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

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from operator import mul
from typing import Sequence

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


def _closed_forms(q: Fraction, top: int) -> tuple[int, int, list[int], list[int]]:
    """The closed forms for q = a/b in lowest terms as integers, j <= top:
    a, b, and the numerators N_j = b^(j-1) [j]_q of :func:`q_integer` and
    F_j = b^(j(j-1)/2) [j]_q! = N_1 ... N_j of :func:`q_factorial`. Each
    numerator is a^m mod b, so prime to b: it is the reduced Fraction's own
    numerator."""
    N = [q_integer(j, q).numerator for j in range(top + 1)]
    F = [q_factorial(j, q).numerator for j in range(top + 1)]
    return q.numerator, q.denominator, N, F


def _sum_tables(q: Fraction, top: int) -> tuple[int, int, list[int], list[int], list[list[int]]]:
    """What the explicit q-Stirling sum reads for rows r <= top, as integers
    for q = a/b: a, b, N_j and F_j of :func:`_closed_forms`, and the rows
    P(r, i) = b^(i(r-i)) qbinom(r, i), i = 0..r, of numerators of
    :func:`q_binomial` (prime to b like N_j), each row read up to its middle
    and mirrored, as qbinom(r, i) = qbinom(r, r - i)."""
    P = []
    for r in range(top + 1):
        half = [q_binomial(r, i, q).numerator for i in range(r // 2 + 1)]
        P.append(half + half[:(r + 1) // 2][::-1])
    return (*_closed_forms(q, top), P)


def _stirling_sum(k: int, r: int, tables: tuple) -> tuple[int, int]:
    """S_q(k, r) = num / den, den > 0, by the explicit sum on the integers of
    ``tables`` (:func:`_sum_tables`, r at most its top). For 1 <= r <= k,
    with [j]_q = N_j / b^(j-1), qbinom(r, i) = P(r, i) / b^(i(r-i)) and
    [r]_q! = F_r / b^(r(r-1)/2), every power of b clears:

        num = sum_{i<r} (-1)^i a^(i(i-1)/2) P(r, i) N_(r-i)^k b^(i(k-r) + i(i+1)/2),
        den = F_r a^(r(r-1)/2) b^((r-1)(k-r));

    the term i = r holds [0]_q^k = 0. The boundary values S_q(0, 0) = 1,
    S_q(k, 0) = 0 for k > 0 and S_q(k, r) = 0 for k < r are pinned."""
    if r == 0:
        return int(k == 0), 1
    if k < r:
        return 0, 1
    a, b, N, F, P = tables
    num = 0
    for i in range(r):
        term = a ** (i * (i - 1) // 2) * P[r][i] * N[r - i] ** k
        term *= b ** (i * (k - r) + i * (i + 1) // 2)
        num = num - term if i % 2 else num + term
    return num, F[r] * a ** (r * (r - 1) // 2) * b ** ((r - 1) * (k - r))


def q_stirling2(k: int, r: int, q: Scalar, tables: tuple | None = None) -> Scalar:
    """q-Stirling number of the second kind S_q(k, r), by its explicit sum.

    S_q(k, r) = (1 / ([r]_q! q^(r(r-1)/2)))
                * sum_{i=0}^{r} (-1)^i q^(i(i-1)/2) qbinom(r, i) [r-i]_q^k.

    Boundary values are pinned before the sum is consulted: S_q(0,0) = 1,
    S_q(k,0) = 0 for k > 0, and S_q(k,r) = 0 for k < r. The sum runs on
    integers (:func:`_stirling_sum`), reading the closed-form q-integers,
    q-factorials and q-binomials of ``tables`` (from :func:`_sum_tables`,
    to row r or further), built here when not given; a caller that sums
    many (k, r) builds them once. The oracle for the production recurrence
    :func:`aqbernstein.qcalc.q_stirling2_rows`. Its alternating terms
    cancel in floats, so a float q is summed as the exact rational it is
    and the value rounded once.
    """
    if k < 0 or r < 0:
        raise ValueError(f"q-Stirling number needs k, r >= 0, got ({k}, {r})")
    if isinstance(q, float):
        return float(q_stirling2(k, r, Fraction(q)))
    return Fraction(*_stirling_sum(k, r, tables or _sum_tables(Fraction(q), r)))


@_check("stirling_cross_check")
def check_stirling_cross(q_grid: tuple[Fraction, ...]):
    """The explicit sum equals the production recurrence's rows, entry by
    entry, for 0 <= k, r <= K = STIRLING_MAX_KR, and b^(K(k-r)) times it
    equals the integer rows of the image kernel's form: the recurrence run
    on b^K [r]_q = b^(K+1-r) N_r, N_r the numerator of [r]_q for q = a/b.
    One set of each per q of ``q_grid``, and one set of the closed forms
    the explicit sum reads (:func:`_sum_tables`) per q; the sum is compared
    as the integers num / den of :func:`_stirling_sum`."""
    K = STIRLING_MAX_KR
    for q in q_grid:
        qints, b = q_integers(q, K), q.denominator
        rows = q_stirling2_rows(K, qints)
        scaled = q_stirling2_rows(K, [t.numerator * b**(K + 1 - r) for r, t in enumerate(qints)])
        tables = _sum_tables(q, K)
        for k, (row, scaled_row) in enumerate(zip(rows, scaled)):
            for r, (x, h) in enumerate(zip(row, scaled_row)):
                num, den = _stirling_sum(k, r, tables)
                # num = 0 for k < r, where any power of b serves
                yield _ce(q=q, k=k, r=r, explicit=q_stirling2(k, r, q, tables), recurrence=x,
                          scaled=h) if (num * x.denominator != x.numerator * den
                                        or h * den != num * b ** (K * max(k - r, 0))) else None


def _over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Exact ``values`` on the integers: their numerators over the lcm L of
    their denominators, and L (1 for no values); values[i] = out[i] / L."""
    L = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (L // v.denominator) for v in values], L


def _horner(coeffs: Sequence[int], X: int, Y: int) -> int:
    """Y^d p(X/Y) for p(x) = sum_j coeffs[j] x^j, d = len(coeffs) - 1 (0 for
    no coefficients), by Horner's rule on the integers: the step
    acc X + c_j Y^(d-j) keeps each partial sum Y^(d-j) times Horner's own."""
    acc, ypow = 0, 1
    for c in reversed(coeffs):
        acc = acc * X + c * ypow
        ypow *= Y
    return acc


def _basis_dot(samples: tuple[list[int], int], row: tuple[list[int], int]) -> tuple[int, int]:
    """sum_i f_i p_i(x) = S / D on the integers, from the samples f_i = F_i / L
    and the basis row p_i(x) = U_i / V over their lcms (:func:`_over_lcm`):
    S = sum_i F_i U_i and D = L V."""
    (F, L), (U, V) = samples, row
    return sum(map(mul, F, U)), L * V


def basis_sum(samples: list[Fraction], row: tuple[Fraction, ...]) -> Fraction:
    """T(f; x) as sum_i f_i p_i(x), from the basis row p_0(x)..p_n(x), summed
    on the integers (:func:`_basis_dot`)."""
    return Fraction(*_basis_dot(_over_lcm(samples), _over_lcm(row)))


@_check("representation_equivalence")
def check_representation_equivalence(grid: list[OperatorParams]):
    """The difference form and the basis sum agree at n + 2 points; both are
    polynomials of degree <= n, so they are then the same polynomial. One
    case per sample vector. At x = t/Y, Y = 2n + 1, the difference form p
    (coefficients over their lcm M) is H / (M Y^d), H = Y^d p(t/Y) by
    :func:`_horner`, and the basis sum is S / D by :func:`_basis_dot`: they
    agree when H D = S M Y^d."""
    rng = random.Random(SEED)
    for params in grid:
        Y = 2 * params.n + 1
        xs = [Fraction(t, Y) for t in range(params.n + 2)]
        rows = [basis_values(params, x) for x in xs]
        over_rows = [_over_lcm(row) for row in rows]
        for _ in range(VECTORS_PER_CASE):
            f = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(params.n + 1)
            ]
            direct = apply_to_samples(f, params)
            samples, (C, M) = _over_lcm(f), _over_lcm(direct.coeffs)
            scale = M * Y ** max(direct.degree, 0)
            for t, row in enumerate(over_rows):
                S, D = _basis_dot(samples, row)
                if _horner(C, t, Y) * D != S * scale:
                    yield _ce(n=params.n, q=params.q, alpha=params.alpha, samples=f, x=xs[t],
                              difference_form=poly_eval(direct, xs[t]),
                              basis_form=basis_sum(f, rows[t]))
                    break
            else:
                yield None


@_check("eigen_relation")
def check_eigen_relation(systems: list[EigenSystem]):
    """T p_k = lambda_k p_k, from the samples of p_k at the nodes
    [i]_q/[n]_q = X/Y, each p_k(X/Y) by :func:`_horner` on the coefficients
    over their lcm M and made one Fraction."""
    for system in systems:
        params = system.params
        nodes = sample_nodes(params)
        for k in range(params.n + 1):
            p, lam = system.vectors[k], system.lambdas[k]
            C, M = _over_lcm(p.coeffs)
            d = max(p.degree, 0)
            samples = [Fraction(_horner(C, t.numerator, t.denominator), M * t.denominator**d)
                       for t in nodes]
            image = apply_to_samples(samples, params)
            yield _ce(n=params.n, q=params.q, alpha=params.alpha, k=k, eigenvector=p,
                      image=image, eigenvalue=lam) if image != poly_scale(p, lam) else None


def _eigenvalue_ratio(k: int, params: OperatorParams, forms: tuple) -> tuple[int, int]:
    """lambda_k = num / den by the closed form, 2 <= k <= n, on the integers
    of ``forms`` (:func:`_closed_forms` of q, to 2n - 1 or further). With
    alpha = c/d in lowest terms the powers of b cancel:

        num = a^(k(k-1)/2) (F_(n-2) / F_(n-k))
              * ((d-c) N_(n-k) N_(n+k-1) + c N_n N_(n-1)),
        den = d N_n^k."""
    n, alpha = params.n, params.alpha
    a, _, N, F = forms
    c, d = alpha.numerator, alpha.denominator
    return (a ** (k * (k - 1) // 2) * (F[n - 2] // F[n - k])
            * ((d - c) * N[n - k] * N[n + k - 1] + c * N[n] * N[n - 1]), d * N[n] ** k)


def closed_form_eigenvalue(k: int, params: OperatorParams) -> Fraction:
    """The paper's closed form of lambda_k, 2 <= k <= n, exact mode only:
    q^(k(k-1)/2) [n-2]_q! / ([n-k]_q! [n]_q^k)
      * ((1-alpha) [n-k]_q [n+k-1]_q + alpha [n]_q [n-1]_q),
    made one Fraction from its integer form (:func:`_eigenvalue_ratio`)."""
    return Fraction(*_eigenvalue_ratio(k, params, _closed_forms(params.q, 2 * params.n - 1)))


@_check("leading_coefficient")
def check_leading_coefficient(systems: list[EigenSystem], diagonals: list[list[Scalar]]):
    """lambda_k (product form) equals a(k,k) of T(t^k) and the closed form;
    ``diagonals[i]`` holds a(m,m), m = 0..n, from the image matrix of
    ``systems[i]``'s operator. The closed form reads one table of
    closed-form integers per q (:func:`_closed_forms`) and is compared on
    cross-multiplied integers."""
    top = 2 * max((system.params.n for system in systems), default=1)
    forms = {}
    for system, diagonal in zip(systems, diagonals):
        params = system.params
        if params.q not in forms:
            forms[params.q] = _closed_forms(params.q, top)
        for k in range(1, params.n + 1):
            lam = system.lambdas[k]
            a_kk = diagonal[k]
            num, den = (_eigenvalue_ratio(k, params, forms[params.q]) if k >= 2
                        else (lam.numerator, lam.denominator))
            yield _ce(n=params.n, q=params.q, alpha=params.alpha, k=k, leading=a_kk,
                      closed_form=closed_form_eigenvalue(k, params) if k >= 2 else lam,
                      eigenvalue=lam) if (
                a_kk != lam or num * lam.denominator != lam.numerator * den) else None


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
    """Partition of unity and endpoint interpolation on the basis rows at
    five points, each row over its lcm (:func:`_over_lcm`) so that both are
    integer sums (:func:`_basis_dot` for the endpoints), the rows at x = 0
    and x = 1 serving both; then invariance of a t + b and degree reduction
    on monomials."""
    rng = random.Random(SEED + 1)
    xs = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    for system in systems:
        params = system.params
        at = {"n": params.n, "q": params.q, "alpha": params.alpha}
        nodes = sample_nodes(params)
        rows = [_over_lcm(basis_values(params, x)) for x in xs]
        for x, (U, V) in zip(xs, rows):
            yield _ce(axiom="partition_of_unity", **at, x=x, total=Fraction(sum(U), V)) if (
                sum(U) != V) else None
        # endpoint interpolation on a random sample vector
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(params.n + 1)]
        samples = F, L = _over_lcm(f)
        (S0, D0), (S1, D1) = _basis_dot(samples, rows[0]), _basis_dot(samples, rows[-1])
        yield _ce(axiom="endpoint_interpolation", **at, samples=f) if (
            S0 * L != F[0] * D0 or S1 * L != F[-1] * D1) else None
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
