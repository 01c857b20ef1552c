"""Correctness checks for the benchmark's outputs.

Every check returns a list of problems; an empty list means the output
passed. The checks compare against independent computations written here
(q-integers by summation, the product form of the eigenvalues, q-Stirling
numbers by recurrence, Horner evaluation) or against properties the method
must have. None of them compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import aqbernstein as api

# A float result passes when it is within FLOAT_REL_TOL of the exact value,
# or within FLOAT_ABS_TOL where the exact value is 0 or tiny.
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12

VERIFY_CHECK_COUNT = 7


def q_integers(m_max: int, q: Fraction) -> list[Fraction]:
    """[0]_q .. [m_max]_q by summation of powers of q."""
    out = [Fraction(0)]
    power = Fraction(1)
    for _ in range(m_max):
        out.append(out[-1] + power)
        power *= q
    return out


def product_form_eigenvalues(n: int, q: Fraction, alpha: Fraction) -> list[Fraction]:
    """lambda_0..lambda_n from the product form

    lambda_k = (alpha + (1-alpha) [n-k][n+k-1] / ([n][n-1]))
               * prod_{m=1}^{k-1} (1 - [m]/[n]),   lambda_0 = lambda_1 = 1.
    """
    qi = q_integers(2 * n, q)
    lams = [Fraction(1)] * min(n + 1, 2)
    prod = Fraction(1)
    for k in range(2, n + 1):
        prod *= 1 - qi[k - 1] / qi[n]
        u = alpha + (1 - alpha) * qi[n - k] * qi[n + k - 1] / (qi[n] * qi[n - 1])
        lams.append(u * prod)
    return lams


def horner(coeffs, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _padded(coeffs, length):
    return list(coeffs) + [0] * (length - len(coeffs))


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among exact values."""
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length())
         for v in values if isinstance(v, Fraction)),
        default=0,
    )


def system_values(system):
    yield from system.lambdas
    for p in system.vectors:
        yield from p.coeffs


def exact_eigensystem(system) -> list[str]:
    """Exact eigensystem of T_{n,q,alpha} for alpha in [0,1].

    Checks that every p_k is monic of degree k, that p_2 = x^2 - x, that
    lambda_k equals the product form, that the lambda_k strictly decrease
    from k = 1, and that T(p_k) = lambda_k p_k exactly, where T is applied
    by the forward-difference route to samples of p_k at the nodes.
    """
    params = system.params
    n, q, alpha = params.n, params.q, params.alpha
    problems = []
    if len(system.lambdas) != n + 1 or len(system.vectors) != n + 1:
        return [f"expected {n + 1} eigenpairs, got "
                f"{len(system.lambdas)} eigenvalues and {len(system.vectors)} vectors"]
    for k, p in enumerate(system.vectors):
        if len(p.coeffs) != k + 1 or p.coeffs[k] != 1:
            problems.append(f"p_{k} is not monic of degree {k}")
    if n >= 2 and tuple(system.vectors[2].coeffs) != (0, -1, 1):
        problems.append(f"p_2 = {system.vectors[2].coeffs}, not x^2 - x")
    expected = product_form_eigenvalues(n, q, alpha)
    for k, (got, want) in enumerate(zip(system.lambdas, expected)):
        if got != want:
            problems.append(f"lambda_{k} = {got}, product form gives {want}")
    for k in range(2, n + 1):
        if not system.lambdas[k] < system.lambdas[k - 1]:
            problems.append(f"lambda_{k} does not decrease from lambda_{k - 1}")
    qi = q_integers(n, q)
    nodes = [qi[i] / qi[n] for i in range(n + 1)]
    for k, p in enumerate(system.vectors):
        image = api.apply_to_samples([horner(p.coeffs, t) for t in nodes], params)
        want = [system.lambdas[k] * c for c in p.coeffs]
        if _padded(image.coeffs, n + 1) != _padded(want, n + 1):
            problems.append(f"T(p_{k}) != lambda_{k} p_{k}")
    return problems


def float_error(got: float, want: Fraction) -> float:
    """Relative error of a float against an exact value (absolute where it is 0)."""
    if not math.isfinite(got):
        return math.inf
    diff = abs(got - float(want))
    return diff / abs(float(want)) if want != 0 else diff


def float_close(got: float, want: Fraction) -> bool:
    if not math.isfinite(got):
        return False
    return abs(got - float(want)) <= max(FLOAT_REL_TOL * abs(float(want)), FLOAT_ABS_TOL)


def float_eigensystem(system, exact) -> tuple[list[str], float]:
    """A float eigensystem against the exact one: problems and max relative error."""
    problems = []
    worst = 0.0
    pairs = [(f"lambda_{k}", a, b) for k, (a, b) in
             enumerate(zip(system.lambdas, exact.lambdas))]
    for k, (p, e) in enumerate(zip(system.vectors, exact.vectors)):
        if len(p.coeffs) != len(e.coeffs):
            problems.append(f"p_{k} has degree {p.degree}, exact degree {e.degree}")
            worst = math.inf
        pairs += [(f"p_{k}[{j}]", a, b) for j, (a, b) in enumerate(zip(p.coeffs, e.coeffs))]
    if len(system.vectors) != len(exact.vectors):
        problems.append("float and exact systems differ in size")
        worst = math.inf
    for label, got, want in pairs:
        worst = max(worst, float_error(got, want))
        if not float_close(got, want):
            problems.append(f"{label} = {got!r}, exact {float(want)!r}")
    return problems, worst


def exact_convergence(rows, schedule, k) -> list[str]:
    """Exact convergence rows: complete, consistent, errors non-increasing in n."""
    problems = []
    if [(r.n, r.j) for r in rows] != [(n, j) for n in schedule for j in range(k + 1)]:
        return ["rows do not cover the (n, j) grid of the schedule"]
    for r in rows:
        if r.abs_error != abs(r.finite - r.limit):
            problems.append(f"abs_error at n={r.n}, j={r.j} is not |finite - limit|")
        if r.j == k and (r.finite != 1 or r.limit != 1):
            problems.append(f"coefficient of x^{k} is not 1 at n={r.n}")
    for j in range(k + 1):
        errors = [r.abs_error for r in rows if r.j == j]
        for a, b, n in zip(errors, errors[1:], schedule[1:]):
            if b > a:
                problems.append(f"error at j={j} grows to {float(b)} at n={n}")
    return problems


def float_convergence(rows, exact_rows) -> tuple[list[str], float]:
    """Float convergence rows against the exact rows of the same (n, j)."""
    exact = {(r.n, r.j): r for r in exact_rows}
    problems = []
    worst = 0.0
    for r in rows:
        e = exact.get((r.n, r.j))
        if e is None:
            problems.append(f"no exact row for n={r.n}, j={r.j}")
            continue
        for label, got, want in (("finite", r.finite, e.finite), ("limit", r.limit, e.limit)):
            worst = max(worst, float_error(got, want))
            if not float_close(got, want):
                problems.append(f"{label} at n={r.n}, j={r.j} = {got!r}, exact {float(want)!r}")
    return problems, worst


# --- command-line outputs -------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def cli_eig_json(text: str, reference) -> list[str]:
    """eig JSON round-trips through eigensystem_from_dict to the exact reference."""
    try:
        system = api.eigensystem_from_dict(strict_json(text))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"eig JSON unreadable: {exc}"]
    if (system.params, system.lambdas, system.vectors) != (
        reference.params, reference.lambdas, reference.vectors
    ):
        return ["eig JSON differs from the in-process exact eigensystem"]
    return []


def cli_eig_csv(text: str, reference) -> list[str]:
    rows = _csv_rows(text)
    n = reference.params.n
    if len(rows) != n + 2 or rows[0] != ["k", "lambda"] + [f"c{j}" for j in range(n + 1)]:
        return ["eig CSV has the wrong shape"]
    for k, row in enumerate(rows[1:]):
        want = [str(k), reference.lambdas[k]] + _padded(reference.vectors[k].coeffs, n + 1)
        if row[0] != want[0] or [Fraction(v) for v in row[1:]] != want[1:]:
            return [f"eig CSV row {k} differs from the in-process exact eigensystem"]
    return []


def cli_apply_json(text: str, params, k: int) -> list[str]:
    """apply --k: the forward-difference image of t^k equals the closed-form
    monomial image, and its leading coefficient is the product-form lambda_k."""
    try:
        image = [api.scalar_from_json(c) for c in strict_json(text)["image"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"apply JSON unreadable: {exc}"]
    closed = api.monomial_image(k, params).coeffs
    problems = []
    if _padded(image, params.n + 1) != _padded(closed, params.n + 1):
        problems.append(f"image of t^{k} differs from the closed-form monomial image")
    lam = product_form_eigenvalues(params.n, params.q, params.alpha)[k]
    if len(image) != k + 1 or image[k] != lam:
        problems.append(f"leading coefficient of T(t^{k}) is not lambda_{k}")
    return problems


def cli_basis_csv(text: str, n: int, samples: int) -> list[str]:
    """basis --samples: a row per grid point, and every row sums to 1."""
    rows = _csv_rows(text)
    if len(rows) != samples + 1 or any(len(r) != n + 2 for r in rows):
        return ["basis CSV has the wrong shape"]
    problems = []
    for t, row in enumerate(rows[1:]):
        if Fraction(row[0]) != Fraction(t, samples - 1):
            problems.append(f"basis grid point {t} is {row[0]}")
        if sum(Fraction(v) for v in row[1:]) != 1:
            problems.append(f"basis row at x={row[0]} does not sum to 1")
    return problems


def q_stirling2_table(k_max: int, q: Fraction) -> list[list[Fraction]]:
    """S_q(i, r) for 0 <= i, r <= k_max by S(i+1, r) = S(i, r-1) + [r] S(i, r)."""
    qi = q_integers(k_max, q)
    table = [[Fraction(0)] * (k_max + 1) for _ in range(k_max + 1)]
    table[0][0] = Fraction(1)
    for i in range(k_max):
        for r in range(1, i + 2):
            table[i + 1][r] = table[i][r - 1] + qi[r] * table[i][r]
    return table


def limit_coeffs_below_1(q: Fraction, k: int) -> list[Fraction]:
    """b(j, k) for 0 < q < 1 from recurrence-form q-Stirling numbers."""
    s = q_stirling2_table(k, q)
    b = [Fraction(0)] * (k + 1)
    b[k] = Fraction(1)
    if k >= 2:
        for j in range(k - 1, -1, -1):
            total = sum((1 - q) ** (i - j) * s[i][j] * b[i] for i in range(j + 1, k + 1))
            b[j] = total / (q ** ((k - j) * (k + j - 1) // 2) - 1)
    return b


def cli_limits_json(text: str, q: Fraction, k: int) -> list[str]:
    try:
        obj = strict_json(text)
        coeffs = [api.scalar_from_json(c) for c in obj["coeffs"]]
        lam = api.scalar_from_json(obj["limit_lambda"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"limits JSON unreadable: {exc}"]
    problems = []
    if lam != q ** (k * (k - 1) // 2):
        problems.append(f"limit eigenvalue {lam} is not q^(k(k-1)/2)")
    if coeffs != limit_coeffs_below_1(q, k):
        problems.append("limit coefficients differ from the recurrence-form oracle")
    return problems


def cli_converge_json(text: str, schedule, k: int) -> list[str]:
    try:
        rows = [
            api.ConvergenceRow(r["n"], r["j"], *(api.scalar_from_json(r[key])
                               for key in ("finite", "limit", "abs_error")))
            for r in strict_json(text)
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"converge JSON unreadable: {exc}"]
    return exact_convergence(rows, schedule, k)


def cli_plot_json(text: str, k: int, samples: int, references) -> list[str]:
    """plot-data: each column is the checked eigenvector p_k on the grid,
    and p_k vanishes at 0 and 1 for k >= 2."""
    try:
        obj = strict_json(text)
        xs = [api.scalar_from_json(x) for x in obj["x"]]
        columns = [[api.scalar_from_json(v) for v in c["values"]] for c in obj["columns"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"plot-data JSON unreadable: {exc}"]
    if xs != [Fraction(t, samples - 1) for t in range(samples)]:
        return ["plot-data grid is not uniform on [0, 1]"]
    if len(columns) != len(references):
        return [f"plot-data has {len(columns)} columns, expected {len(references)}"]
    problems = []
    for col, system in zip(columns, references):
        p = system.vectors[k]
        if col != [horner(p.coeffs, x) for x in xs]:
            problems.append(f"plot-data column q={system.params.q} is not p_{k}")
        if k >= 2 and (col[0] != 0 or col[-1] != 0):
            problems.append(f"p_{k} does not vanish at 0 and 1")
    return problems


def cli_verify_json(text: str) -> list[str]:
    try:
        report = strict_json(text)
    except ValueError as exc:
        return [f"verify JSON unreadable: {exc}"]
    checks = report.get("checks", [])
    if report.get("passed") is not True or len(checks) != VERIFY_CHECK_COUNT or not all(
        c.get("passed") is True for c in checks
    ):
        return ["verify did not report a clean pass of every check"]
    return []
