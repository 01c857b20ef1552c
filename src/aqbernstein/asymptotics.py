"""Large-n limits of the eigenvalues and eigenvector coefficients.

Two regimes exist, split by q (there is no limit regime at q = 1):

* 0 < q < 1: lambda_k tends to q^(k(k-1)/2) and the eigenvector
  coefficients c_n(j,k) tend to alpha-independent limits b(j,k), defined by
  a top-down recursion whose weights are q-Stirling numbers.

* q > 1: every lambda_k tends to 1, and c_n(j,k) tends to d(j,k), a running
  product of one-step ratio limits that genuinely depend on alpha.

:func:`limit_coeffs` is the one kernel for both regimes. It finds q's
regime first, so a q <= 0 raises RegimeError as in :func:`limit_eigenvalue`,
then checks q and alpha once, by the rules of
:class:`~aqbernstein.bernstein.OperatorParams`, and runs the recursion of
the regime on the q-integers of :func:`~aqbernstein.qcalc.q_integers`, the
recurrence the operator's q-table runs: below 1 on the q-Stirling rows that
:func:`~aqbernstein.qcalc.q_stirling2_rows` builds from them, above 1 on
running sums of them. Float mode runs the recursions as written. Exact mode
runs them on integers, as the image kernel and the exact eigenvector
recursion do: for q = a/b and alpha = c/d in lowest terms it reads the
numerators N_m = b^(m-1) [m]_q, keeps every intermediate an integer, and
forms one reduced Fraction per coefficient below 1 and per ratio above 1;
:func:`limit_coeffs` derives both integer forms.

The one-step ratio for q > 1 is the limit of
a_n(k-j, k-j+1) / (lambda_k - lambda_{k-j}). Carrying out that limit from
the closed forms gives

            S_q(k-j+1, k-j) + (1-alpha) q^(j-k) (q-1) [k-j]_q [k-j+1]_q
    rho_j = - -----------------------------------------------------------
            [k-1]_q + ... + [k-j]_q
              + (1-alpha) q^(1-k) (q^j - 1)(q^(2k-j-1) - 1) / (q - 1)

where S_q(m+1, m) = [1]_q + ... + [m]_q by Carlitz's recurrence, since
S_q(m, m) = 1 and S_q(1, 0) = 0; the code sums those q-integers.

Both (1-alpha) corrections are essential: dropping the (q-1) factor in the
numerator or the second denominator term is only harmless at alpha = 1
(where both vanish from rho) or, for the numerator, at q = 2. The exact
degree-2 eigenvector x^2 - x, valid at every n, forces rho_1 at k = 2 to be
exactly -1 for every alpha, which the formula above satisfies; convergence
tests confirm the general case numerically, and show that the finite-n
ratios move away from the simplified variants with either correction dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .bernstein import OperatorParams, checked_q_alpha
from .eigen import eigenvector
from .qcalc import q_integers, q_stirling2_rows
from .scalars import EXACT, FLOAT, Scalar, coerce, common_mode

Q_BELOW_1 = "q_below_1"
Q_ABOVE_1 = "q_above_1"


class RegimeError(ValueError):
    """q does not lie in the requested (or any) limit regime."""


def regime_of(q: Scalar) -> str:
    if isinstance(q, float) and not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    if not q > 0:
        raise RegimeError(f"q must be positive, got {q}")
    if q == 1:
        raise RegimeError("no limit regime at q=1")
    return Q_BELOW_1 if q < 1 else Q_ABOVE_1


@dataclass(frozen=True)
class LimitCoeffs:
    """Limit eigenvector coefficients for one degree k.

    ``coeffs[j]`` multiplies x^j; ``coeffs[k]`` is 1 (monic). In the
    q_below_1 regime the coefficients are independent of alpha and
    ``limit_lambda`` is q^(k(k-1)/2); in the q_above_1 regime they depend on
    alpha and ``limit_lambda`` is 1.
    """

    regime: str
    q: Scalar
    alpha: Scalar
    k: int
    coeffs: tuple[Scalar, ...]
    limit_lambda: Scalar


def limit_eigenvalue(q: Scalar, k: int) -> Scalar:
    """lim_n lambda_k in q's mode (an int q is exact): q^(k(k-1)/2) below
    1, identically 1 above 1."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    q = coerce(q, common_mode(q) or EXACT)
    if regime_of(q) == Q_BELOW_1:
        return q ** (k * (k - 1) // 2)
    return q * 0 + 1


def limit_coeffs(q: Scalar, alpha: Scalar, k: int) -> LimitCoeffs:
    """The limit coefficients of degree k in the regime of q: b(j,k) for
    0 < q < 1, d(j,k) for q > 1 (RegimeError at q = 1 and for q <= 0; in
    floats, FloatingPointError naming (q, alpha, k) for a nan, inf or overflow).

    In both regimes coeffs[k] = 1 and, for k >= 1, coeffs[0] = 0. For
    j = k-1 .. 1, below 1

        b(j,k) = sum_{i=j+1}^{k} (1-q)^(i-j) S_q(i,j)
                 / (q^E - 1) * b(i,k),    E = (k-j)(k+j-1)/2,

    which gives 0 at j = 0 since S_q(i,0) = 0 for i >= 1; above 1
    d(j,k) = rho_(k-j) d(j+1,k), the running product of the ratio limits
    (see the module docstring), whose step to j = 0 would carry the factor
    S_q(1,0) + (1-alpha) q^(-k) (q-1) [0]_q [1]_q = 0.

    Float mode runs these recursions as written. Exact mode runs them on
    integers; for q = a/b and alpha = c/d in lowest terms, [m]_q is
    N_m / b^(m-1) with N_m from ``q_integers(a, top, b)``.

    Below 1, Carlitz's rows run on b^(k+1-j) N_j = b^k [j]_q are the
    integers U(i,j) = b^(k(i-j)) S_q(i,j). With r = (b-a) / b^(k+1),
    (1-q)^(i-j) S_q(i,j) = U(i,j) r^(i-j), so b(j,k) = tau_j r^(k-j) where
    tau_k = 1 and

        tau_j = b^E sum_{i>j} U(i,j) tau_i / (a^E - b^E).

    tau runs on the bookkeeping of :func:`~aqbernstein.eigen._exact_coeffs`:
    tau_i = v[i] / w_i with w_k = 1 and w_j = w_(j+1) g_j, so that
    total = w_(j+1) sum_{i>j} U(i,j) tau_i is an integer, taken by Horner's
    rule over the g_i. With S = b^E - a^E > 0 and h = gcd(total, S), the
    step sets g_j = S // h and v[j] = -b^E (total // h); b^E needs no gcd,
    being prime to S as b is to a. Each b(j,k) becomes one reduced
    Fraction, v[j] (b-a)^(k-j) / (w_j b^((k+1)(k-j))).

    Above 1, with H_j = sum_{i<=j} N_i b^(j-i) and
    T_j = sum_{i=j}^{k-1} N_i b^(k-1-i), the running sums
    S_q(j+1, j) = H_j / b^(j-1) and [j]_q + ... + [k-1]_q = T_j / b^(k-2),
    and (q^m - 1)/(q - 1) = [m]_q = N_m / b^(m-1) for the closed-form
    powers, the ratio is one integer quotient,

        rho_(k-j) = -(d a^j b H_j + (d-c)(a-b) N_j N_(j+1)) (ab)^(k-1-j)
                    / (d a^(k-1) b T_j + (d-c)(a-b) N_(k-j) N_(k+j-1)),

    whose denominator is positive, and d(j,k) = d(j+1,k) rho_(k-j) stays
    a reduced Fraction.
    """
    regime = regime_of(coerce(q, common_mode(q) or EXACT))
    q, alpha = checked_q_alpha(q, alpha)
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if isinstance(q, float):
        coeffs = _float_limits(regime, q, alpha, k)
    elif regime == Q_BELOW_1:
        coeffs = _exact_limits_below_1(q, k)
    else:
        coeffs = _exact_limits_above_1(q, alpha, k)
    return LimitCoeffs(regime, q, alpha, k, tuple(coeffs), limit_eigenvalue(q, k))


def _exact_limits_below_1(q: Fraction, k: int) -> list[Fraction]:
    """b(0,k) .. b(k,k) on integers (see :func:`limit_coeffs`)."""
    a, b = q.numerator, q.denominator
    N = q_integers(a, k - 1, b)
    U = q_stirling2_rows(k, [b ** (k + 1 - j) * m for j, m in enumerate(N)])
    coeffs = [Fraction(0)] * k + [Fraction(1)]
    v = [0] * k + [1]
    g = [1] * (k + 1)  # g[i]: the factor by which step i grew w
    w = 1
    for j in range(k - 1, 0, -1):
        total = U[k][j]
        for i in range(k - 1, j, -1):
            total = total * g[i] + v[i] * U[i][j]
        E = (k - j) * (k + j - 1) // 2
        bE = b**E
        S = bE - a**E
        h = math.gcd(total, S)
        g[j] = S // h
        w *= g[j]
        v[j] = -bE * (total // h)
        coeffs[j] = Fraction(v[j] * (b - a) ** (k - j), w * b ** ((k + 1) * (k - j)))
    return coeffs


def _exact_limits_above_1(q: Fraction, alpha: Fraction, k: int) -> list[Fraction]:
    """d(0,k) .. d(k,k) as a running product of integer quotients (see
    :func:`limit_coeffs`)."""
    a, b = q.numerator, q.denominator
    c, d = alpha.numerator, alpha.denominator
    N = q_integers(a, 2 * k - 2, b)
    heads = list(accumulate(N[:k], lambda h, m: h * b + m))  # H_j
    e = (d - c) * (a - b)
    coeffs = [Fraction(0)] * k + [Fraction(1)]
    tail, scale = 0, 1  # T_j and b^(k-1-j) at step j
    for j in range(k - 1, 0, -1):
        tail += N[j] * scale
        num = (d * a ** j * b * heads[j] + e * N[j] * N[j + 1]) * (a * b) ** (k - 1 - j)
        den = d * a ** (k - 1) * b * tail + e * N[k - j] * N[k + j - 1]
        coeffs[j] = coeffs[j + 1] * Fraction(-num, den)
        scale *= b
    return coeffs


def _float_limits(regime: str, q: float, alpha: float, k: int) -> list[float]:
    """b(j,k) or d(j,k) in floats, by the recursions of :func:`limit_coeffs`
    as written."""
    qint = q_integers(q, k)
    coeffs = [q * 0] * k + [q * 0 + 1]
    at = f"(q={q}, alpha={alpha}, k={k})"
    if regime == Q_BELOW_1:
        stirling = q_stirling2_rows(k, qint)
        for j in range(k - 1, 0, -1):
            total = q * 0
            for i in range(j + 1, k + 1):
                total = total + (1 - q) ** (i - j) * stirling[i][j] * coeffs[i]
            coeffs[j] = total / (q ** ((k - j) * (k + j - 1) // 2) - 1)
    else:
        heads = tuple(accumulate(qint))  # heads[j] = S_q(j+1, j)
        tail = q * 0  # [j]_q + ... + [k-1]_q at step j
        for j in range(k - 1, 0, -1):
            tail = tail + qint[j]
            # the second term of den keeps its closed form: in floats it is
            # closer than (q-1) [k-j]_q [k+j-1]_q, and its power q^(2k-2)
            # at j = k-1 overflows before any [m]_q here is inf
            num = heads[j] + (1 - alpha) * (q - 1) * q ** -j * qint[j] * qint[j + 1]
            try:
                den = tail + (1 - alpha) * q ** (1 - k) * (q ** (k - j) - 1) * (
                    q ** (k + j - 1) - 1
                ) / (q - 1)
            except OverflowError as exc:
                raise FloatingPointError(f"float overflow in limit_coeffs {at}") from exc
            coeffs[j] = coeffs[j + 1] * (-num / den)
    if not all(map(math.isfinite, coeffs)):
        bad = next(c for c in coeffs if not math.isfinite(c))
        raise FloatingPointError(f"non-finite float in limit_coeffs: {bad} {at}")
    return coeffs


@dataclass(frozen=True)
class ConvergenceRow:
    """One (n, j) cell of a convergence study: the finite-n eigenvector
    coefficient, its limit, and the absolute error."""

    n: int
    j: int
    finite: Scalar
    limit: Scalar
    abs_error: Scalar


def convergence_table(
    q: Scalar,
    alpha: Scalar,
    k: int,
    n_list: Sequence[int],
    mode: str = "float",
) -> tuple[ConvergenceRow, ...]:
    """Finite-n eigenvector coefficients against their limits.

    For each n in ``n_list`` (each must be >= max(k, 1)) and each power
    j = 0..k, reports c_n(j,k), the regime limit, and the absolute error.
    ``mode="float"`` (the default for large-n studies) converts q and alpha
    to floats first; pass ``mode="exact"`` to keep rationals throughout (an
    int q or alpha becomes a Fraction, a float raises MixedModeError).
    On a doubling n-schedule the errors are non-increasing up to float
    rounding noise.
    """
    if mode == FLOAT:
        q, alpha = float(q), float(alpha)
    elif mode == EXACT:
        q, alpha = coerce(q, EXACT), coerce(alpha, EXACT)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    limits = limit_coeffs(q, alpha, k)
    q, alpha = limits.q, limits.alpha
    zero = q * 0
    rows = []
    for n in n_list:
        if n < max(k, 1):
            raise ValueError(f"n={n} is too small for degree k={k}")
        vec = eigenvector(k, OperatorParams(n, q, alpha))
        for j in range(k + 1):
            # p_k is monic of degree k, so every c_j is stored, in the mode;
            # a float -0.0 reads 0.0
            finite = vec.coeffs[j] or zero
            lim = limits.coeffs[j]
            rows.append(ConvergenceRow(n, j, finite, lim, abs(finite - lim)))
    return tuple(rows)
