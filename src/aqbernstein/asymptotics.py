"""Large-n limits of the eigenvalues and eigenvector coefficients.

Two regimes exist, split by q (there is no limit regime at q = 1):

* 0 < q < 1: lambda_k tends to q^(k(k-1)/2) and the eigenvector
  coefficients c_n(j,k) tend to alpha-independent limits b(j,k), defined by
  a top-down recursion whose weights are q-Stirling numbers, read from the
  production recurrence :func:`~aqbernstein.qcalc.q_stirling2_rows`.

* q > 1: every lambda_k tends to 1, and c_n(j,k) tends to d(j,k), a running
  product of one-step ratio limits that genuinely depend on alpha.

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

from dataclasses import dataclass
from typing import Sequence

from .bernstein import OperatorParams
from .eigen import eigenvector
from .qcalc import q_integer, q_stirling2_rows
from .scalars import Scalar, coerce, common_mode

Q_BELOW_1 = "q_below_1"
Q_ABOVE_1 = "q_above_1"


class RegimeError(ValueError):
    """q does not lie in the requested (or any) limit regime."""


def regime_of(q: Scalar) -> str:
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
    """lim_n lambda_k: q^(k(k-1)/2) below 1, identically 1 above 1."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if regime_of(q) == Q_BELOW_1:
        return q ** (k * (k - 1) // 2)
    return q * 0 + 1


def _coerced_pair(q: Scalar, alpha: Scalar) -> tuple[Scalar, Scalar]:
    """q and alpha in their common mode, with alpha in [0,1] as for
    :class:`~aqbernstein.bernstein.OperatorParams`."""
    mode = common_mode(q, alpha) or "exact"
    q, alpha = coerce(q, mode), coerce(alpha, mode)
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha={alpha} is outside [0,1]")
    return q, alpha


def limit_coeffs_q_below_1(q: Scalar, alpha: Scalar, k: int) -> LimitCoeffs:
    """Limit coefficients b(j,k) for 0 < q < 1 (alpha-free).

    b(k,k) = 1, b(0,1) = 0, and for j = k-1 .. 0:

        b(j,k) = sum_{i=j+1}^{k} (1-q)^(i-j) S_q(i,j)
                 / (q^((k-j)(k+j-1)/2) - 1) * b(i,k).

    S_q(i, .) is row i of :func:`~aqbernstein.qcalc.q_stirling2_rows`,
    Carlitz's recurrence from row 0.
    """
    q, alpha = _coerced_pair(q, alpha)
    if regime_of(q) != Q_BELOW_1:
        raise RegimeError(f"b-coefficients need 0 < q < 1, got q={q}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    b: list[Scalar] = [q * 0] * (k + 1)
    b[k] = q * 0 + 1
    # k = 1 is pinned directly: its j = 0 step would divide by q^0 - 1
    if k >= 2:
        stirling = q_stirling2_rows(k, [q_integer(m, q) for m in range(k + 1)])
        for j in range(k - 1, -1, -1):
            denom = q ** ((k - j) * (k + j - 1) // 2) - 1
            assert denom != 0, "unreachable for q != 1 and j < k with k >= 2"
            total = q * 0
            for i in range(j + 1, k + 1):
                total = total + (1 - q) ** (i - j) * stirling[i][j] * b[i]
            b[j] = total / denom
    return LimitCoeffs(Q_BELOW_1, q, alpha, k, tuple(b), limit_eigenvalue(q, k))


def limit_ratio_q_above_1(q: Scalar, alpha: Scalar, k: int, j: int) -> Scalar:
    """One-step coefficient ratio limit rho_j for q > 1 (see module docstring).

    Valid for 1 <= j <= k-1; this is the limit of
    a_n(k-j, k-j+1) / (lambda_k - lambda_{k-j}).
    """
    q, alpha = _coerced_pair(q, alpha)
    if regime_of(q) != Q_ABOVE_1:
        raise RegimeError(f"this ratio limit needs q > 1, got q={q}")
    if not 1 <= j <= k - 1:
        raise ValueError(f"need 1 <= j <= k-1, got j={j}, k={k}")
    num = sum((q_integer(t, q) for t in range(1, k - j + 1)), q * 0) + (
        1 - alpha
    ) * (q - 1) * q ** (j - k) * q_integer(k - j, q) * q_integer(k - j + 1, q)
    den = sum((q_integer(t, q) for t in range(k - j, k)), q * 0)
    den = den + (1 - alpha) * q ** (1 - k) * (q**j - 1) * (
        q ** (2 * k - j - 1) - 1
    ) / (q - 1)
    return -num / den


def limit_coeffs_q_above_1(q: Scalar, alpha: Scalar, k: int) -> LimitCoeffs:
    """Limit coefficients d(j,k) for q > 1: d(k,k) = 1, d(0,1) = 0, and
    d(j,k) = prod over the ratio limits rho_1 .. rho_(k-j), built here by
    the equivalent one-step recursion d(j,k) = rho_(k-j) d(j+1,k)."""
    q, alpha = _coerced_pair(q, alpha)
    if regime_of(q) != Q_ABOVE_1:
        raise RegimeError(f"d-coefficients need q > 1, got q={q}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k == 0:
        coeffs: tuple[Scalar, ...] = (q * 0 + 1,)
    elif k == 1:
        coeffs = (q * 0, q * 0 + 1)
    else:
        # d(0,k) = 0 is pinned directly: the j = k product step would carry
        # the factor S_q(1,0) + (1-alpha) q^(-k) (q-1) [0]_q [1]_q = 0.
        d: list[Scalar] = [q * 0] * (k + 1)
        d[k] = q * 0 + 1
        for j in range(k - 1, 0, -1):
            d[j] = d[j + 1] * limit_ratio_q_above_1(q, alpha, k, k - j)
        coeffs = tuple(d)
    return LimitCoeffs(Q_ABOVE_1, q, alpha, k, coeffs, limit_eigenvalue(q, k))


def limit_coeffs(q: Scalar, alpha: Scalar, k: int) -> LimitCoeffs:
    """Dispatch on the regime of q (RegimeError at q = 1)."""
    if regime_of(q) == Q_BELOW_1:
        return limit_coeffs_q_below_1(q, alpha, k)
    return limit_coeffs_q_above_1(q, alpha, k)


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
    to floats first; pass ``mode="exact"`` to keep rationals throughout.
    On a doubling n-schedule the errors are non-increasing up to float
    rounding noise.
    """
    if mode == "float":
        q, alpha = float(q), float(alpha)
    elif mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    q, alpha = _coerced_pair(q, alpha)
    limits = limit_coeffs(q, alpha, k)
    rows = []
    for n in n_list:
        if n < max(k, 1):
            raise ValueError(f"n={n} is too small for degree k={k}")
        vec = eigenvector(k, OperatorParams(n, q, alpha))
        for j in range(k + 1):
            finite = vec.coeff(j) + q * 0
            lim = limits.coeffs[j]
            rows.append(ConvergenceRow(n, j, finite, lim, abs(finite - lim)))
    return tuple(rows)
