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
:class:`~aqbernstein.bernstein.OperatorParams`, builds [0]_q .. [k]_q once
by the recurrence the operator's q-table runs,
:func:`~aqbernstein.qcalc.q_integers`, and runs the recursion of the regime
on that sequence: below 1 on the q-Stirling rows that
:func:`~aqbernstein.qcalc.q_stirling2_rows` builds from it, above 1 on
running sums of it.

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
                 / (q^((k-j)(k+j-1)/2) - 1) * b(i,k),

    which gives 0 at j = 0 since S_q(i,0) = 0 for i >= 1; above 1
    d(j,k) = rho_(k-j) d(j+1,k), the running product of the ratio limits
    (see the module docstring), whose step to j = 0 would carry the factor
    S_q(1,0) + (1-alpha) q^(-k) (q-1) [0]_q [1]_q = 0.
    """
    regime = regime_of(coerce(q, common_mode(q) or EXACT))
    q, alpha = checked_q_alpha(q, alpha)
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
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
    if isinstance(q, float) and not all(map(math.isfinite, coeffs)):
        bad = next(c for c in coeffs if not math.isfinite(c))
        raise FloatingPointError(f"non-finite float in limit_coeffs: {bad} {at}")
    return LimitCoeffs(regime, q, alpha, k, tuple(coeffs), limit_eigenvalue(q, k))


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
    rows = []
    for n in n_list:
        if n < max(k, 1):
            raise ValueError(f"n={n} is too small for degree k={k}")
        vec = eigenvector(k, OperatorParams(n, q, alpha))
        for j in range(k + 1):
            # p_k is monic of degree k, so every c_j is stored, in the mode;
            # adding 0 only makes a float -0.0 read 0.0
            finite = vec.coeffs[j] + 0
            lim = limits.coeffs[j]
            rows.append(ConvergenceRow(n, j, finite, lim, abs(finite - lim)))
    return tuple(rows)
