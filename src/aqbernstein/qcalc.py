"""q-calculus primitives.

The building blocks of q-analysis with a deformation parameter q > 0:
q-integers, q-factorials, q-binomial coefficients, q-Stirling numbers of
the second kind, and iterated forward q-differences of sample sequences. Everything specializes to the classical
object at q = 1.

All functions are generic over the scalar mode of q: exact rationals give
exact results, floats give floats. Functions are pure. The q-Stirling
numbers come by the explicit sum (``q_stirling2``) and, one row from the
row before, by Carlitz's recurrence (``q_stirling2_next_row``). The monomial
images use both, the q < 1 limit coefficients the recurrence alone. The
full recurrence table, the oracle for the explicit sum, lives in
:mod:`aqbernstein.verify`.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import Scalar


def _zero(q: Scalar) -> Scalar:
    return q * 0


def _one(q: Scalar) -> Scalar:
    return q * 0 + 1


def _require_positive_q(q: Scalar) -> None:
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")


def q_integer(n: int, q: Scalar) -> Scalar:
    """[n]_q = 1 + q + ... + q^(n-1), with [0]_q = 0."""
    _require_positive_q(q)
    if n < 0:
        raise ValueError(f"q-integer needs n >= 0, got {n}")
    if n == 0:
        return _zero(q)
    if q == 1:
        return _one(q) * n
    return (q**n - 1) / (q - 1)


def q_factorial(n: int, q: Scalar) -> Scalar:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    if n < 0:
        raise ValueError(f"q-factorial needs n >= 0, got {n}")
    out = _one(q)
    for m in range(1, n + 1):
        out = out * q_integer(m, q)
    return out


def q_binomial(n: int, k: int, q: Scalar) -> Scalar:
    """q-binomial coefficient, extended by 0 outside 0 <= k <= n."""
    _require_positive_q(q)
    if k < 0 or k > n:
        return _zero(q)
    k = min(k, n - k)
    out = _one(q)
    for i in range(1, k + 1):
        out = out * q_integer(n - k + i, q) / q_integer(i, q)
    return out


def q_stirling2(k: int, r: int, q: Scalar) -> Scalar:
    """q-Stirling number of the second kind S_q(k, r), by its explicit sum.

    S_q(k, r) = (1 / ([r]_q! q^(r(r-1)/2)))
                * sum_{i=0}^{r} (-1)^i q^(i(i-1)/2) qbinom(r, i) [r-i]_q^k.

    Boundary values are pinned before the sum is consulted: S_q(0,0) = 1,
    S_q(k,0) = 0 for k > 0, and S_q(k,r) = 0 for k < r.
    """
    _require_positive_q(q)
    if k < 0 or r < 0:
        raise ValueError(f"q-Stirling number needs k, r >= 0, got ({k}, {r})")
    if r == 0:
        return _one(q) if k == 0 else _zero(q)
    if k < r:
        return _zero(q)
    total = _zero(q)
    for i in range(r + 1):
        term = q ** (i * (i - 1) // 2) * q_binomial(r, i, q) * q_integer(r - i, q) ** k
        total = total - term if i % 2 else total + term
    return total / (q_factorial(r, q) * q ** (r * (r - 1) // 2))


def q_stirling2_next_row(row: Sequence[Scalar], qints: Sequence[Scalar]) -> list[Scalar]:
    """The row S_q(k+1, r), r = 0..len(row)-1, from ``row`` = S_q(k, r).

    Carlitz's recurrence S_q(k+1, r) = S_q(k, r-1) + [r]_q S_q(k, r), with
    entry 0 equal to [0]_q = 0 (k + 1 >= 1); ``qints[r]`` is [r]_q for
    r < len(row). One addition and one product per entry, where the
    explicit sum makes O(r) terms that cancel in floats.
    """
    return [qints[0]] + [row[r - 1] + qints[r] * row[r] for r in range(1, len(row))]


def q_difference_table(samples: Sequence[Scalar], q: Scalar) -> tuple[tuple[Scalar, ...], ...]:
    """All iterated forward q-differences of a sample sequence.

    Row r holds Delta_q^r applied at each admissible start index:
    ``table[r][i]`` is Delta_q^r f_i, built from
    Delta_q^r f_i = Delta_q^(r-1) f_{i+1} - q^(r-1) Delta_q^(r-1) f_i.
    """
    _require_positive_q(q)
    rows = [tuple(samples)]
    for r in range(1, len(samples)):
        prev = rows[-1]
        w = q ** (r - 1)
        rows.append(tuple(prev[i + 1] - w * prev[i] for i in range(len(prev) - 1)))
    return tuple(rows)
