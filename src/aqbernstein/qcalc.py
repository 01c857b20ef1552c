"""q-calculus primitives.

The building blocks of q-analysis with a deformation parameter q > 0:
q-integers, q-Stirling numbers of the second kind, and iterated forward
q-differences of sample sequences. Everything specializes to the classical
object at q = 1.

All functions are generic over the scalar mode of q: exact rationals give
exact results, floats give floats. Functions are pure. Each object has one
production kernel. The q-integers come from ``q_integers``, the recurrence
[m+1]_q = 1 + q [m]_q that the operator's q-table and the limit
coefficients both run. The q-Stirling numbers come from
``q_stirling2_rows``, Carlitz's recurrence run from row 0, which the
image kernel and the q < 1 limit coefficients both read. The closed
form (q^n - 1)/(q - 1) and the explicit alternating q-Stirling sum are
the oracles, and live in :mod:`aqbernstein.verify`, which reads the
q-factorials and q-binomials of the sum as integer numerators; the
Fraction-valued q-factorial and q-binomial are test oracles only.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import Scalar


def q_integers(q: Scalar, top: int, den: int = 1) -> tuple[Scalar, ...]:
    """[0]_q .. [top]_q, each from the one before by [m+1]_q = 1 + q [m]_q
    (in float mode, infinite past float range).

    Given q's numerator and denominator as ``q`` and ``den``, the same
    recurrence scaled by den^m, N_(m+1) = den^m + q N_m, gives the integer
    numerators N_m = den^(m-1) [m]_(q/den), N_0 = 0."""
    out, scale = [q * 0], 1
    for _ in range(top):
        out.append(scale + q * out[-1])
        scale *= den
    return tuple(out)


def q_stirling2_rows(k: int, qints: Sequence[Scalar]) -> list[list[Scalar]]:
    """The rows S_q(0, r) .. S_q(k, r) of the q-Stirling numbers of the
    second kind, r = 0..len(qints)-1, where ``qints[r]`` is [r]_q.

    Row 0 is S_q(0, r) = [r = 0]; each next row comes by Carlitz's
    recurrence S_q(m+1, r) = S_q(m, r-1) + [r]_q S_q(m, r), with entry 0
    equal to [0]_q = 0. One addition and one product per entry, no
    division, and in floats a sum of positive terms, where the explicit sum
    cancels. Run on c [r]_q, the rows are c^(m-r) S_q(m, r): integers for
    q = a/b and c = b^n, and S_q(m, r) / [n]_q^(m-r) for c = 1/[n]_q, the
    two forms the image kernel reads."""
    zero = qints[0]
    row = [zero + 1] + [zero] * (len(qints) - 1)
    rows = [row]
    for _ in range(k):
        row = [zero] + [row[r - 1] + qints[r] * row[r] for r in range(1, len(qints))]
        rows.append(row)
    return rows


def q_difference_table(samples: Sequence[Scalar], q: Scalar,
                       den: Scalar = 1) -> tuple[tuple[Scalar, ...], ...]:
    """All iterated forward q-differences of a sample sequence.

    Row r holds Delta_q^r applied at each admissible start index:
    ``table[r][i]`` is Delta_q^r f_i, built from
    Delta_q^r f_i = Delta_q^(r-1) f_{i+1} - q^(r-1) Delta_q^(r-1) f_i.
    Given q's numerator and denominator as ``q`` and ``den``, the same loop
    runs the recurrence scaled by den^(r(r-1)/2),
    E_{r,i} = den^(r-1) E_{r-1,i+1} - q^(r-1) E_{r-1,i}, so that
    ``table[r][i]`` is den^(r(r-1)/2) Delta_{q/den}^r f_i: integers for
    integer samples.
    """
    if not (q > 0 and den > 0):
        raise ValueError(f"q must be positive, got {q}" + (f"/{den}" if den != 1 else ""))
    rows = [tuple(samples)]
    for r in range(1, len(samples)):
        prev = rows[-1]
        u, w = den ** (r - 1), q ** (r - 1)
        rows.append(tuple([u * prev[i + 1] - w * prev[i] for i in range(len(prev) - 1)]))
    return tuple(rows)
