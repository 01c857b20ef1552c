"""The (alpha,q)-Bernstein operator T_{n,q,alpha}.

T_{n,q,alpha} sends a function f on [0,1], known through its samples
f_i = f([i]_q / [n]_q), to the degree-n polynomial

    T_{n,q,alpha}(f; x) = sum_i f_i * p_{n,q,i}^{(alpha)}(x),

where the basis blends two q-binomial families by the parameter alpha:
alpha = 1 recovers the q-Bernstein operator and q = 1 the alpha-Bernstein
operator. The module provides the basis values p_{n,q,i}^{(alpha)}(x)
(``basis_values``), the forward q-difference representation

    sum_r [ (1-alpha) qbinom(n-1, r) Delta_q^r g_0
            + alpha qbinom(n, r) Delta_q^r f_0 ] x^r

(``apply_to_samples``), which the verify suite checks against the basis sum
above, and the closed-form coefficients of the monomial images T(t^k) from
which the eigenstructure is built. One kernel, ``image_rows``, builds the
image matrix of T(t^1)..T(t^top), integers in exact mode and
[n]_q-normalized floats in float mode, from one triangle of the one
production recurrence, :func:`~aqbernstein.qcalc.q_stirling2_rows`, built
to row top: image m reads row m alone, as a sum of two nonnegative terms.
The explicit sum is an oracle in :mod:`aqbernstein.verify`.

The kernels here and in :mod:`aqbernstein.eigen` read their q-sequences
from one :class:`QTable` per operator, ``OperatorParams.table``. In float
mode they raise FloatingPointError rather than return a nan or an infinity.

The basis values and the difference form work in the same homogeneous
coordinates as ``image_rows``. For q = a/b and alpha = c/d in lowest
terms (and x = X/Y, or samples over their lcm L), exact mode forms only
integer numerators over one tracked denominator, a product of powers of
b, d, Y (or L) and a q-integer numerator, and makes each output scalar a
reduced Fraction once, at the end. Float mode runs the same loops with
(a, b, c, d) = (q, 1, alpha, 1) and unit denominators. The difference form
reads both of its terms, the g term included, off one run of the one
difference loop, :func:`~aqbernstein.qcalc.q_difference_table`, on (a, b):
Delta_q^r g_0 = Delta_q^r f_0 + w_r Delta_q^r f_1, so the blended samples
g are never formed.

Basis evaluation uses a factored form in which the removable division by
(1 - q^(n-i-1) x) has been cancelled, so no evaluation point is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .polynomials import Polynomial
from .qcalc import q_difference_table, q_integers, q_stirling2_rows
from .scalars import Scalar, coerce, common_mode, require_finite


class QTable:
    """The q-sequences of one operator in its scalar mode: ``zero``, ``one``
    and, each built on first use, ``powers[m]`` = q^m and ``integers[m]`` =
    [m]_q for 0 <= m <= 2n-1 (in float mode, infinite past float range), the
    q-binomial rows ``binomials`` (numerators in exact mode) and, in exact
    mode, the ``numerators`` of the integers.

    For q = a/b in lowest terms, ``numerators[m]`` is N_m = b^(m-1) [m]_q,
    from N_(m+1) = b^m + a N_m, the recurrence of ``integers`` scaled by
    b^m. N_m = a^(m-1) mod b is prime to b, so N_m is the reduced numerator
    of [m]_q. The exact kernels that read only these integers never build
    the Fraction sequences; the exact ``binomials`` are built from them."""

    def __init__(self, n: int, q: Scalar):
        self.n, self.q, self.zero = n, q, q * 0
        self.one = self.zero + 1

    @cached_property
    def powers(self) -> tuple[Scalar, ...]:
        return tuple(accumulate(range(2 * self.n - 1), lambda p, _: self.q * p,
                                initial=self.one))

    @cached_property
    def integers(self) -> tuple[Scalar, ...]:
        return q_integers(self.q, 2 * self.n - 1)

    @cached_property
    def numerators(self) -> tuple[int, ...]:
        return q_integers(self.q.numerator, 2 * self.n - 1, self.q.denominator)

    @cached_property
    def binomials(self) -> dict[int, tuple[Scalar, ...]]:
        """The q-binomial rows, i = 0..m, keyed by m = n-2, n-1, n (those
        >= 0), each entry from the one before by
        qbinom(m, i+1) = qbinom(m, i) [m-i]_q / [i+1]_q.

        Float mode holds the values qbinom(m, i). Exact mode, for q = a/b in
        lowest terms, holds the integers P(m, i) = b^(i(m-i)) qbinom(m, i),
        from P(m, i+1) = P(m, i) N_(m-i) // N_(i+1): the powers of b cancel,
        and the division is exact because P(m, i+1) is an integer. P(m, i) is
        a^(i(m-i)) mod b, so prime to b: the reduced numerator of
        qbinom(m, i)."""
        ms = range(max(self.n - 2, 0), self.n + 1)
        if isinstance(self.q, float):
            qint = self.integers
            return {m: tuple(accumulate(range(m), lambda p, i: p * qint[m - i] / qint[i + 1],
                                        initial=self.one)) for m in ms}
        N = self.numerators
        return {m: tuple(accumulate(range(m), lambda p, i: p * N[m - i] // N[i + 1],
                                    initial=1)) for m in ms}


def checked_q_alpha(q: Scalar, alpha: Scalar) -> tuple[Scalar, Scalar]:
    """q and alpha in their common scalar mode (ints count as exact), or
    ValueError unless q is finite and positive and alpha lies in [0,1]."""
    mode = common_mode(q, alpha) or "exact"
    q, alpha = coerce(q, mode), coerce(alpha, mode)
    if mode == "float" and not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha={alpha} is outside [0,1]")
    return q, alpha


@dataclass(frozen=True)
class OperatorParams:
    """The triple (n, q, alpha) defining T_{n,q,alpha}.

    Requires n >= 1, finite q and alpha, q > 0 and alpha in [0,1], the
    range on which the eigenvalues are pairwise distinct below 1. q and
    alpha must share a scalar mode (ints count as exact).
    """

    n: int
    q: Scalar
    alpha: Scalar

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        q, alpha = checked_q_alpha(self.q, self.alpha)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "alpha", alpha)

    @property
    def mode(self) -> str:
        return "float" if isinstance(self.q, float) else "exact"

    @cached_property
    def table(self) -> QTable:
        """This operator's :class:`QTable`, built on first use and kept."""
        return QTable(self.n, self.q)


@dataclass(frozen=True)
class MonomialImage:
    """Coefficients a(0,k)..a(k,k) of T(t^k; x), ascending powers.

    a(0,k) = 0 for k >= 1 and a(k,k) is the k-th eigenvalue.
    """

    k: int
    coeffs: tuple[Scalar, ...]


def _check_samples(samples: Sequence[Scalar], params: OperatorParams) -> tuple[Scalar, ...]:
    if len(samples) != params.n + 1:
        raise ValueError(
            f"expected {params.n + 1} samples for n={params.n}, got {len(samples)}"
        )
    return tuple([coerce(v, params.mode) for v in samples])


def sample_nodes(params: OperatorParams) -> tuple[Scalar, ...]:
    """The nodes [i]_q / [n]_q for i = 0..n; starts at 0, ends at 1."""
    qints = params.table.integers[: params.n + 1]
    return require_finite(tuple([t / qints[-1] for t in qints]), "sample_nodes", params)


def _integer_form(params: OperatorParams) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """(a, b, c, d) for q = a/b and alpha = c/d in lowest terms in exact
    mode; (q, 1, alpha, 1) in float mode."""
    q, alpha = params.q, params.alpha
    if params.mode == "exact":
        return q.numerator, q.denominator, alpha.numerator, alpha.denominator
    return q, 1, alpha, 1


def basis_values(params: OperatorParams, x: Scalar) -> tuple[Scalar, ...]:
    """All n+1 basis values p_{n,q,i}^{(alpha)}(x), i = 0..n.

    For n >= 2 the value at index i has three contributions, with the
    removable factor cancelled:

        (1-alpha) qbinom(n-2, i)   x^i     (x;q)_{n-i-1}
      + (1-alpha) qbinom(n-2, i-2) q^(n-i) x^(i-1) (x;q)_{n-i}
      + alpha     qbinom(n, i)     x^i     (x;q)_{n-i}

    The q-power on the middle term must be n-i for the family to sum to 1
    (partition of unity) and to agree with the forward-difference form of
    the operator; both are enforced by tests.

    The three terms are formed over one denominator. For q = a/b,
    alpha = c/d and x = X/Y in lowest terms write qbinom(m, i) =
    P(m, i) / b^(i(m-i)) (P the table's exact ``binomials``) and
    (x;q)_m = Q_m / (Y^m b^(m(m-1)/2)) with Q_m = prod_{j<m} (Y b^j - X a^j).
    With m = n-i the value at i is then V_i / (d Y^n b^(m(n+i-1)/2)),

        V_i = c P(n, i) X^i Q_m
            + (d-c) P(n-2, i) X^i Q_(m-1) Y b^(n+i-1)
            + (d-c) P(n-2, i-2) a^m X^(i-1) Q_m Y b^m,

    an integer, made a reduced Fraction once. The powers and the prefix
    products Q_m are running products shared across i. Float mode runs the
    same loop with (a, b, c, d) = (q, 1, alpha, 1) and X, Y = x, 1, so every
    denominator is 1.
    """
    n = params.n
    x = coerce(x, params.mode)
    if n == 1:
        return require_finite((1 - x, x), "basis_values", params)
    binomials = params.table.binomials
    row_n, row_n2 = binomials[n], binomials[n - 2]
    a, b, c, d = _integer_form(params)
    exact = params.mode == "exact"
    X, Y = (x.numerator, x.denominator) if exact else (x, 1)
    apow = list(accumulate(range(n), lambda p, _: p * a, initial=1))
    bpow = list(accumulate(range(2 * n - 2), lambda p, _: p * b, initial=1))
    xpow = list(accumulate(range(n), lambda p, _: p * X, initial=1))
    poch = list(accumulate(range(n), lambda p, j: p * (Y * bpow[j] - X * apow[j]), initial=1))
    yn, values = Y**n, []
    for i in range(n + 1):
        m = n - i
        total = c * row_n[i] * xpow[i] * poch[m]
        if i <= n - 2:
            total = total + (d - c) * row_n2[i] * xpow[i] * poch[m - 1] * Y * bpow[n + i - 1]
        if i >= 2:
            total = total + (d - c) * row_n2[i - 2] * apow[m] * xpow[i - 1] * poch[m] * Y * bpow[m]
        den = d * yn * b ** (m * (n + i - 1) // 2)
        values.append(Fraction(total, den) if exact else total / den)
    return require_finite(tuple(values), "basis_values", params)


def apply_to_samples(samples: Sequence[Scalar], params: OperatorParams) -> Polynomial:
    """T_{n,q,alpha}(f; .) as a polynomial, via the forward-difference form.

    n = 1 is linear interpolation f_0 (1-x) + f_1 x. For n >= 2 the
    coefficient of x^r is

        alpha qbinom(n, r) Delta_q^r f_0 + (1-alpha) qbinom(n-1, r) Delta_q^r g_0

    (the g term is absent at r = n, where its q-binomial weight vanishes),
    where g_i = (1 - w_i) f_i + w_i f_{i+1}, i = 0..n-1, blends neighbouring
    samples with w_i = q^(n-i-1) [i]_q / [n-1]_q. Both terms are read off
    one q-difference table of f by the identity

        Delta_q^r g_i = (1 - w_i) Delta_q^r f_i + w_{i+r} Delta_q^r f_{i+1},

    so, as w_0 = 0, Delta_q^r g_0 = Delta_q^r f_0 + w_r Delta_q^r f_1. By
    induction on r, from Delta_q^(r+1) g_i = Delta_q^r g_{i+1} - q^r Delta_q^r g_i:
    the terms in Delta_q^r f_i and Delta_q^r f_{i+2} match at once; the term
    in Delta_q^r f_{i+1} matches because w_j = 1 - [n-1-j]_q / [n-1]_q, so
    w_{j+1} - w_j = q^(n-2-j) / [n-1]_q and q^r (w_{i+r+1} - w_{i+r}) = w_{i+1} - w_i.

    The table is integers over one denominator. For q = a/b, alpha = c/d
    in lowest terms, put the samples over their lcm L, f_i = F_i / L, and
    write [j]_q = N_j / b^(j-1) (N_j the numerator of the table's [j]_q).
    The b-powers of w_r cancel: w_r = A_r / N_{n-1} with A_r = a^(n-r-1) N_r.
    The one difference loop, :func:`~aqbernstein.qcalc.q_difference_table`
    run on (a, b), gives E_{r,i} = L b^(r(r-1)/2) Delta_q^r f_i. With
    qbinom(m, r) = P(m, r) / b^(r(m-r)) (P the table's exact ``binomials``)
    the coefficient of x^r is

        (c P(n, r) N_{n-1} E_{r,0} + (d-c) P(n-1, r) b^r (N_{n-1} E_{r,0} + A_r E_{r,1}))
          / (d L N_{n-1} b^(r(r-1)/2 + r(n-r))),

    made a reduced Fraction once. Float mode runs the same loop with
    (a, b, c, d) = (q, 1, alpha, 1), L = 1 and N_j = [j]_q / [n-1]_q,
    j <= n-1, so every denominator is 1 and A_r is the weight w_r itself;
    the common scale of the N_j cancels from every coefficient, and this
    one keeps every N_j and A_r in [0, 1], also for q > 1.
    """
    f = _check_samples(samples, params)
    n, table = params.n, params.table
    if n == 1:
        return Polynomial._trusted(require_finite((f[0], f[1] - f[0]), "apply_to_samples", params))
    row_n, row_n1 = table.binomials[n], table.binomials[n - 1]
    a, b, c, d = _integer_form(params)
    exact = params.mode == "exact"
    if exact:
        L = math.lcm(*[v.denominator for v in f])
        F = [v.numerator * (L // v.denominator) for v in f]
        N = table.numerators[:n]
    else:
        L, F = 1, f
        N = [t / table.integers[n - 1] for t in table.integers[:n]]
    apow = list(accumulate(range(n - 1), lambda p, _: p * a, initial=1))
    A = [apow[n - i - 1] * N[i] for i in range(n)]
    E = q_difference_table(F, a, b)
    coeffs = []
    for r in range(n + 1):
        total = c * row_n[r] * N[n - 1] * E[r][0]
        if r <= n - 1:
            total = total + (d - c) * row_n1[r] * b**r * (N[n - 1] * E[r][0] + A[r] * E[r][1])
        den = d * L * N[n - 1] * b ** (r * (r - 1) // 2 + r * (n - r))
        coeffs.append(Fraction(total, den) if exact else total / den)
    return Polynomial._trusted(require_finite(coeffs, "apply_to_samples", params))


def image_rows(params: OperatorParams, top: int) -> tuple[int, list[list]]:
    """The image matrix a(r, m), the x^r coefficient of T(t^m), as integers
    over one denominator: (D, X) with a(r, m) = X[r][m] / D for
    0 <= r <= m <= top (None for m < r), 0 <= top <= n. Column 0 is T(1) = 1
    and the diagonal holds the eigenvalues, lambda_m = X[m][m] / D, so
    every difference lambda_r - lambda_k is the one integer subtraction
    X[r][r] - X[k][k] over D. Row 0 is [D, 0, .., 0]: the operator
    interpolates at x = 0. For r >= 1, a(r, m) is the paper's

        q^(r(r-1)/2) [n-2]_q! / ([n]_q^m [n-r]_q!)
          * { (1-alpha) [n-r]_q ([n+r-1]_q S_q(m+1,r+1) - [r+1]_q [n-1]_q S_q(m,r+1))
              + alpha [n]_q [n-1]_q S_q(m,r) }.

    Carlitz's recurrence S_q(m+1,r+1) = S_q(m,r) + [r+1]_q S_q(m,r+1) and
    [n+r-1]_q - [n-1]_q = q^(n-1) [r]_q fold the bracket into two
    nonnegative terms on row m alone,

        A_r S_q(m,r) + (1-alpha) q^(n-1) [r]_q [r+1]_q [n-r]_q S_q(m,r+1),

    with A_r = (1-alpha) [n-r]_q [n+r-1]_q + alpha [n]_q [n-1]_q, the
    factor of the closed-form eigenvalue. Every denominator is then
    cleared. For q = a/b, alpha = c/d in lowest terms write
    [j]_q = N_j / b^(j-1) (N_j the table's ``numerators``) and
    S_q(m, j) = U(m, j) / b^(n(m-j)), U from Carlitz's recurrence
    (:func:`~aqbernstein.qcalc.q_stirling2_rows`) on b^n [j]_q, to row top;
    its column top + 1 is zero there and serves r = top. Then
    D = d N_{n-1} (b N_n)^top and
    X(r, m) = F_r b^r (b N_n)^(top-m) (A U(m,r) + B U(m,r+1)),
    F_r = a^(r(r-1)/2) N_{n-1}..N_{n-r+1}, A = (d-c) N_{n-r} N_{n+r-1}
    + c N_n N_{n-1} and B = (d-c) a^(n-1) b^(n-r) N_r N_{r+1} N_{n-r}, all
    integers, by U(m+1,r+1) = U(m,r) + b^(n-r) N_{r+1} U(m,r+1) and
    b^(n-r) N_{n+r-1} - b^n N_{n-1} = a^(n-1) b^(n-r) N_r. No entry is
    reduced: at r = 1, U(1, 1) = 1 and U(1, 2) = 0 give X(1, 1) = D, and
    raising top by one multiplies D and every X(r, m) by b N_n. For
    top < 2 the matrix is read off directly over D = 1.
    Float mode runs the same loop with (a, b, c, d) = (q, 1, alpha, 1) and
    N_j = [j]_q / [n]_q, so U(m, j) = S_q(m, j) / [n]_q^(m-j) and no power
    of [n]_q is formed, then divides each entry by the float D and returns
    1 in its place; a non-finite N_j raises FloatingPointError first. There
    a^(n-1) N_r = q^(n-1) [r]_q / [n]_q is formed first, and is finite
    because q^(n-1) < [n]_q for q >= 1. Every float entry carries rounding,
    so float X[1][1] is 1 only up to rounding; no reader takes it:
    monomial_image(1) comes from the top < 2 branch, the float eigenvector
    recursion reads entries above the diagonal, and float eigenvalues come
    from :func:`~aqbernstein.eigen.spectrum`."""
    n, table = params.n, params.table
    if not 0 <= top <= n:
        raise ValueError(f"need 0 <= k <= n, got k={top}, n={n}")
    exact = params.mode == "exact"
    one = 1 if exact else table.one
    # T fixes 1 and t, and every image vanishes at x = 0
    if top < 2:
        return 1, [[one] + [0] * top, [None, one]][: top + 1]
    a, b, c, d = _integer_form(params)
    if exact:
        N = table.numerators[: n + top]
    else:
        N = require_finite([t / table.integers[n] for t in table.integers[: n + top]],
                           "image_rows", params)
    # cols[j][m] = U(m, j), from b^n [j]_q = b^(n+1-j) N_j
    cols = list(zip(*q_stirling2_rows(
        top, [x * b ** (n + 1 - j) for j, x in enumerate(N[: top + 2])])))
    mpow = list(accumulate(range(top), lambda p, _: p * b * N[n], initial=1))
    den = d * N[n - 1] * mpow[top]
    X = [[den if exact else one] + [0] * top]
    falling = 1  # a^(r(r-1)/2) N_{n-1}..N_{n-r+1}
    for r in range(1, top + 1):
        scale, u = falling * b**r, (d - c) * N[n - r]
        A = scale * (u * N[n + r - 1] + c * N[n] * N[n - 1])
        B = scale * u * (a ** (n - 1) * N[r]) * b ** (n - r) * N[r + 1]
        xs = require_finite([  # X(r, m), m = r..top
            p * (A * s0 + B * s1)
            for p, s0, s1 in zip(mpow[top - r::-1], cols[r][r:], cols[r + 1][r:])
        ], "image_rows", params)
        X.append([None] * r + (xs if exact else [x / den for x in xs]))
        falling *= a**r * N[n - r]
    return (den if exact else 1), X


def monomial_image(k: int, params: OperatorParams) -> MonomialImage:
    """T(t^k) for 1 <= k <= n, column k of ``image_rows(params, k)``:
    a(r, k) is Fraction(X[r][k], D) in exact mode and X[r][k] in float
    mode, where D = 1."""
    if not 1 <= k <= params.n:
        raise ValueError(f"monomial image needs 1 <= k <= n, got k={k}, n={params.n}")
    den, X = image_rows(params, k)
    exact = params.mode == "exact"
    column = (Fraction(X[r][k], den) if exact else X[r][k] for r in range(1, k + 1))
    return MonomialImage(k, (params.table.zero, *column))
