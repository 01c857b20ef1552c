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
to row top + 1; the explicit sum is an oracle in :mod:`aqbernstein.verify`.

The kernels here and in :mod:`aqbernstein.eigen` read their q-sequences
from one :class:`QTable` per operator, ``OperatorParams.table``. In float
mode they raise FloatingPointError rather than return a nan or an infinity.

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
from .scalars import MixedModeError, Scalar, coerce, common_mode, require_finite


class QTable:
    """The q-sequences of one operator in its scalar mode: ``zero``, ``one``,
    ``powers[m]`` = q^m and ``integers[m]`` = [m]_q for 0 <= m <= 2n-1 (in
    float mode, infinite past float range), and ``binomials``."""

    def __init__(self, n: int, q: Scalar):
        self.n, self.zero = n, q * 0
        self.one = one = self.zero + 1
        self.powers = tuple(accumulate(range(2 * n - 1), lambda p, _: q * p, initial=one))
        self.integers = q_integers(q, 2 * n - 1)

    @cached_property
    def binomials(self) -> dict[int, tuple[Scalar, ...]]:
        """The q-binomial rows (m choose i)_q, i = 0..m, keyed by m = n-2, n-1,
        n (those >= 0); built on first use, each entry from the one before."""
        qint = self.integers
        return {
            m: tuple(accumulate(range(m), lambda b, i: b * qint[m - i] / qint[i + 1],
                                initial=self.one))
            for m in range(max(self.n - 2, 0), self.n + 1)
        }


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
    mode = common_mode(params.q, *samples)
    if mode is not None and mode != params.mode:
        raise MixedModeError(
            f"samples are {mode}-mode but operator parameters are {params.mode}"
        )
    return tuple(coerce(v, params.mode) for v in samples)


def sample_nodes(params: OperatorParams) -> tuple[Scalar, ...]:
    """The nodes [i]_q / [n]_q for i = 0..n; starts at 0, ends at 1."""
    qints = params.table.integers[: params.n + 1]
    return require_finite(tuple(t / qints[-1] for t in qints), "sample_nodes", params)


def basis_values(params: OperatorParams, x: Scalar) -> tuple[Scalar, ...]:
    """All n+1 basis values p_{n,q,i}^{(alpha)}(x), i = 0..n.

    For n >= 2 the value at index i has three contributions, with the
    removable factor cancelled:

        (1-alpha) qbinom(n-2, i)   x^i     (x;q)_{n-i-1}
      + (1-alpha) qbinom(n-2, i-2) q^(n-i) x^(i-1) (x;q)_{n-i}
      + alpha     qbinom(n, i)     x^i     (x;q)_{n-i}

    The q-power on the middle term must be n-i for the family to sum to 1
    (partition of unity) and to agree with the forward-difference form of
    the operator; both are enforced by tests. The q-powers and binomial
    rows come from the table; the powers of x and the q-shifted-product
    prefixes are running products shared across i.
    """
    n, alpha, table = params.n, params.alpha, params.table
    mode = common_mode(params.q, x)
    if mode is not None and mode != params.mode:
        raise MixedModeError(f"x is {mode}-mode but operator parameters are {params.mode}")
    x = coerce(x, params.mode)
    if n == 1:
        return require_finite((1 - x, x), "basis_values", params)
    one, qpow = table.one, table.powers
    xpow = list(accumulate(range(n), lambda p, _: p * x, initial=one))
    poch = list(accumulate(qpow[:n], lambda p, qm: p * (1 - x * qm), initial=one))
    row_n, row_n2 = table.binomials[n], table.binomials[n - 2]
    values = []
    for i in range(n + 1):
        total = alpha * row_n[i] * xpow[i] * poch[n - i]
        if i <= n - 2:
            total = total + (1 - alpha) * row_n2[i] * xpow[i] * poch[n - i - 1]
        if i >= 2:
            total = total + (
                (1 - alpha) * row_n2[i - 2] * qpow[n - i] * xpow[i - 1] * poch[n - i]
            )
        values.append(total)
    return require_finite(tuple(values), "basis_values", params)


def _g_samples(samples: tuple[Scalar, ...], params: OperatorParams) -> tuple[Scalar, ...]:
    """The blended sequence g_i, i = 0..n-1 (a q-weighted mix of f_i, f_{i+1})
    with weights w_i = q^(n-i-1) [i]_q / [n-1]_q."""
    n, qpow, qint = params.n, params.table.powers, params.table.integers
    weights = (qpow[n - i - 1] * qint[i] / qint[n - 1] for i in range(n))
    return tuple((1 - w) * f0 + w * f1 for w, f0, f1 in zip(weights, samples, samples[1:]))


def apply_to_samples(samples: Sequence[Scalar], params: OperatorParams) -> Polynomial:
    """T_{n,q,alpha}(f; .) as a polynomial, via the forward-difference form.

    n = 1 is linear interpolation f_0 (1-x) + f_1 x; for n >= 2 the
    coefficient of x^r combines Delta_q^r g_0 and Delta_q^r f_0 (the g term
    is absent at r = n, where its q-binomial weight vanishes).
    """
    f = _check_samples(samples, params)
    n, q, alpha = params.n, params.q, params.alpha
    if n == 1:
        return Polynomial(require_finite((f[0], f[1] - f[0]), "apply_to_samples", params))
    ftable = q_difference_table(f, q)
    gtable = q_difference_table(_g_samples(f, params), q)
    row_n, row_n1 = params.table.binomials[n], params.table.binomials[n - 1]
    coeffs = []
    for r in range(n + 1):
        c = alpha * row_n[r] * ftable[r][0]
        if r <= n - 1:
            c = c + (1 - alpha) * row_n1[r] * gtable[r][0]
        coeffs.append(c)
    return Polynomial(require_finite(tuple(coeffs), "apply_to_samples", params))


def falling_products(params: OperatorParams, m: int) -> tuple[Scalar, ...]:
    """G_0..G_m with G_r = prod_{t=1}^{r-1} (1 - [t]_q/[n]_q), G_0 = G_1 = 1.

    The falling q-product behind the eigenvalues, their differences and the
    monomial images, built as a prefix product over the table and only as
    far as m. Each factor is formed as q^t [n-t]_q/[n]_q, the same value
    without the subtraction, which cancels in floats for q < 1 once [t]_q
    nears [n]_q.
    """
    n, table = params.n, params.table
    qpow, qint, dn = table.powers, table.integers, table.integers[n]
    out = [table.one]
    for t in range(m):
        out.append(out[-1] * (qpow[t] * qint[n - t] / dn))
    return tuple(out)


def image_rows(params: OperatorParams, top: int) -> tuple[list[tuple[int, list]], list[Scalar]]:
    """The image matrix a(r, m), the x^r coefficient of T(t^m), m = 1..top
    (0 <= top <= n): rows (d_r, R_r), r < top, with a(r, m) = R_r[m] / d_r
    for r < m <= top (None for m <= r), and the diagonal a(m, m) = lambda_m,
    m = 0..top. Row 0 is zero: the operator interpolates at x = 0. For
    r >= 1, a(r, m) is the paper's

        q^(r(r-1)/2) [n-2]_q! / ([n]_q^m [n-r]_q!)
          * { (1-alpha) [n-r]_q ([n+r-1]_q S_q(m+1,r+1) - [r+1]_q [n-1]_q S_q(m,r+1))
              + alpha [n]_q [n-1]_q S_q(m,r) }

    with every denominator cleared. For q = a/b, alpha = c/d in lowest terms
    write [j]_q = N_j / b^(j-1) (N_j the numerator of the table's [j]_q) and
    S_q(m, j) = U(m, j) / b^(n(m-j)), U from Carlitz's recurrence
    (:func:`~aqbernstein.qcalc.q_stirling2_rows`) on b^n [j]_q, to row
    top + 1. Then a(r, m) = X(r, m) / D with D = d N_{n-1} (b N_n)^top and
    X = F_r b^r (b N_n)^(top-m) (t1 U(m+1,r+1) - t2 U(m,r+1) + t3 U(m,r)),
    F_r = a^(r(r-1)/2) N_{n-1}..N_{n-r+1}, t1 = (d-c) N_{n-r} N_{n+r-1},
    t2 = (d-c) N_{n-r} b^n N_{r+1} N_{n-1} and t3 = c N_n N_{n-1}, all
    integers. Row r is reduced by one gcd, so d_r is the lcm of its reduced
    denominators; the diagonal comes from the same numerators. Float mode
    runs the same loop with (a, b, c, d) = (q, 1, alpha, 1) and
    N_j = [j]_q / [n]_q, so U(m, j) = S_q(m, j) / [n]_q^(m-j), no power of
    [n]_q is formed, d_r = 1 and each entry is divided by D; a non-finite
    N_j raises FloatingPointError first."""
    n, q, alpha, table = params.n, params.q, params.alpha, params.table
    if not 0 <= top <= n:
        raise ValueError(f"need 0 <= k <= n, got k={top}, n={n}")
    # T fixes 1 and t, and every image vanishes at x = 0
    rows = [(1, [None] + [0] * top)][:top]
    diagonal = [table.one] * min(top + 1, 2)
    if top < 2:
        return rows, diagonal
    exact = params.mode == "exact"
    if exact:
        a, b, c, d = q.numerator, q.denominator, alpha.numerator, alpha.denominator
        N = [t.numerator for t in table.integers[: n + top]]
    else:
        a, b, c, d = q, 1, alpha, 1
        N = require_finite([t / table.integers[n] for t in table.integers[: n + top]],
                           "image_rows", params)
    # cols[j][m] = U(m, j), from b^n [j]_q = b^(n+1-j) N_j
    cols = list(zip(*q_stirling2_rows(
        top + 1, [x * b ** (n + 1 - j) for j, x in enumerate(N[: top + 2])])))
    mpow = list(accumulate(range(top), lambda p, _: p * b * N[n], initial=1))
    den = d * N[n - 1] * mpow[top]
    falling = 1  # a^(r(r-1)/2) N_{n-1}..N_{n-r+1}
    for r in range(1, top + 1):
        scale, u = falling * b**r, (d - c) * N[n - r]
        t1 = scale * u * N[n + r - 1]
        t2 = scale * u * b**n * N[r + 1] * N[n - 1]
        t3 = scale * c * N[n] * N[n - 1]
        xs = require_finite([  # X(r, m), m = r..top
            p * (t1 * s1 - t2 * s2 + t3 * s3) for p, s1, s2, s3 in zip(
                mpow[top - r::-1], cols[r + 1][r + 1:], cols[r + 1][r:], cols[r][r:])
        ], "image_rows", params)
        if r >= 2:
            diagonal.append(table.one * xs[0] / den)
        if r < top:
            if exact:
                g = math.gcd(den, *xs[1:])
                rows.append((den // g, [None] * (r + 1) + [x // g for x in xs[1:]]))
            else:
                rows.append((1, [None] * (r + 1) + [x / den for x in xs[1:]]))
        falling *= a**r * N[n - r]
    return rows, diagonal


def monomial_image(k: int, params: OperatorParams) -> MonomialImage:
    """T(t^k) for 1 <= k <= n, the last column of ``image_rows(params, k)``:
    a(r, k) is Fraction(R_r[k], d_r) in exact mode and R_r[k] in float mode."""
    if not 1 <= k <= params.n:
        raise ValueError(f"monomial image needs 1 <= k <= n, got k={k}, n={params.n}")
    rows, diagonal = image_rows(params, k)
    exact = params.mode == "exact"
    column = (Fraction(row[k], d) if exact else row[k] for d, row in rows[1:])
    return MonomialImage(k, (params.table.zero, *column, diagonal[k]))
