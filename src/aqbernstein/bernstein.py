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
which the eigenstructure is built. One ``monomial_images`` call builds a
set T(t^1)..T(t^top) from one triangle of the one production recurrence,
:func:`~aqbernstein.qcalc.q_stirling2_rows`, built to row top + 1; the
explicit sum is an oracle in :mod:`aqbernstein.verify`.

The kernels here and in :mod:`aqbernstein.eigen` read their q-sequences
from one :class:`QTable` per operator, ``OperatorParams.table``. In float
mode they raise FloatingPointError rather than return a nan or an infinity.

Basis evaluation uses a factored form in which the removable division by
(1 - q^(n-i-1) x) has been cancelled, so no evaluation point is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def monomial_images(params: OperatorParams, top: int) -> dict[int, MonomialImage]:
    """The monomial images T(t^k) for k = 1..top, keyed by k; 0 <= top <= n.

    The coefficient of x^r in T(t^k; x) is

        q^(r(r-1)/2) * ([n-2]_q! / ([n]_q^k [n-r]_q!))
          * { (1-alpha) [n-r]_q ([n+r-1]_q S_q(k+1,r+1)
                                 - [r+1]_q [n-1]_q S_q(k,r+1))
              + alpha [n]_q [n-1]_q S_q(k,r) }

    evaluated as G_r ([n]_q/[n-1]_q) / [n]_q^(k-r) times the braces over
    [n]_q^2, with G_r from :func:`falling_products`: the same value, since
    1 - [t]_q/[n]_q = q^t [n-t]_q/[n]_q, without the raw q-factorials.
    Every image reads one table G_0..G_top and one triangle of q-Stirling
    rows 0..top+1 (:func:`~aqbernstein.qcalc.q_stirling2_rows`), sized by
    top, not by n. In float mode an overflow of [n]_q^(k-r) raises
    FloatingPointError naming (n, q, alpha, k).
    """
    n, q, alpha, table = params.n, params.q, params.alpha, params.table
    if not 0 <= top <= n:
        raise ValueError(f"need 0 <= k <= n, got k={top}, n={n}")
    if n == 1:
        return {k: MonomialImage(k, (table.zero, table.one)) for k in range(1, top + 1)}

    qint, dn = table.integers, table.integers[n]
    ratio_n1 = qint[n - 1] / dn
    lead = dn / qint[n - 1]
    falling = falling_products(params, top)
    stirling = q_stirling2_rows(top + 1, qint[: top + 2])
    images = {}
    for k in range(1, top + 1):
        try:
            coeffs = []
            for r in range(k + 1):
                braces = (1 - alpha) * (qint[n - r] / dn) * (
                    (qint[n + r - 1] / dn) * stirling[k + 1][r + 1]
                    - qint[r + 1] * ratio_n1 * stirling[k][r + 1]
                ) + alpha * ratio_n1 * stirling[k][r]
                coeffs.append(falling[r] * lead / dn ** (k - r) * braces)
        except OverflowError as exc:
            raise FloatingPointError(
                f"float OverflowError in monomial_image: {exc} "
                f"(n={n}, q={q}, alpha={alpha}, k={k})"
            ) from exc
        coeffs = require_finite(tuple(coeffs), "monomial_image", params, k)
        images[k] = MonomialImage(k, coeffs)
    return images


def monomial_image(k: int, params: OperatorParams) -> MonomialImage:
    """T(t^k) for 1 <= k <= n, read from :func:`monomial_images`."""
    if not 1 <= k <= params.n:
        raise ValueError(f"monomial image needs 1 <= k <= n, got k={k}, n={params.n}")
    return monomial_images(params, k)[k]
