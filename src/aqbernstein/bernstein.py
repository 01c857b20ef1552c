"""The (alpha,q)-Bernstein operator T_{n,q,alpha}.

T_{n,q,alpha} sends a function f on [0,1], known through its samples
f_i = f([i]_q / [n]_q), to the degree-n polynomial

    T_{n,q,alpha}(f; x) = sum_i f_i * p_{n,q,i}^{(alpha)}(x),

where the basis blends two q-binomial families by the parameter alpha:
alpha = 1 recovers the q-Bernstein operator and q = 1 the alpha-Bernstein
operator. The module provides two independent computation routes, the basis
sum above (``apply_pointwise``) and the forward q-difference representation

    sum_r [ (1-alpha) qbinom(n-1, r) Delta_q^r g_0
            + alpha qbinom(n, r) Delta_q^r f_0 ] x^r

(``apply_to_samples``), plus the closed-form coefficients of the monomial
images T(t^k) from which the eigenstructure is built.

Basis evaluation uses a factored form in which the removable division by
(1 - q^(n-i-1) x) has been cancelled, so no evaluation point is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .polynomials import Polynomial
from .qcalc import q_difference_table, q_integer, q_stirling2
from .scalars import MixedModeError, Scalar, coerce, common_mode


@dataclass(frozen=True)
class OperatorParams:
    """The triple (n, q, alpha) defining T_{n,q,alpha}.

    Requires n >= 1, finite q and alpha, and q > 0. alpha must lie in [0,1]
    unless ``allow_any_alpha`` is set; outside that interval the eigenvalue
    distinctness guarantee is void, so eigen computations refuse by default.
    q and alpha must share a scalar mode (ints count as exact).
    """

    n: int
    q: Scalar
    alpha: Scalar
    allow_any_alpha: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        mode = common_mode(self.q, self.alpha) or "exact"
        object.__setattr__(self, "q", coerce(self.q, mode))
        object.__setattr__(self, "alpha", coerce(self.alpha, mode))
        if mode == "float" and not (math.isfinite(self.q) and math.isfinite(self.alpha)):
            raise ValueError(
                f"q and alpha must be finite, got q={self.q}, alpha={self.alpha}"
            )
        if not self.q > 0:
            raise ValueError(f"q must be positive, got {self.q}")
        if not self.allow_any_alpha and not 0 <= self.alpha <= 1:
            raise ValueError(
                f"alpha={self.alpha} is outside [0,1]; pass allow_any_alpha=True "
                "to compute anyway (eigenvalue distinctness is then unverified)"
            )

    @property
    def mode(self) -> str:
        return "float" if isinstance(self.q, float) else "exact"

    @property
    def alpha_in_unit_interval(self) -> bool:
        return 0 <= self.alpha <= 1


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


def _q_integers(n: int, q: Scalar) -> list[Scalar]:
    """[0]_q..[n]_q from [m+1]_q = 1 + q [m]_q."""
    qints = [q * 0]
    for _ in range(n):
        qints.append(1 + q * qints[-1])
    return qints


def sample_nodes(params: OperatorParams) -> tuple[Scalar, ...]:
    """The nodes [i]_q / [n]_q for i = 0..n; starts at 0, ends at 1."""
    qints = _q_integers(params.n, params.q)
    return tuple(t / qints[-1] for t in qints)


def _qbinom_row(n: int, q: Scalar) -> tuple[Scalar, ...]:
    """All q-binomials (n choose i)_q for i = 0..n, by incremental update."""
    qints = _q_integers(n, q)
    row = [q * 0 + 1]
    for i in range(n):
        row.append(row[-1] * qints[n - i] / qints[i + 1])
    return tuple(row)


def basis_values(params: OperatorParams, x: Scalar) -> tuple[Scalar, ...]:
    """All n+1 basis values p_{n,q,i}^{(alpha)}(x), i = 0..n.

    For n >= 2 the value at index i has three contributions, with the
    removable factor cancelled:

        (1-alpha) qbinom(n-2, i)   x^i     (x;q)_{n-i-1}
      + (1-alpha) qbinom(n-2, i-2) q^(n-i) x^(i-1) (x;q)_{n-i}
      + alpha     qbinom(n, i)     x^i     (x;q)_{n-i}

    The q-power on the middle term must be n-i for the family to sum to 1
    (partition of unity) and to agree with the forward-difference form of
    the operator; both are enforced by tests. The powers of q and x, the
    q-shifted-product prefixes and the binomial rows are built once as
    running products and shared across i.
    """
    n, q, alpha = params.n, params.q, params.alpha
    mode = common_mode(q, x)
    if mode is not None and mode != params.mode:
        raise MixedModeError(f"x is {mode}-mode but operator parameters are {params.mode}")
    x = coerce(x, params.mode)
    if n == 1:
        return (1 - x, x)
    one = q * 0 + 1
    qpow, xpow, poch = [one], [one], [one]
    for _ in range(n):
        poch.append(poch[-1] * (1 - x * qpow[-1]))
        qpow.append(qpow[-1] * q)
        xpow.append(xpow[-1] * x)
    row_n = _qbinom_row(n, q)
    row_n2 = _qbinom_row(n - 2, q)
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
    return tuple(values)


def _g_samples(samples: tuple[Scalar, ...], params: OperatorParams) -> tuple[Scalar, ...]:
    """The blended sequence g_i, i = 0..n-1 (a q-weighted mix of f_i, f_{i+1})
    with weights w_i = q^(n-i-1) [i]_q / [n-1]_q, from running q-powers and
    q-integers."""
    n, q = params.n, params.q
    qints = _q_integers(n - 1, q)
    qpow = [q * 0 + 1]
    for _ in range(n - 1):
        qpow.append(qpow[-1] * q)
    out = []
    for i in range(n):
        w = qpow[n - i - 1] * qints[i] / qints[-1]
        out.append((1 - w) * samples[i] + w * samples[i + 1])
    return tuple(out)


def apply_to_samples(samples: Sequence[Scalar], params: OperatorParams) -> Polynomial:
    """T_{n,q,alpha}(f; .) as a polynomial, via the forward-difference form.

    n = 1 is linear interpolation f_0 (1-x) + f_1 x; for n >= 2 the
    coefficient of x^r combines Delta_q^r g_0 and Delta_q^r f_0 (the g term
    is absent at r = n, where its q-binomial weight vanishes).
    """
    f = _check_samples(samples, params)
    n, q, alpha = params.n, params.q, params.alpha
    if n == 1:
        return Polynomial((f[0], f[1] - f[0]))
    ftable = q_difference_table(f, q)
    gtable = q_difference_table(_g_samples(f, params), q)
    row_n = _qbinom_row(n, q)
    row_n1 = _qbinom_row(n - 1, q)
    coeffs = []
    for r in range(n + 1):
        c = alpha * row_n[r] * ftable[r][0]
        if r <= n - 1:
            c = c + (1 - alpha) * row_n1[r] * gtable[r][0]
        coeffs.append(c)
    return Polynomial(tuple(coeffs))


def apply_pointwise(
    samples: Sequence[Scalar], params: OperatorParams, x: Scalar
) -> Scalar:
    """T_{n,q,alpha}(f; x) as the basis-weighted sum of the samples.

    A computation route independent of ``apply_to_samples``; the two agree
    exactly as polynomials.
    """
    f = _check_samples(samples, params)
    row = basis_values(params, x)
    return sum((f[i] * row[i] for i in range(params.n + 1)), start=params.q * 0)


def falling_products(params: OperatorParams, m: int) -> tuple[Scalar, ...]:
    """G_0..G_m with G_r = prod_{t=1}^{r-1} (1 - [t]_q/[n]_q), G_0 = G_1 = 1.

    The falling q-product behind the eigenvalues, their differences and the
    monomial images, built as a prefix product with [t+1]_q = 1 + q [t]_q.
    """
    n, q = params.n, params.q
    dn = q_integer(n, q)
    out = [q * 0 + 1]
    t_q = q * 0  # [0]_q, so G_1 = G_0
    for _ in range(m):
        out.append(out[-1] * (1 - t_q / dn))
        t_q = 1 + q * t_q
    return tuple(out)


def monomial_image(k: int, params: OperatorParams) -> MonomialImage:
    """Coefficients of T(t^k; x) for 1 <= k <= n.

    The coefficient of x^r is

        q^(r(r-1)/2) * ([n-2]_q! / ([n]_q^k [n-r]_q!))
          * { (1-alpha) [n-r]_q ([n+r-1]_q S_q(k+1,r+1)
                                 - [r+1]_q [n-1]_q S_q(k,r+1))
              + alpha [n]_q [n-1]_q S_q(k,r) }

    evaluated as G_r ([n]_q/[n-1]_q) / [n]_q^(k-r) times the braces over
    [n]_q^2, with G_r from :func:`falling_products`: the same value, since
    1 - [t]_q/[n]_q = q^t [n-t]_q/[n]_q, without the raw q-factorials.
    """
    n, q, alpha = params.n, params.q, params.alpha
    if not 1 <= k <= n:
        raise ValueError(f"monomial image needs 1 <= k <= n, got k={k}, n={n}")
    if n == 1:
        return MonomialImage(1, (q * 0, q * 0 + 1))

    dn = q_integer(n, q)
    ratio_n1 = q_integer(n - 1, q) / dn
    lead = dn / q_integer(n - 1, q)
    falling = falling_products(params, k)
    coeffs = []
    for r in range(k + 1):
        s_up = q_stirling2(k + 1, r + 1, q)
        s_mid = q_stirling2(k, r + 1, q)
        s_low = q_stirling2(k, r, q)
        braces = (1 - alpha) * (q_integer(n - r, q) / dn) * (
            (q_integer(n + r - 1, q) / dn) * s_up
            - q_integer(r + 1, q) * ratio_n1 * s_mid
        ) + alpha * ratio_n1 * s_low
        coeffs.append(falling[r] * lead / dn ** (k - r) * braces)
    return MonomialImage(k, tuple(coeffs))
