"""Eigenvalues and monic eigenvector polynomials of T_{n,q,alpha}.

The operator fixes constants and x, so lambda_0 = lambda_1 = 1 with
eigenvectors 1 and x. For k = 2..n :func:`spectrum` computes the
eigenvalue as the product form lambda_k = u_k G_k, with the falling q-product
G_k = prod_{t=1}^{k-1} (1 - [t]_q/[n]_q) and
u_k = alpha + (1-alpha) [n-k]_q [n+k-1]_q / ([n]_q [n-1]_q). Since
1 - [t]_q/[n]_q = q^t [n-t]_q/[n]_q this equals the paper's closed form

    lambda_k = q^(k(k-1)/2) * ([n-2]_q! / ([n-k]_q! [n]_q^k))
               * ((1-alpha) [n-k]_q [n-1+k]_q + alpha [n]_q [n-1]_q),

which serves only as the oracle (``verify.closed_form_eigenvalue``).

The monic eigenvector of degree k is built top-down: its coefficient of
x^(k-j) is a linear combination of already-known higher coefficients
weighted by coefficients of the images T(t^m), m <= k, divided by
lambda_k - lambda_{k-j}. Both modes read the image matrix from
:func:`aqbernstein.bernstein.image_rows`, and each runs its own recursion.
Exact mode (:func:`_exact_coeffs`) stays on integers, in the spirit of
Bareiss's fraction-free elimination, takes every difference from the
image diagonal by one integer subtraction and forms one reduced Fraction
per coefficient; its docstring derives the bookkeeping. Float mode
(:func:`_float_coeffs`) runs the plain float recursion on the gaps of
:func:`spectrum`. The q-sequences come from ``OperatorParams.table``; in
float mode a nan or an infinity raises FloatingPointError.

:func:`spectrum` builds the eigenvalues by the product form together with
their gaps

    lambda_{i+1} - lambda_i
        = -G_i (u_{i+1} [i]_q/[n]_q + (1-alpha) q^(n-i-1) [2i]_q/([n]_q [n-1]_q)),

and the float recursion takes lambda_k - lambda_m as the running sum of
the gaps i = m..k-1. For alpha in [0,1] both terms of a gap are
non-negative and the first is positive for i >= 1, so the lambda sequence
is strictly decreasing from k = 1, which makes the recursion well posed,
and the sum adds terms of one sign without cancellation. Subtracting
separately computed float eigenvalues would not do: for q > 1 and large n,
lambda_k and lambda_m agree to within ~q^(k-n), so float subtraction loses
every significant digit. Exact subtraction loses nothing, so exact mode
needs no gaps, and an exact eigensystem takes its eigenvalues from the
image diagonal. In exact mode the product form serves :func:`eigenvalue`
and verify's leading-coefficient check, which compares it with the image
diagonal and the closed form (tests pin the gap sums against direct
subtraction).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bernstein import OperatorParams, image_rows
from .polynomials import Polynomial
from .scalars import Scalar, coerce, require_finite, scalar_from_json, scalar_to_json


class DegenerateEigenvalueError(ArithmeticError):
    """A required eigenvalue difference vanished (or lost all float precision)."""


def spectrum(
    params: OperatorParams, top: int
) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """lambda_0..lambda_top and the gaps lambda_{i+1} - lambda_i for i < top.

    lambda_0 = lambda_1 = 1 and lambda_k = u_k G_k for k >= 2, with the
    falling q-product G_k = G_{k-1} q^(k-1) [n-k+1]_q/[n]_q kept as a
    running product from G_1 = 1; each factor equals 1 - [k-1]_q/[n]_q
    without the subtraction, which cancels in floats for q < 1 once
    [k-1]_q nears [n]_q. The gap lambda_k - lambda_{k-1} is
    -G_{k-1} (u_k [k-1]_q/[n]_q + u_{k-1} - u_k), where
    u_{k-1} - u_k = (1-alpha) q^(n-k) [2k-2]_q / ([n]_q [n-1]_q).
    """
    n, alpha, table = params.n, params.alpha, params.table
    if not 0 <= top <= n:
        raise ValueError(f"eigenvalue index needs 0 <= k <= n, got k={top}, n={n}")
    # lambda_0 = lambda_1 = 1 and their zero gap need no q-integer, so they
    # come out even where [n]_q overflows float range
    lambdas, gaps = [table.one, table.one][: top + 1], [table.zero][:top]
    if top < 2:
        return tuple(lambdas), tuple(gaps)
    qpow, qint, dn, dn1 = table.powers, table.integers, table.integers[n], table.integers[n - 1]
    falling = table.one  # G_{k-1}
    for k in range(2, top + 1):
        u, u_drop = table.one, table.zero
        if alpha != 1:
            # skip the vanishing (1-alpha) terms at alpha = 1: [n+k-1]_q may
            # overflow float range at extreme n even though it contributes
            # nothing
            u = alpha + (1 - alpha) * (qint[n - k] / dn) * (qint[n + k - 1] / dn1)
            u_drop = (1 - alpha) * qpow[n - k] * qint[2 * k - 2] / (dn * dn1)
        gaps.append(-falling * (u * qint[k - 1] / dn + u_drop))
        falling *= qpow[k - 1] * qint[n - k + 1] / dn  # G_k
        lambdas.append(u * falling)
    # at alpha = 1 an infinite [n]_q would leave every lambda_k = 1
    require_finite((dn, *lambdas, *gaps), "spectrum", params)
    return tuple(lambdas), tuple(gaps)


def eigenvalue(k: int, params: OperatorParams) -> Scalar:
    """lambda_k = u_k G_k for 0 <= k <= n; equals 1 for k in {0, 1}."""
    return spectrum(params, k)[0][k]


def _exact_coeffs(k: int, params: OperatorParams, X: list[list]) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_k of p_k in exact mode, from the numerators X of
    one :func:`~aqbernstein.bernstein.image_rows` call for any top >= k:
    a(r, m) = X[r][m] / D and lambda_m = X[m][m] / D over the one D.

    c_r = sum_{m=r+1..k} c_m a(r, m) / (lambda_k - lambda_r), for r = k-1
    down to 0. The common D cancels from every step,

        c_r = -sum_{m=r+1..k} c_m X(r, m) / (X(r, r) - X(k, k)),

    so the recursion never reads D. Each known c_m stays the integer
    numerator v[m] over the denominator w_m it was formed with,
    c_m = v[m] / w_m: w_k = 1, and step r grows w_{r+1} by a factor g_r to
    w_r = w_{r+1} g_r. Over w_{r+1} the sum is the integer dot product
    total = sum_m v[m] X(r, m) (w_{r+1} / w_m), with w_{r+1} / w_m =
    g_{r+1} ... g_{m-1}, taken from m = k down by nested multiplication
    (Horner's rule over the g_j), total <- total g_m + v[m] X(r, m); no
    known numerator is ever rescaled. Then c_r = T / (w_{r+1} S) with
    T = -total and S = X(r, r) - X(k, k), positive since the lambdas
    decrease; S has the size of an image entry, not of p_k's numerators.
    With h = gcd(T, S), g_r = S // h makes w_r the lcm of w_{r+1} and c_r's
    denominator (per prime, lcm(w, w S / e) = w S / gcd(e, S) for
    e = gcd(T, w S), and gcd(e, S) = h), and v[r] = T // h. Since
    gcd(T // h, S // h) = 1, gcd(v[r], w_r) = gcd(T // h, w_{r+1}), and
    c_r = v[r] / w_r is the one reduced Fraction formed per coefficient:
    the values, and with them every w_r and v[r], are those of the reduced
    scalar recursion whatever the top of X, and no Fraction q-sequence is
    formed.

    Raises DegenerateEigenvalueError when a difference lambda_k - lambda_r
    is zero, before dividing by it.
    """
    n, q, alpha, table = params.n, params.q, params.alpha, params.table
    if k == 1:
        return (table.zero, table.one)
    c = [table.zero] * k + [table.one]
    v = [0] * (k + 1)
    v[k] = w = 1
    g = [1] * (k + 1)  # g[m]: the factor by which step m grew w
    for r in range(k - 1, -1, -1):
        row = X[r]
        total = row[k]
        for m in range(k - 1, r, -1):
            total = total * g[m] + v[m] * row[m]
        S = row[r] - X[k][k]
        if S == 0:
            raise DegenerateEigenvalueError(
                f"lambda_{k} - lambda_{r} vanished for n={n}, q={q}, alpha={alpha}"
            )
        h = math.gcd(total, S)
        g[r] = S // h
        w *= g[r]
        v[r] = -total // h
        c[r] = Fraction(v[r], w)
    return tuple(c)


def _float_coeffs(k: int, params: OperatorParams, X: list[list],
                  gaps: tuple[float, ...]) -> tuple[float, ...]:
    """Coefficients c_0..c_k of p_k in float mode, from the entries
    X[r][m] = a(r, m) of :func:`~aqbernstein.bernstein.image_rows` for any
    top >= k and the gaps lambda_{i+1} - lambda_i, i < k, of
    :func:`spectrum`: c_r = sum_{m=r+1..k} c_m X[r][m] / diff for r = k-1
    down to 0, with diff = lambda_k - lambda_r the running sum of the gaps
    i = r..k-1.

    Raises DegenerateEigenvalueError when a difference underflows below the
    smallest normal float (no relative precision left), before dividing by
    it, and FloatingPointError for a non-finite coefficient. Every gap is
    negative in exact arithmetic, so a difference of 0.0 is an underflow
    too.
    """
    n, q, alpha, table = params.n, params.q, params.alpha, params.table
    if k == 1:
        return (table.zero, table.one)
    c = [table.zero] * k + [table.one]
    diff = table.zero  # lambda_k - lambda_r
    for r in range(k - 1, -1, -1):
        row = X[r]
        total = 0
        for m in range(k, r, -1):
            total = total + c[m] * row[m]
        diff = diff + gaps[r]
        if abs(diff) < sys.float_info.min:
            raise DegenerateEigenvalueError(
                f"lambda_{k} - lambda_{r} underflowed in float mode "
                f"(n={n}, q={q}, alpha={alpha})"
            )
        c[r] = total / diff
    return require_finite(tuple(c), "eigenvector", params, k)


def eigenvector(k: int, params: OperatorParams) -> Polynomial:
    """The monic degree-k eigenvector polynomial p_k (p_0 = 1, p_1 = x)."""
    X = image_rows(params, k)[1]
    if params.mode == "exact":
        return Polynomial._trusted(_exact_coeffs(k, params, X))
    return Polynomial._trusted(_float_coeffs(k, params, X, spectrum(params, k)[1]))


@dataclass(frozen=True)
class EigenSystem:
    """The complete eigenstructure of one operator.

    ``lambdas[k]`` pairs with the monic degree-k polynomial ``vectors[k]``.
    """

    params: OperatorParams
    lambdas: tuple[Scalar, ...]
    vectors: tuple[Polynomial, ...]

    def as_dict(self) -> dict:
        """JSON-ready form with keys n, q, alpha, lambdas, vectors."""
        return {
            "n": self.params.n,
            "q": scalar_to_json(self.params.q),
            "alpha": scalar_to_json(self.params.alpha),
            "lambdas": [scalar_to_json(v) for v in self.lambdas],
            "vectors": [[scalar_to_json(c) for c in p.coeffs] for p in self.vectors],
        }


def eigensystem_from_dict(obj: dict) -> EigenSystem:
    """Rebuild an EigenSystem from its ``as_dict`` form; its parameters are
    validated as by :class:`OperatorParams` (an int n >= 1, alpha in [0,1]),
    every eigenvalue and coefficient must be in the parameters' scalar mode
    (MixedModeError otherwise), ``lambdas`` and ``vectors`` must hold n + 1
    entries each, and ``vectors[k]`` must be monic of degree k."""
    q = scalar_from_json(obj["q"])
    alpha = scalar_from_json(obj["alpha"])
    params = OperatorParams(obj["n"], q, alpha)
    lambdas = tuple([coerce(scalar_from_json(v), params.mode) for v in obj["lambdas"]])
    vectors = tuple([
        Polynomial._trusted([coerce(scalar_from_json(c), params.mode) for c in coeffs])
        for coeffs in obj["vectors"]
    ])
    if len(lambdas) != params.n + 1 or len(vectors) != params.n + 1:
        raise ValueError(
            f"n={params.n} needs {params.n + 1} lambdas and vectors, "
            f"got {len(lambdas)} and {len(vectors)}"
        )
    for k, vec in enumerate(vectors):
        if vec.degree != k or vec.coeffs[k] != 1:
            raise ValueError(f"vectors[{k}] is not monic of degree {k}")
    return EigenSystem(params, lambdas, vectors)


def eigensystem(params: OperatorParams) -> EigenSystem:
    """All eigenvalues and monic eigenvectors for k = 0..n, from one image
    matrix, ``image_rows(params, n)`` = (D, X), which every recursion reads.
    In exact mode the eigenvalues are its diagonal, lambda_m = X[m][m] / D;
    in float mode one :func:`spectrum` call gives every eigenvalue and the
    gaps that every recursion sums."""
    den, X = image_rows(params, params.n)
    ks = range(params.n + 1)
    if params.mode == "exact":
        lambdas = tuple([Fraction(X[m][m], den) for m in ks])
        vectors = [_exact_coeffs(k, params, X) for k in ks]
    else:
        lambdas, gaps = spectrum(params, params.n)
        vectors = [_float_coeffs(k, params, X, gaps) for k in ks]
    return EigenSystem(params, lambdas, tuple([Polynomial._trusted(c) for c in vectors]))
