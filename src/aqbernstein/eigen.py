"""Eigenvalues and monic eigenvector polynomials of T_{n,q,alpha}.

The operator fixes constants and x, so lambda_0 = lambda_1 = 1 with
eigenvectors 1 and x. For k = 2..n the eigenvalue is computed as the
product form lambda_k = u_k G_k, with the falling q-product
G_k = prod_{t=1}^{k-1} (1 - [t]_q/[n]_q) from
:func:`aqbernstein.bernstein.falling_products` and
u_k = alpha + (1-alpha) [n-k]_q [n+k-1]_q / ([n]_q [n-1]_q). Since
1 - [t]_q/[n]_q = q^t [n-t]_q/[n]_q this equals the paper's closed form

    lambda_k = q^(k(k-1)/2) * ([n-2]_q! / ([n-k]_q! [n]_q^k))
               * ((1-alpha) [n-k]_q [n-1+k]_q + alpha [n]_q [n-1]_q),

which serves only as the oracle (``verify.closed_form_eigenvalue``).

The monic eigenvector of degree k is built top-down: its coefficient of
x^(k-j) is a linear combination of already-known higher coefficients
weighted by coefficients of the images T(t^m), m <= k, divided by
lambda_k - lambda_{k-j}. In exact mode the recursion runs on integers, in
the spirit of Bareiss's fraction-free elimination (Math. Comp. 22, 1968):
it reads the image matrix's rows, integers over one denominator each, from
:func:`aqbernstein.bernstein.image_rows`, carries p_k as integer numerators
over one common denominator, and reduces each coefficient's integer dot
product once into its Fraction, so the values are those of the reduced
scalar recursion. Float mode runs the same loop with every denominator 1,
which is the plain float arithmetic. The q-sequences come from
``OperatorParams.table``; in float mode a nan or an infinity raises
FloatingPointError.

:func:`spectrum` builds the eigenvalues together with their gaps

    lambda_{i+1} - lambda_i
        = -G_i (u_{i+1} [i]_q/[n]_q + (1-alpha) q^(n-i-1) [2i]_q/([n]_q [n-1]_q)),

and the recursion takes lambda_k - lambda_m as the running sum of the gaps
i = m..k-1. For alpha in [0,1] both terms of a gap are non-negative and the
first is positive for i >= 1, so the lambda sequence is strictly decreasing
from k = 1, which makes the recursion well posed, and the sum adds terms of
one sign without cancellation. Subtracting separately computed eigenvalues
would not do: for q > 1 and large n, lambda_k and lambda_m agree to within
~q^(k-n), so float subtraction loses every significant digit. The gap form
is an algebraic identity, so exact mode is unaffected (tests pin the sums
against direct subtraction).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bernstein import OperatorParams, falling_products, image_rows
from .polynomials import Polynomial
from .scalars import Scalar, require_finite, scalar_from_json, scalar_to_json


class DegenerateEigenvalueError(ArithmeticError):
    """A required eigenvalue difference vanished (or lost all float precision)."""


def spectrum(
    params: OperatorParams, top: int
) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """lambda_0..lambda_top and the gaps lambda_{i+1} - lambda_i for i < top.

    lambda_0 = lambda_1 = 1 and lambda_k = u_k G_k for k >= 2, with one
    table G_0..G_top from :func:`falling_products`. The gap
    lambda_k - lambda_{k-1} is -G_{k-1} (u_k [k-1]_q/[n]_q + u_{k-1} - u_k),
    where u_{k-1} - u_k = (1-alpha) q^(n-k) [2k-2]_q / ([n]_q [n-1]_q).
    """
    n, alpha, table = params.n, params.alpha, params.table
    if not 0 <= top <= n:
        raise ValueError(f"eigenvalue index needs 0 <= k <= n, got k={top}, n={n}")
    # lambda_0 = lambda_1 = 1 and their zero gap need no q-integer, so they
    # come out even where [n]_q overflows float range
    lambdas, gaps = [table.one, table.one][: top + 1], [table.zero][:top]
    if top < 2:
        return tuple(lambdas), tuple(gaps)
    qint, dn, dn1 = table.integers, table.integers[n], table.integers[n - 1]
    falling = falling_products(params, top)
    for k in range(2, top + 1):
        u, u_drop = table.one, table.zero
        if alpha != 1:
            # skip the vanishing (1-alpha) terms at alpha = 1: [n+k-1]_q may
            # overflow float range at extreme n even though it contributes
            # nothing
            u = alpha + (1 - alpha) * (qint[n - k] / dn) * (qint[n + k - 1] / dn1)
            u_drop = (1 - alpha) * table.powers[n - k] * qint[2 * k - 2] / (dn * dn1)
        lambdas.append(u * falling[k])
        gaps.append(-falling[k - 1] * (u * qint[k - 1] / dn + u_drop))
    # at alpha = 1 an infinite [n]_q would leave every lambda_k = 1
    require_finite((dn, *lambdas, *gaps), "spectrum", params)
    return tuple(lambdas), tuple(gaps)


def eigenvalue(k: int, params: OperatorParams) -> Scalar:
    """lambda_k = u_k G_k for 0 <= k <= n; equals 1 for k in {0, 1}."""
    return spectrum(params, k)[0][k]


def _eigenvector_coeffs(
    k: int,
    params: OperatorParams,
    rows: list[tuple[int, list]],
    gaps: tuple[Scalar, ...],
) -> tuple[Scalar, ...]:
    """Coefficients c_0..c_k of p_k, from the rows of
    :func:`~aqbernstein.bernstein.image_rows` for any top >= k and the gaps
    lambda_{i+1} - lambda_i for i < k.

    c_r = sum_{m=r+1..k} c_m a(r, m) / (lambda_k - lambda_r), for r = k-1
    down to 0. The known c_m are carried as integer numerators v[m] over one
    common denominator w, so the sum is the integer dot product
    total = sum_m v[m] R_r[m], taken from m = k down, and
    c_r = total / (w d_r (lambda_k - lambda_r)) is the one reduced Fraction
    formed per coefficient. When c_r's denominator does not divide w, v and
    w are scaled by the missing factor. A float is its own numerator over 1:
    in float mode w = d_r = 1, v[m] = c_m, and c_r = total / diff.

    Raises DegenerateEigenvalueError when a difference lambda_k - lambda_r
    is zero, or in float mode when it underflows below the smallest normal
    float (no relative precision left), before dividing by it.
    """
    n, q, alpha, table = params.n, params.q, params.alpha, params.table
    if k == 1:
        return (table.zero, table.one)
    exact = params.mode == "exact"
    c: list[Scalar] = [table.zero] * (k + 1)
    c[k] = table.one
    v: list = [0] * (k + 1)
    v[k] = w = 1
    diff = table.zero  # lambda_k - lambda_r
    for r in range(k - 1, -1, -1):
        d, row = rows[r]
        total = 0
        for m in range(k, r, -1):
            total = total + v[m] * row[m]
        diff = diff + gaps[r]
        if diff == 0:
            raise DegenerateEigenvalueError(
                f"lambda_{k} - lambda_{r} vanished for n={n}, q={q}, alpha={alpha}"
            )
        if not exact:
            if abs(diff) < sys.float_info.min:
                raise DegenerateEigenvalueError(
                    f"lambda_{k} - lambda_{r} underflowed in float mode "
                    f"(n={n}, q={q}, alpha={alpha})"
                )
            c[r] = v[r] = total / diff
            continue
        c[r] = coeff = Fraction(total * diff.denominator, w * d * diff.numerator)
        missing = coeff.denominator // math.gcd(w, coeff.denominator)
        if missing > 1:
            w *= missing
            v[r + 1:] = [x * missing for x in v[r + 1:]]
        v[r] = coeff.numerator * (w // coeff.denominator)
    return require_finite(tuple(c), "eigenvector", params, k)


def eigenvector(k: int, params: OperatorParams) -> Polynomial:
    """The monic degree-k eigenvector polynomial p_k (p_0 = 1, p_1 = x)."""
    rows = image_rows(params, k)[0]
    return Polynomial(_eigenvector_coeffs(k, params, rows, spectrum(params, k)[1]))


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
    ``lambdas`` and ``vectors`` must hold n + 1 entries each, and
    ``vectors[k]`` must be monic of degree k."""
    q = scalar_from_json(obj["q"])
    alpha = scalar_from_json(obj["alpha"])
    params = OperatorParams(obj["n"], q, alpha)
    lambdas = tuple(scalar_from_json(v) for v in obj["lambdas"])
    vectors = tuple(
        Polynomial(tuple(scalar_from_json(c) for c in coeffs))
        for coeffs in obj["vectors"]
    )
    if len(lambdas) != params.n + 1 or len(vectors) != params.n + 1:
        raise ValueError(
            f"n={params.n} needs {params.n + 1} lambdas and vectors, "
            f"got {len(lambdas)} and {len(vectors)}"
        )
    for k, vec in enumerate(vectors):
        if vec.degree != k or vec.coeffs[k] != 1:
            raise ValueError(f"vectors[{k}] is not monic of degree {k}")
    return EigenSystem(params, lambdas, vectors)


def eigensystem_from_rows(params: OperatorParams, rows: list[tuple[int, list]]) -> EigenSystem:
    """The eigensystem from the rows of ``image_rows(params, params.n)``, which
    every eigenvector recursion reads, and one :func:`spectrum` call, which
    gives every eigenvalue and the gaps that every recursion sums."""
    lambdas, gaps = spectrum(params, params.n)
    vectors = tuple(
        Polynomial(_eigenvector_coeffs(k, params, rows, gaps))
        for k in range(params.n + 1)
    )
    return EigenSystem(params, lambdas, vectors)


def eigensystem(params: OperatorParams) -> EigenSystem:
    """All eigenvalues and monic eigenvectors for k = 0..n, from one image matrix."""
    return eigensystem_from_rows(params, image_rows(params, params.n)[0])
