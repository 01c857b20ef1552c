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

The monic eigenvector of degree k is built top-down: its coefficient
of x^(k-j) is a linear combination of already-known higher coefficients
weighted by monomial-image coefficients, divided by lambda_k - lambda_{k-j}.
For alpha in [0,1] those differences are provably nonzero (the lambda
sequence is strictly decreasing from k = 1), which makes the recursion
well posed.

Eigenvalue differences are evaluated in a factored, cancellation-free form:
for q > 1 and large n, lambda_k and lambda_{k-j} agree to within ~q^(k-n),
so float-mode subtraction of separately computed values would lose every
significant digit. The factored form is an algebraic identity, so exact
mode is unaffected (tests pin it against direct subtraction).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .bernstein import MonomialImage, OperatorParams, falling_products, monomial_image
from .polynomials import Polynomial
from .qcalc import q_integer
from .scalars import Scalar, scalar_from_json, scalar_to_json


class DegenerateEigenvalueError(ArithmeticError):
    """A required eigenvalue difference vanished (or lost all float precision)."""


def eigenvalue(
    k: int, params: OperatorParams, *, falling: tuple[Scalar, ...] | None = None
) -> Scalar:
    """lambda_k = u_k G_k for 0 <= k <= n; equals 1 for k in {0, 1}.

    ``falling`` is G_0..G_j for some j >= k, as built by
    :func:`falling_products`; it is built here when omitted.
    """
    n, q = params.n, params.q
    if not 0 <= k <= n:
        raise ValueError(f"eigenvalue index needs 0 <= k <= n, got k={k}, n={n}")
    if k <= 1:
        return q * 0 + 1
    if falling is None:
        falling = falling_products(params, k)
    return _u_factor(k, params) * falling[k]


def _u_factor(k: int, params: OperatorParams) -> Scalar:
    """alpha + (1-alpha) [n-k]_q [n+k-1]_q / ([n]_q [n-1]_q); equals 1 at k <= 1."""
    n, q, alpha = params.n, params.q, params.alpha
    if alpha == 1:
        # skip the vanishing term; [n+k-1]_q may overflow float range at
        # extreme n even though it contributes nothing
        return q * 0 + 1
    return alpha + (1 - alpha) * (q_integer(n - k, q) / q_integer(n, q)) * (
        q_integer(n + k - 1, q) / q_integer(n - 1, q)
    )


def eigenvalue_difference(
    k: int, m: int, params: OperatorParams, *, falling: tuple[Scalar, ...] | None = None
) -> Scalar:
    """lambda_k - lambda_m, evaluated without catastrophic cancellation.

    Writing lambda_j = u_j G_j, the difference factors as

        G_m * [ u_k * (P - 1) + (u_k - u_m) ]

    with P = G_k / G_m = prod_{t=m}^{k-1}(1 - [t]_q/[n]_q). P - 1 is
    accumulated incrementally as a difference, since forming G_k / G_m - 1
    would cancel in float mode, and u_k - u_m uses the closed form

        -(1-alpha) q^(n-k) (q^(k-m) - 1)(q^(k+m-1) - 1)
            / ((q-1)^2 [n]_q [n-1]_q)

    (limit value -(1-alpha)(k-m)(k+m-1)/(n(n-1)) at q = 1). Both pieces are
    algebraic identities, so exact mode returns exactly
    eigenvalue(k) - eigenvalue(m).

    ``falling`` is G_0..G_j for some j >= m, as built by
    :func:`falling_products`; it is built here when omitted.

    Raises DegenerateEigenvalueError when the result is zero, or in float
    mode when it underflows below the smallest normal float (no relative
    precision left).
    """
    n, q, alpha = params.n, params.q, params.alpha
    if not 0 <= m < k <= n:
        raise ValueError(f"need 0 <= m < k <= n, got m={m}, k={k}, n={n}")
    if falling is None:
        falling = falling_products(params, m)
    dn = q_integer(n, q)
    # delta = prod_{t=m}^{k-1}(1 - [t]/[n]) - 1, accumulated as a difference
    delta = q * 0
    for t in range(max(m, 1), k):
        x = q_integer(t, q) / dn
        delta = delta * (1 - x) - x
    if q == 1:
        du = -(1 - alpha) * (k - m) * (k + m - 1) / (dn * q_integer(n - 1, q))
    else:
        du = (
            -(1 - alpha)
            * q ** (n - k)
            * (q ** (k - m) - 1)
            * (q ** (k + m - 1) - 1)
            / ((q - 1) ** 2 * dn * q_integer(n - 1, q))
        )
    diff = falling[m] * (_u_factor(k, params) * delta + du)
    if diff == 0:
        raise DegenerateEigenvalueError(
            f"lambda_{k} - lambda_{m} vanished for n={n}, q={q}, alpha={alpha}"
        )
    if isinstance(diff, float) and abs(diff) < sys.float_info.min:
        raise DegenerateEigenvalueError(
            f"lambda_{k} - lambda_{m} underflowed in float mode "
            f"(n={n}, q={q}, alpha={alpha})"
        )
    return diff


def monomial_images(params: OperatorParams, top: int) -> dict[int, MonomialImage]:
    """The monomial images T(t^m) for m = 1..top, keyed by m."""
    return {m: monomial_image(m, params) for m in range(1, top + 1)}


def _eigenvector_coeffs(
    k: int,
    params: OperatorParams,
    images: dict[int, MonomialImage],
    falling: tuple[Scalar, ...],
) -> tuple[Scalar, ...]:
    q = params.q
    if k == 0:
        return (q * 0 + 1,)
    if k == 1:
        return (q * 0, q * 0 + 1)
    c: list[Scalar] = [q * 0] * (k + 1)
    c[k] = q * 0 + 1
    for j in range(1, k + 1):
        total = q * 0
        for i in range(j):
            total = total + c[k - i] * images[k - i].coeffs[k - j]
        c[k - j] = total / eigenvalue_difference(k, k - j, params, falling=falling)
    return tuple(c)


def eigenvector(k: int, params: OperatorParams) -> Polynomial:
    """The monic degree-k eigenvector polynomial p_k (p_0 = 1, p_1 = x)."""
    if not 0 <= k <= params.n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={params.n}")
    coeffs = _eigenvector_coeffs(
        k, params, monomial_images(params, k), falling_products(params, k)
    )
    return Polynomial(coeffs)


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
    validated as by :class:`OperatorParams` (alpha in [0,1] included)."""
    q = scalar_from_json(obj["q"])
    alpha = scalar_from_json(obj["alpha"])
    params = OperatorParams(int(obj["n"]), q, alpha)
    lambdas = tuple(scalar_from_json(v) for v in obj["lambdas"])
    vectors = tuple(
        Polynomial(tuple(scalar_from_json(c) for c in coeffs))
        for coeffs in obj["vectors"]
    )
    return EigenSystem(params, lambdas, vectors)


def eigensystem_from_images(
    params: OperatorParams, images: dict[int, MonomialImage]
) -> EigenSystem:
    """The eigensystem assembled from ``monomial_images(params, params.n)``.

    The falling q-products G_0..G_n are built once and shared by every
    eigenvalue and eigenvalue difference.
    """
    n = params.n
    falling = falling_products(params, n)
    lambdas = tuple(eigenvalue(k, params, falling=falling) for k in range(n + 1))
    vectors = tuple(
        Polynomial(_eigenvector_coeffs(k, params, images, falling))
        for k in range(n + 1)
    )
    return EigenSystem(params, lambdas, vectors)


def eigensystem(params: OperatorParams) -> EigenSystem:
    """All eigenvalues and monic eigenvectors for k = 0..n.

    Monomial images are computed once and shared by the per-degree
    recursions.
    """
    return eigensystem_from_images(params, monomial_images(params, params.n))
