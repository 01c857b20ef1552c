"""Dense univariate polynomials over dual-mode scalars.

A polynomial is a tuple of coefficients in ascending powers: ``coeffs[j]``
multiplies ``x**j``. The zero polynomial has an empty tuple. Trailing
coefficients that are exactly zero are trimmed on construction; in float
mode a coefficient merely *small* in magnitude is kept, so degree never
drops silently through rounding.

All operations are pure and every value is immutable, so polynomials can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .scalars import DEFAULT_TOLERANCE, Scalar, coerce, common_mode


class FitMismatchError(ValueError):
    """An extra interpolation point disagrees with the fitted polynomial.

    Signals that the sampled data is not a polynomial of the claimed degree.
    """


def _normalize(coeffs: Iterable[Scalar | int]) -> tuple[Scalar, ...]:
    cs = list(coeffs)
    mode = common_mode(*cs) if cs else None
    if mode is not None:
        cs = [coerce(c, mode) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class Polynomial:
    """Immutable dense polynomial; see the module docstring for conventions."""

    coeffs: tuple[Scalar, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    @property
    def degree(self) -> int:
        """Index of the leading coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def mode(self) -> str | None:
        """Scalar mode of the coefficients; None for the zero polynomial."""
        return common_mode(*self.coeffs) if self.coeffs else None

    def coeff(self, j: int) -> Scalar:
        """Coefficient of x**j (0 beyond the stored degree)."""
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0


def poly_eval(p: Polynomial, x: Scalar) -> Scalar:
    """Evaluate by Horner's rule; exact when p and x are exact."""
    mode = common_mode(x, *p.coeffs)
    if not p.coeffs:
        return coerce(x, mode or "exact") * 0
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_scale(p: Polynomial, s: Scalar) -> Polynomial:
    mode = common_mode(s, *p.coeffs)
    if mode is not None:
        s = coerce(s, mode)
    return Polynomial(tuple(s * c for c in p.coeffs))


def poly_fit(
    points: Sequence[tuple[Scalar, Scalar]],
    degree_bound: int,
) -> Polynomial:
    """Interpolate the first ``degree_bound + 1`` points, then verify the rest.

    Uses Newton divided differences expanded to monomial coefficients; exact
    in exact mode. Any surplus points must lie on the fitted polynomial
    (exactly in exact mode, within ``DEFAULT_TOLERANCE`` in float mode), otherwise
    FitMismatchError is raised: the data is not a polynomial of the claimed
    degree.
    """
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    if len(points) < degree_bound + 1:
        raise ValueError(
            f"need at least {degree_bound + 1} points, got {len(points)}"
        )
    mode = common_mode(*(v for pt in points for v in pt)) or "exact"
    pts = [(coerce(x, mode), coerce(y, mode)) for x, y in points]

    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate interpolation nodes")

    head = pts[: degree_bound + 1]
    # Divided-difference table, in place.
    coef = [y for _, y in head]
    hx = [x for x, _ in head]
    m = len(head)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (hx[i] - hx[i - j])

    # Expand the Newton form sum_j coef[j] * prod_{t<j}(x - hx[t]).
    acc = [coef[0]]
    base = [coerce(1, mode)]
    for j in range(1, m):
        shifted = [(-hx[j - 1]) * c for c in base] + [coerce(0, mode)]
        for t in range(len(base)):
            shifted[t + 1] = shifted[t + 1] + base[t]
        base = shifted
        acc = acc + [coerce(0, mode)] * (len(base) - len(acc))
        for t, c in enumerate(base):
            acc[t] = acc[t] + coef[j] * c

    fitted = Polynomial(tuple(acc))
    for x, y in pts[degree_bound + 1 :]:
        value = poly_eval(fitted, x)
        ok = DEFAULT_TOLERANCE.close(value, y) if mode == "float" else value == y
        if not ok:
            raise FitMismatchError(
                f"extra point ({x}, {y}) is off the degree-{degree_bound} fit "
                f"(fitted value {value})"
            )
    return fitted
