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
from typing import Iterable

from .scalars import Scalar, coerce, common_mode


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

    def coeff(self, j: int) -> Scalar:
        """Coefficient of x**j (0 beyond the stored degree)."""
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0


def poly_eval(p: Polynomial, x: Scalar) -> Scalar:
    """Evaluate by Horner's rule; exact when p and x are exact. The leading
    coefficient stands for all: construction put them in one mode."""
    mode = common_mode(x, *p.coeffs[-1:])
    if not p.coeffs:
        return coerce(x, mode or "exact") * 0
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * x + c
    return acc

