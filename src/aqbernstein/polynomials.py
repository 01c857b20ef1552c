"""Dense univariate polynomials over dual-mode scalars.

A polynomial is a tuple of coefficients in ascending powers: ``coeffs[j]``
multiplies ``x**j``. The zero polynomial has an empty tuple. Trailing
coefficients that are exactly zero are trimmed on construction; in float
mode a coefficient merely *small* in magnitude is kept, so degree never
drops silently through rounding.

The public constructor checks its input, which comes from outside: it puts
every coefficient into one scalar mode (ints widen to it) and raises
MixedModeError for mixed modes. The kernels that build polynomials from
coefficients already in their operator's mode (the eigenvector recursion,
the difference form of the operator, a validated eigensystem dict) use
the private :meth:`Polynomial._trusted`, which only trims.

All operations are pure and every value is immutable, so polynomials can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .scalars import Scalar, coerce, common_mode


def _trim(cs: list) -> tuple[Scalar, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _normalize(coeffs: Iterable[Scalar | int]) -> tuple[Scalar, ...]:
    cs = list(coeffs)
    mode = common_mode(*cs) if cs else None
    if mode is not None:
        cs = [coerce(c, mode) for c in cs]
    return _trim(cs)


@dataclass(frozen=True)
class Polynomial:
    """Immutable dense polynomial; see the module docstring for conventions."""

    coeffs: tuple[Scalar, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    @classmethod
    def _trusted(cls, coeffs: Iterable[Scalar]) -> Polynomial:
        """The polynomial of ``coeffs``, already in one scalar mode, with
        trailing exact zeros trimmed and nothing checked or converted."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", _trim(list(coeffs)))
        return p

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

