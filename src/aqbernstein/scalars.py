"""Dual-mode scalars: exact rationals and 64-bit floats.

Every numeric quantity in this library (q, alpha, evaluation points,
polynomial coefficients, eigenvalues) is a Scalar: either an exact rational
held as ``fractions.Fraction`` or a Python float. The two modes never mix
silently; combining scalars of different modes raises MixedModeError.

Python ints are accepted wherever a scalar is expected and absorb into the
surrounding mode (they are exact in either). Exact mode is the default
throughout; float mode exists for large-degree asymptotics runs, and its
results are only meaningful up to rounding, so compare them with
``math.isclose`` and a stated tolerance, not with ``==``.

Serialized forms: an exact rational becomes ``{"num": "...", "den": "..."}``
(strings, so arbitrary precision survives JSON); a float stays a plain JSON
number. In CSV, exact values print as ``p/q`` and floats with 17 significant
digits, both of which round-trip losslessly. Integers of any length are
written and read: past the interpreter's int/str digit cap (4300 digits by
default) the digits go through ``decimal.Decimal``, whose conversion the
cap does not bound, so the caller's interpreter setting is left alone.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"

# the largest decimal exponent magnitude that exact parsing accepts, the
# same as the int/str digit cap: an exact q = 1e-100000 parses in 9 ms but
# carries a 330,000-bit denominator into every later step (`limits` then
# ran 10 s), and the parse alone takes 12 s at 1e-10000000
_MAX_EXPONENT = 4300


class MixedModeError(TypeError):
    """Raised when exact-rational and float scalars meet in one operation."""


def coerce(x: Scalar | int, mode: str) -> Scalar:
    """Bring ``x`` into ``mode``, allowing only the int -> anything widening."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if mode == EXACT:
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        if isinstance(x, float):
            raise MixedModeError(f"float scalar {x!r} in exact-mode context")
    elif mode == FLOAT:
        if isinstance(x, int):
            return float(x)
        if isinstance(x, float):
            return x
        if isinstance(x, Fraction):
            raise MixedModeError(f"exact scalar {x!r} in float-mode context")
    else:
        raise ValueError(f"unknown scalar mode {mode!r}")
    raise TypeError(f"not a scalar: {x!r} of type {type(x).__name__}")


def common_mode(*values: Scalar | int) -> str | None:
    """Mode shared by all values, or None when every value is an int.

    Raises MixedModeError when both a Fraction and a float are present.
    """
    mode: str | None = None
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float, Fraction)):
            raise TypeError(f"not a scalar: {v!r} of type {type(v).__name__}")
        if isinstance(v, int):
            continue
        m = FLOAT if isinstance(v, float) else EXACT
        if mode is None:
            mode = m
        elif mode != m:
            raise MixedModeError(
                f"mixed scalar modes: saw both {mode} and {m} values"
            )
    return mode


def require_finite(values: list | tuple, where: str, params, k: int | None = None) -> list | tuple:
    """``values``, computed by ``where`` for the operator ``params``; in
    float mode a nan or an infinity among them raises FloatingPointError
    naming ``where`` and (n, q, alpha[, k])."""
    if isinstance(params.q, float) and not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        at = f"n={params.n}, q={params.q}, alpha={params.alpha}"
        raise FloatingPointError(
            f"non-finite float in {where}: {bad} "
            f"({at}{'' if k is None else f', k={k}'})"
        )
    return values


def _integer(text: str) -> int:
    """int(text), also for more digits than the int/str cap allows."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[-+]?[0-9]+\s*", text) is None:
            raise
        return int(Decimal(text))


def _rational(text: str) -> Fraction:
    """Fraction(text), also for an integer or ``p/q`` with more digits than
    the int/str cap allows."""
    try:
        return Fraction(text)
    except ValueError:
        match = re.fullmatch(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*", text)
        if match is None:
            raise
        return Fraction(_integer(match[1]), _integer(match[2] or "1"))


def _check_exponent(text: str) -> None:
    """Refuse a decimal exponent beyond +-_MAX_EXPONENT in ``text``."""
    match = re.search(r"[eE][-+]?([0-9_]+)$", text)
    digits = match[1].replace("_", "").lstrip("0") if match else ""
    if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or "0") > _MAX_EXPONENT:
        raise ValueError(f"exponent beyond +-{_MAX_EXPONENT} in {text!r}")


def _digits(n: int) -> str:
    """str(n), also for more digits than the int/str cap allows."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def parse_scalar(text: str, mode: str = EXACT) -> Scalar:
    """Parse ``"p/q"`` or a decimal string.

    In exact mode decimals convert exactly (``"0.4"`` -> 2/5), with an
    exponent of at most 4300 in magnitude; in float mode the text is read as
    a float. Non-finite values, a zero denominator, a larger exact exponent
    and floats out of range raise ValueError.
    """
    text = text.strip()
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}")
    try:
        if mode == EXACT:
            _check_exponent(text)
            return _rational(text)
        try:
            value = float(text)
        except ValueError:
            value = float(_rational(text))
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"scalar must be finite, got {text!r}")
    return value


def scalar_to_json(x: Scalar | int):
    """JSON-ready form: ``{"num", "den"}`` for exact values, number for floats."""
    if isinstance(x, float):
        return x
    if isinstance(x, (Fraction, int)):
        f = Fraction(x)
        return {"num": _digits(f.numerator), "den": _digits(f.denominator)}
    raise TypeError(f"not a scalar: {x!r}")


def scalar_from_json(obj) -> Scalar:
    """Inverse of :func:`scalar_to_json`; a zero denominator, a non-finite
    float (``json.loads`` reads ``NaN`` and ``Infinity``) or an integer past
    float range raises ValueError."""
    if isinstance(obj, dict):
        num, den = _integer(obj["num"]), _integer(obj["den"])
        if den == 0:
            raise ValueError(f"zero denominator in {obj!r}")
        return Fraction(num, den)
    if isinstance(obj, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(obj, (int, float)):
        try:
            value = float(obj)
        except OverflowError:
            raise ValueError("scalar must be finite, got an integer past float range") from None
        if not math.isfinite(value):
            raise ValueError(f"scalar must be finite, got {obj!r}")
        return value
    raise TypeError(f"cannot read scalar from {obj!r}")


def format_scalar(x: Scalar | int) -> str:
    """CSV text form: ``p/q`` for exact values, 17-significant-digit floats."""
    if isinstance(x, float):
        if x == 0.0:
            return "0"
        return format(x, ".17g")
    f = Fraction(x)
    if f.denominator == 1:
        return _digits(f.numerator)
    return f"{_digits(f.numerator)}/{_digits(f.denominator)}"
