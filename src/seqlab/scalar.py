"""Scalar helpers shared by the exact (Fraction) and float modes.

A workspace is homogeneous: every coordinate is either a ``Fraction``
(exact mode) or a ``float`` (float mode).  Rationals serialize as
"num/den" strings, floats as JSON numbers.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import ConfigError, NonFiniteCoordinate

Scalar = Union[Fraction, float]

#: Default zero/residual tolerance in float mode; exact mode uses 0.
DEFAULT_ETA = 1e-9


def zero_tol(exact: bool, eta: float = DEFAULT_ETA) -> Scalar:
    """Zero-test tolerance for the given mode: 0 when exact, eta otherwise."""
    return Fraction(0) if exact else eta


def check_finite(value: Scalar) -> Scalar:
    if isinstance(value, float) and not math.isfinite(value):
        raise NonFiniteCoordinate(f"non-finite coordinate {value!r}")
    return value


def parse_scalar(value, exact: bool) -> Scalar:
    """Parse a JSON scalar ("num/den" string, int, or float).

    In exact mode decimal literals are read with decimal semantics
    (Fraction("0.25") == 1/4), not binary-float semantics.
    """
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse rational {value!r}: {exc}") from exc
        return frac if exact else float(frac)
    if isinstance(value, bool):
        raise ConfigError(f"boolean is not a scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value) if exact else float(value)
    if isinstance(value, float):
        check_finite(value)
        return Fraction(str(value)) if exact else value
    raise ConfigError(f"cannot parse scalar {value!r}")


def scalar_to_json(value: Scalar):
    """Serialize a scalar: Fractions as "num/den", floats as numbers."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return f"{value}/1"
    return float(value)


def abs_pow(value: Scalar, p: Scalar) -> Scalar:
    """|value|**p, staying exact when both value and integer p are exact."""
    a = abs(value)
    if isinstance(a, Fraction) and isinstance(p, (int, Fraction)) and Fraction(p).denominator == 1:
        return a ** int(Fraction(p))
    return float(a) ** float(p)
