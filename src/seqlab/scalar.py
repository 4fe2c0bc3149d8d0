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

#: The zero/residual tolerance eta of float mode; exact mode uses 0.
#: Certificates store it, and verify checks the stored value against it.
DEFAULT_ETA = 1e-9


def zero_tol(exact: bool) -> Scalar:
    """Zero-test tolerance for the given mode: 0 when exact, eta otherwise."""
    return Fraction(0) if exact else DEFAULT_ETA


#: The looser float tolerance of residuals that chains of float operations
#: accumulate: a given f1's membership in the span, and the fixed points
#: of the lp projections.
LOOSE_ETA = 1e-7


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
    if type(value) is float:  # the common case, before any ABC isinstance
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return f"{value}/1"
    return float(value)

