"""Extended-real values: finite reals plus +infinity.

A divergence returns an ``ExtendedReal`` so that its +inf branch, which a
support decision selects, is a value of the result type rather than a float
that overflowed.  The type carries no arithmetic: every formula computes with
plain floats on the finite branch and returns ``INF`` directly on the
infinite one.  NaN and negative infinity are rejected: none of the
implemented quantities produce them.
"""

from __future__ import annotations

import math


class ExtendedRealError(ValueError):
    """Raised for values outside the supported [finite reals] + {+inf} set."""


class ExtendedReal:
    """A finite real number or +infinity; immutable, compared by value."""

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, ExtendedReal):
            value = value.value
        value = float(value)
        if math.isnan(value):
            raise ExtendedRealError("NaN is not an extended real value")
        if value == -math.inf:
            raise ExtendedRealError("-inf is outside the supported range")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("ExtendedReal is immutable")

    @property
    def is_inf(self) -> bool:
        return self.value == math.inf

    @property
    def is_finite(self) -> bool:
        return not self.is_inf

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return "inf" if self.is_inf else repr(self.value)

    def __eq__(self, other):
        try:
            other = ExtendedReal(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)


INF = ExtendedReal(math.inf)


def as_extended(value) -> ExtendedReal:
    """Coerce a float or ExtendedReal to ExtendedReal."""
    return value if isinstance(value, ExtendedReal) else ExtendedReal(value)


def fmt_extended(value) -> str:
    """Render an extended real for reports: ``inf`` or 12 decimal places."""
    x = as_extended(value)
    if x.is_inf:
        return "inf"
    s = f"{x.value:.12f}"
    if float(s) == 0.0:
        s = f"{0.0:.12f}"
    return s
