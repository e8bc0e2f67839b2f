"""The divergences' result type: a float that is finite or +inf.

The package computes and compares with plain floats; ``math.inf`` stands for
+inf.  A divergence returns its finite value through one gate that rejects inf
and NaN (``divergence.NonFiniteResultError``), so the ``INF`` it returns comes
only from a support decision.  ``ExtendedReal`` is a ``float`` that also
rejects NaN and -inf; equality, hashing, ``repr`` and JSON text are float's.
The subclass, its ``value``/``is_inf``/``is_finite`` properties and
``fmt_extended`` remain only because the benchmark (``perfbench/``) reads
them; ROADMAP items 2 and 4 delete this module after item 1's benchmark change.
"""

from __future__ import annotations

import math


class ExtendedRealError(ValueError):
    """Raised for values outside the supported [finite reals] + {+inf} set."""


class ExtendedReal(float):
    """A finite real number or +infinity."""

    __slots__ = ()

    def __new__(cls, value=0.0):
        x = super().__new__(cls, value)
        if math.isnan(x):
            raise ExtendedRealError("NaN is not an extended real value")
        if x == -math.inf:
            raise ExtendedRealError("-inf is outside the supported range")
        return x

    @property
    def value(self) -> float:
        return float(self)

    @property
    def is_inf(self) -> bool:
        return self == math.inf

    @property
    def is_finite(self) -> bool:
        return self != math.inf


INF = ExtendedReal(math.inf)


def fmt_extended(value) -> str:
    """Render an extended real for reports: ``inf`` or 12 decimal places."""
    x = ExtendedReal(value)
    if x.is_inf:
        return "inf"
    s = f"{x:.12f}"
    if float(s) == 0.0:
        s = f"{0.0:.12f}"
    return s
