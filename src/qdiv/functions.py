"""Scalar functions with declared domain behavior.

Every divergence here is parameterized by scalar functions whose behavior at
the boundary (value at 0, limits at 0+ and infinity, slope at infinity) decides
support conditions and infinite branches.  Those limits are not computable from
a black-box callable, so they are declared up front and the callable is only
trusted on the open positive axis.  The declared monotonicity and injectivity
flags are spot-checked on a grid at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .extended import INF, ExtendedReal


class DomainError(ValueError):
    """A scalar function was used outside its declared domain."""


# Spot-check grid for declared flags; strictly positive, away from overflow.
_GRID = np.linspace(0.05, 4.0, 100)


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """A real function on the positive axis with declared boundary data.

    Parameters
    ----------
    name : str
        Identifier used in reports and error messages.
    fn : callable
        Evaluates the function at strictly positive arguments.
    value_at_zero : float, optional
        Defined value at 0, when the function extends there.
    gamma : ExtendedReal, optional
        Slope at infinity, lim f(t)/t.  Declared, never estimated.
    limit_at_zero : ExtendedReal, optional
        Limit as t -> 0+; either a finite value or +inf.
    diverges_at_infinity : bool
        Whether f(t) -> inf as t -> inf.  Needed to check the hypotheses of
        the singular-argument extension of the generalized divergence.
    """

    name: str
    fn: Callable[[float], float]
    value_at_zero: Optional[float] = None
    gamma: Optional[ExtendedReal] = None
    limit_at_zero: Optional[ExtendedReal] = None
    strictly_increasing: bool = False
    injective: bool = False
    diverges_at_infinity: bool = False

    def __post_init__(self):
        vals = np.array([self.fn(float(t)) for t in _GRID])
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"{self.name}: non-finite values on the check grid")
        if self.strictly_increasing and not np.all(np.diff(vals) > 0.0):
            raise DomainError(f"{self.name}: strictly_increasing fails spot check")
        if self.injective:
            gaps = np.diff(np.sort(vals))
            if not np.all(gaps > 0.0):
                raise DomainError(f"{self.name}: injective fails spot check")

    def __call__(self, t: float) -> float:
        t = float(t)
        if t < 0.0:
            raise DomainError(f"{self.name}: argument {t} is negative")
        if t == 0.0:
            if self.value_at_zero is not None:
                return self.value_at_zero
            if self.limit_at_zero is not None and self.limit_at_zero.is_finite:
                return self.limit_at_zero.value
            raise DomainError(f"{self.name}: undefined at 0")
        return float(self.fn(t))


def power_fn(p: float) -> ScalarFunctionSpec:
    """t -> t**p with the zero-limit and slope-at-infinity of the power family."""
    p = float(p)
    if p > 0.0:
        value_at_zero, limit_at_zero = 0.0, ExtendedReal(0.0)
    elif p == 0.0:
        value_at_zero, limit_at_zero = 1.0, ExtendedReal(1.0)
    else:
        value_at_zero, limit_at_zero = None, INF
    if p > 1.0:
        gamma = INF
    elif p == 1.0:
        gamma = ExtendedReal(1.0)
    else:
        gamma = ExtendedReal(0.0)
    return ScalarFunctionSpec(
        name=f"power:{p:g}",
        fn=lambda t: t**p,
        value_at_zero=value_at_zero,
        gamma=gamma,
        limit_at_zero=limit_at_zero,
        strictly_increasing=p > 0.0,
        injective=p != 0.0,
        diverges_at_infinity=p > 0.0,
    )


def xlogx_fn() -> ScalarFunctionSpec:
    """t -> t*log(t) with value 0 at 0; slope at infinity is +inf."""
    return ScalarFunctionSpec(
        name="xlogx",
        fn=lambda t: t * math.log(t),
        value_at_zero=0.0,
        gamma=INF,
        limit_at_zero=ExtendedReal(0.0),
        diverges_at_infinity=True,
    )


def linear_fn(c: float) -> ScalarFunctionSpec:
    """t -> c*(t - 1), the unique family killed by the probability-vector sum."""
    c = float(c)
    return ScalarFunctionSpec(
        name=f"linear:{c:g}",
        fn=lambda t: c * (t - 1.0),
        value_at_zero=-c,
        gamma=ExtendedReal(c),
        limit_at_zero=ExtendedReal(-c),
        strictly_increasing=c > 0.0,
        injective=c != 0.0,
        diverges_at_infinity=c > 0.0,
    )


def bounded_ratio_fn() -> ScalarFunctionSpec:
    """t -> t/(1+t): strictly increasing, concave, bounded by 1."""
    return ScalarFunctionSpec(
        name="ratio",
        fn=lambda t: t / (1.0 + t),
        value_at_zero=0.0,
        gamma=ExtendedReal(0.0),
        limit_at_zero=ExtendedReal(0.0),
        strictly_increasing=True,
        injective=True,
        diverges_at_infinity=False,
    )


# Families exposed to the command line.  Parameters are spelled tag:value so
# the flags stay declared per family instead of inferred from user code.
_REGISTRY = {
    "power": (power_fn, True),
    "xlogx": (xlogx_fn, False),
    "linear": (linear_fn, True),
}


def spec_from_name(text: str) -> ScalarFunctionSpec:
    """Parse a registry name like ``power:0.5``, ``xlogx`` or ``linear:-3``."""
    tag, sep, arg = text.partition(":")
    entry = _REGISTRY.get(tag)
    if entry is None:
        raise KeyError(f"unknown function family {tag!r} (have: {sorted(_REGISTRY)})")
    builder, wants_param = entry
    if wants_param:
        if not sep:
            raise KeyError(f"family {tag!r} needs a parameter, e.g. {tag}:0.5")
        try:
            return builder(float(arg))
        except ValueError as exc:
            raise KeyError(f"bad parameter {arg!r} for family {tag!r}") from exc
    if sep:
        raise KeyError(f"family {tag!r} takes no parameter")
    return builder()
