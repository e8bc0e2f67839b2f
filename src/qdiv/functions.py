"""Scalar functions with declared domain behavior.

Every divergence here is parameterized by scalar functions whose behavior at
the boundary (limit at 0+, slope at infinity) decides support conditions and
infinite branches.  Those limits are not computable from a black-box callable,
so they are declared up front as plain floats, ``math.inf`` for +inf, and the
callable is only trusted on the open positive axis.  A finite limit at 0+ is
also the value at 0.  A family can also declare the perspective
mu f(lam/mu) in closed form, which the f-divergence uses where the ratio
lam/mu leaves the range of a float.  The declared monotonicity and
injectivity flags and the perspective are spot-checked on a grid at
construction time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class DomainError(ValueError):
    """A scalar function was used outside its declared domain."""


# Spot-check grid for declared flags; strictly positive, away from overflow.
_GRID = np.linspace(0.05, 4.0, 100)
_NORMAL_MIN = sys.float_info.min  # not a tolerance: the smallest normal float


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """A real function on the positive axis with declared boundary data.

    Parameters
    ----------
    name : str
        Identifier used in reports and error messages.
    fn : callable
        Evaluates the function at strictly positive arguments.
    gamma : float, optional
        Slope at infinity, lim f(t)/t, ``math.inf`` for +inf.  Declared,
        never estimated.
    limit_at_zero : float, optional
        Limit as t -> 0+, ``math.inf`` for +inf.  When finite it is also
        the value at 0.
    diverges_at_infinity : bool
        Whether f(t) -> inf as t -> inf.  Needed to check the hypotheses of
        the singular-argument extension of the generalized divergence.
    perspective : callable, optional
        (lam, mu) -> mu f(lam/mu) for lam, mu > 0, in a closed form that
        stays finite wherever the value is, also when lam/mu over- or
        underflows.
    """

    name: str
    fn: Callable[[float], float]
    gamma: Optional[float] = None
    limit_at_zero: Optional[float] = None
    strictly_increasing: bool = False
    injective: bool = False
    diverges_at_infinity: bool = False
    perspective: Optional[Callable[[float, float], float]] = None

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
        if self.perspective is not None and not all(
                math.isclose(self.perspective(mu * t, mu), mu * v, rel_tol=1e-12)
                for t, v in zip(_GRID.tolist(), vals) for mu in (0.5, 2.0)):
            raise DomainError(f"{self.name}: perspective fails spot check")

    def __call__(self, t: float) -> float:
        t = float(t)
        if t < 0.0:
            raise DomainError(f"{self.name}: argument {t} is negative")
        if t == 0.0:
            if self.limit_at_zero is None or self.limit_at_zero == math.inf:
                raise DomainError(f"{self.name}: undefined at 0")
            return self.limit_at_zero
        return float(self.fn(t))


def power_fn(p: float) -> ScalarFunctionSpec:
    """t -> t**p with the zero-limit and slope-at-infinity of the power family,
    and the perspective lam^p mu^(1-p)."""
    p = float(p)
    limit_at_zero = 0.0 if p > 0.0 else 1.0 if p == 0.0 else math.inf
    gamma = math.inf if p > 1.0 else 1.0 if p == 1.0 else 0.0

    def perspective(lam, mu):
        t = lam / mu
        if _NORMAL_MIN <= t < math.inf:
            try:
                tp = t**p
            except OverflowError:
                tp = math.inf
            if _NORMAL_MIN <= tp < math.inf:
                return mu * tp
        # the ratio or its power left the normal range: take the logs
        return math.exp(p * math.log(lam) + (1.0 - p) * math.log(mu))

    return ScalarFunctionSpec(
        name=f"power:{p:g}",
        fn=lambda t: t**p,
        gamma=gamma,
        limit_at_zero=limit_at_zero,
        strictly_increasing=p > 0.0,
        injective=p != 0.0,
        diverges_at_infinity=p > 0.0,
        perspective=perspective,
    )


def xlogx_fn() -> ScalarFunctionSpec:
    """t -> t*log(t) with value 0 at 0; slope at infinity is +inf.  The
    perspective is lam log(lam/mu)."""
    def perspective(lam, mu):
        t = lam / mu
        if _NORMAL_MIN <= t < math.inf:
            return lam * math.log(t)
        return lam * (math.log(lam) - math.log(mu))

    return ScalarFunctionSpec(
        name="xlogx",
        fn=lambda t: t * math.log(t),
        gamma=math.inf,
        limit_at_zero=0.0,
        diverges_at_infinity=True,
        perspective=perspective,
    )


def linear_fn(c: float) -> ScalarFunctionSpec:
    """t -> c*(t - 1), the unique family killed by the probability-vector sum;
    the perspective is c*(lam - mu)."""
    c = float(c)
    return ScalarFunctionSpec(
        name=f"linear:{c:g}",
        fn=lambda t: c * (t - 1.0),
        gamma=c,
        limit_at_zero=-c,
        strictly_increasing=c > 0.0,
        injective=c != 0.0,
        diverges_at_infinity=c > 0.0,
        perspective=lambda lam, mu: c * (lam - mu),
    )


def bounded_ratio_fn() -> ScalarFunctionSpec:
    """t -> t/(1+t): strictly increasing, concave, bounded by 1."""
    return ScalarFunctionSpec(
        name="ratio",
        fn=lambda t: t / (1.0 + t),
        gamma=0.0,
        limit_at_zero=0.0,
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
