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

A spec evaluates whole spectra: ``spec(t)`` maps a float to a float and an
array to an array of its shape, entry by entry.  So ``fn`` must map an array
of positive arguments to an array (a scalar result broadcasts), and
``perspective`` two arrays of one shape to an array; the spot-check grid is
the first call of ``fn``, so an ``fn`` that takes only floats fails there.
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


def _normal(x):
    """Whether each entry is a normal float: not 0, subnormal, inf or NaN
    (``sys.float_info.min`` is the smallest normal float, not a tolerance)."""
    return (sys.float_info.min <= x) & (x < math.inf)


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """A real function on the positive axis with declared boundary data.

    Parameters
    ----------
    name : str
        Identifier used in reports and error messages.
    fn : callable
        Maps an array of strictly positive arguments to an array of values.
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
        (lam, mu) -> mu f(lam/mu) entry by entry, for arrays of one shape
        with lam, mu > 0, in a closed form that stays finite wherever the
        value is, also when lam/mu over- or underflows.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    gamma: Optional[float] = None
    limit_at_zero: Optional[float] = None
    strictly_increasing: bool = False
    injective: bool = False
    diverges_at_infinity: bool = False
    perspective: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        vals = self(_GRID)  # the first call of fn
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"{self.name}: non-finite values on the check grid")
        if self.strictly_increasing and not np.all(np.diff(vals) > 0.0):
            raise DomainError(f"{self.name}: strictly_increasing fails spot check")
        if self.injective:
            gaps = np.diff(np.sort(vals))
            if not np.all(gaps > 0.0):
                raise DomainError(f"{self.name}: injective fails spot check")
        if self.perspective is not None:
            mu = np.array([[0.5], [2.0]]) * np.ones_like(_GRID)
            got, want = self.perspective(mu * _GRID, mu), mu * vals
            if not np.all(np.abs(got - want) <= 1e-12 * np.maximum(abs(got), abs(want))):
                raise DomainError(f"{self.name}: perspective fails spot check")

    def __call__(self, t):
        """f at each entry of ``t``: a float for a float, else an array."""
        t = np.asarray(t, dtype=float)
        if (t < 0.0).any():
            raise DomainError(f"{self.name}: argument {t.min()} is negative")
        zero = t == 0.0
        if zero.any() and self.limit_at_zero in (None, math.inf):
            raise DomainError(f"{self.name}: undefined at 0")
        # fn sees the positive entries; a 0 takes the declared limit
        limit = self.limit_at_zero if zero.any() else 0.0
        vals = np.where(zero, limit, self.fn(np.where(zero, 1.0, t)))
        return float(vals) if vals.ndim == 0 else vals


def power_fn(p: float) -> ScalarFunctionSpec:
    """t -> t**p with the zero-limit and slope-at-infinity of the power family,
    and the perspective lam^p mu^(1-p)."""
    p = float(p)
    limit_at_zero = 0.0 if p > 0.0 else 1.0 if p == 0.0 else math.inf
    gamma = math.inf if p > 1.0 else 1.0 if p == 1.0 else 0.0

    def perspective(lam, mu):
        with np.errstate(all="ignore"):
            t = np.divide(lam, mu)
            tp = t**p
            # where the ratio or its power left the normal range: the logs
            return np.where(_normal(t) & _normal(tp), mu * tp,
                            np.exp(p * np.log(lam) + (1.0 - p) * np.log(mu)))

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
        with np.errstate(all="ignore"):
            t = np.divide(lam, mu)
            return np.where(_normal(t), lam * np.log(t),
                            lam * (np.log(lam) - np.log(mu)))

    return ScalarFunctionSpec(
        name="xlogx",
        fn=lambda t: t * np.log(t),
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
