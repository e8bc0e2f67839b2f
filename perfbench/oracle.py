"""Reference values for the divergences, independent of qdiv.

Everything here uses ``numpy.linalg.eigh`` and closed forms, never the
package's own eigensolver, spectral clustering or support snapping, so an
agreement between the two is evidence rather than a tautology.  Support
decisions are made from numerical ranks: for positive semidefinite A and B,
supp A lies inside supp B exactly when rank(A + B) equals rank(B), and the
supports are orthogonal exactly when AB = 0.
"""

from __future__ import annotations

import math

import numpy as np

# Eigenvalues at or below this share of the largest one count as kernel.
# Benchmark inputs have exact zeros (about 1e-17 after rounding) and nonzero
# eigenvalues far above this, so the decision has a wide margin either way.
RANK_CUT = 1e-10
# Value agreement: |got - want| <= ABS_TOL + REL_TOL * |want|.
ABS_TOL = 1e-9
REL_TOL = 1e-7


def _eigh(m):
    return np.linalg.eigh(0.5 * (m + m.conj().T))


def _kept(w):
    return w > RANK_CUT * max(float(w[-1]), 1e-300)


def rank(m) -> int:
    return int(np.count_nonzero(_kept(np.linalg.eigvalsh(0.5 * (m + m.conj().T)))))


def contained(a, b) -> bool:
    """Whether supp a lies inside supp b."""
    return rank(a + b) == rank(b)


def orthogonal(a, b) -> bool:
    scale = np.linalg.norm(a) * np.linalg.norm(b)
    return float(np.linalg.norm(a @ b)) <= RANK_CUT * scale


def pseudo_power(m, p):
    w, v = _eigh(m)
    keep = _kept(w)
    vals = np.where(keep, np.where(keep, w, 1.0) ** p, 0.0)
    return (v * vals) @ v.conj().T


def _trace_xlogx(m) -> float:
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    w = w[_kept(w)]
    return float(np.sum(w * np.log(w)))


def umegaki(a, b) -> float:
    if not contained(a, b):
        return math.inf
    wb, vb = _eigh(b)
    keep = _kept(wb)
    weights = np.einsum("ik,ij,jk->k", vb.conj(), a, vb).real
    return _trace_xlogx(a) - float(np.sum(np.log(wb[keep]) * weights[keep]))


def _renyi_is_inf(a, b, alpha) -> bool:
    return orthogonal(a, b) if alpha < 1.0 else not contained(a, b)


def renyi(a, b, alpha) -> float:
    if _renyi_is_inf(a, b, alpha):
        return math.inf
    t = np.trace(pseudo_power(a, alpha) @ pseudo_power(b, 1.0 - alpha)).real
    return math.log(t) / (alpha - 1.0)


def sandwiched_core(a, b, alpha) -> float:
    if alpha > 1.0 and not contained(a, b):
        return math.inf
    bp = pseudo_power(b, (1.0 - alpha) / (2.0 * alpha))
    m = bp @ a @ bp
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    # Relative to the product of the factors' norms, so that an exactly
    # vanishing product (orthogonal supports) keeps no rounding noise.
    scale = np.linalg.norm(bp, 2) ** 2 * np.linalg.norm(a, 2)
    w = w[w > RANK_CUT * scale]
    return float(np.sum(w**alpha))


def sandwiched(a, b, alpha) -> float:
    if _renyi_is_inf(a, b, alpha):
        return math.inf
    core = sandwiched_core(a, b, alpha)
    return math.log(core / np.trace(a).real) / (alpha - 1.0)


def dfg_sqrt_square(a, b) -> float:
    """tr g(f(B) A f(B)) with f = sqrt, g = square, on supp B: tr(ABAB)."""
    ab = a @ b
    return float(np.trace(ab @ ab).real)


def close(got, want) -> bool:
    """Same +inf verdict and, when finite, the same value within tolerance."""
    got, want = float(got), float(want)
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)
