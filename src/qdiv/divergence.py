"""Distinguishability functionals on positive operators.

Each quantity is computed from snapped spectral data, so support conditions
(the +inf branches) are decided by ranks, never by numeric overflow: every
+inf branch goes through ``support_contains`` or ``supports_orthogonal``.
The f-divergence is a double sum over pairs of eigenvectors of A and B,
weighted by their squared overlaps; its superoperator form is kept as an
independent route so the two can cross-check each other.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import matrixcore as mc
from .extended import INF, ExtendedReal
from .functions import DomainError, ScalarFunctionSpec, spec_from_name
from .operators import PositiveOperator, ValidationError, as_density, as_positive


def support_contains(outer: PositiveOperator, inner: PositiveOperator) -> bool:
    """Whether supp(inner) is contained in supp(outer)."""
    pi = inner.support_projection
    po = outer.support_projection
    defect = float(np.trace(pi).real) - mc.hs_inner(pi, po).real
    return defect <= mc.SUPPORT_TRACE_TOL


def supports_orthogonal(a: PositiveOperator, b: PositiveOperator) -> bool:
    """Whether the supports of a and b are orthogonal subspaces."""
    overlap = mc.hs_inner(a.support_projection, b.support_projection).real
    return overlap <= mc.SUPPORT_TRACE_TOL


def _snapped_psd_eig(m: np.ndarray, bound: float):
    """Eigensystem of a PSD product of norm at most ``bound``: eigenvalues
    clamped at 0, those at or below ``EIG_SNAP * bound`` snapped to 0.  The
    bound, not the product's own top eigenvalue, sets the scale: that top is
    noise when the product is zero in exact arithmetic."""
    evals, vecs = mc.eig_hermitian(mc.hermitian_part(m))
    evals = np.clip(evals, 0.0, None)
    evals[evals <= mc.EIG_SNAP * bound] = 0.0
    return evals, vecs


def _sandwich_bound(fvals, a: PositiveOperator) -> float:
    """Norm bound max|f|^2 ||A|| for F A F* with F of eigenvalues ``fvals``."""
    return float(np.max(np.abs(fvals), initial=0.0)) ** 2 * float(a.eigenvalues[-1])


def _f_at_zero_term(f: ScalarFunctionSpec):
    """Value of f at 0, or None when the one-sided limit is +inf."""
    if f.value_at_zero is not None:
        return f.value_at_zero
    if f.limit_at_zero is not None:
        if f.limit_at_zero.is_inf:
            return None
        return f.limit_at_zero.value
    raise DomainError(f"{f.name}: undefined at the required ratio 0")


def f_divergence(a, b, f: ScalarFunctionSpec) -> ExtendedReal:
    """Quantum f-divergence as a double sum over pairs of eigenvectors.

    With A = sum_i l_i |u_i><u_i| and B = sum_j m_j |v_j><v_j| (snapped
    spectra) and overlaps W_ij = |<u_i, v_j>|^2, the value is the sum of
    W_ij m_j f(l_i/m_j) over l_i, m_j > 0, plus f(0) times the weight of
    supp B on the kernel of A, plus gamma * W_ij l_i over the kernel of B,
    with 0*inf = 0.  The support decisions say which kernel terms exist and
    give the +inf branches: f(0+) = +inf with supp B not inside supp A, and
    gamma = +inf with supp A not inside supp B.
    """
    a = as_positive(a)
    b = as_positive(b)
    if a.dim != b.dim:
        raise ValueError("dimension mismatch between the two operators")
    if f.gamma is None:
        raise DomainError(f"{f.name}: slope at infinity (gamma) is undeclared")

    f0 = gamma = 0.0
    if not support_contains(a, b):
        f0 = _f_at_zero_term(f)
        if f0 is None:
            return INF
    if not support_contains(b, a):
        if f.gamma.is_inf:
            return INF
        gamma = f.gamma.value

    lam, mu = a.eigenvalues, b.eigenvalues
    w = np.abs(a.eigenvectors.conj().T @ b.eigenvectors) ** 2
    # f is evaluated only on pairs that meet, so 0 * f(t) = 0 even for huge f(t)
    i, j = np.nonzero(np.outer(lam > 0.0, mu > 0.0) & (w > 0.0))
    fvals = np.array([f(t) for t in lam[i] / mu[j]])
    total = (np.sum(w[i, j] * mu[j] * fvals)
             + f0 * np.sum(w[lam == 0.0] @ mu)
             + gamma * np.sum(lam @ w[:, mu == 0.0]))
    return ExtendedReal(float(total))


def f_divergence_superop(a, b, f: ScalarFunctionSpec) -> float:
    """Superoperator form: <sqrt(B), f(L_A R_{B^-1}) sqrt(B)> in HS geometry.

    Requires invertible B.  Must agree with the eigenvector double sum; the
    pair is kept as a dual-route cross-check.
    """
    a = as_positive(a)
    b = as_positive(b)
    if a.dim != b.dim:
        raise ValueError("dimension mismatch between the two operators")
    if not b.definite:
        raise ValidationError("second operator must be positive definite")
    binv = b.pseudo_power(-1.0)
    # ||L_A R_{B^-1}|| = ||A|| ||B^-1||
    bound = float(a.eigenvalues[-1] / b.eigenvalues[0])
    evals, vecs = _snapped_psd_eig(mc.superop_lr(a.matrix, binv), bound)
    fvals = np.array([f(v) if v > 0.0 else _require_zero_value(f) for v in evals])
    mf = (vecs * fvals) @ vecs.conj().T
    s = mc.vec(b.sqrt())
    out = complex(np.vdot(s, mf @ s))
    # roundoff in the imaginary part grows with the size of f on the spectrum
    scale = float(np.max(np.abs(fvals), initial=0.0)) * float(np.vdot(s, s).real)
    if abs(out.imag) > mc.SUPEROP_IMAG_TOL * scale:
        raise ArithmeticError("superoperator value has a large imaginary part")
    return float(out.real)


def _require_zero_value(f: ScalarFunctionSpec) -> float:
    f0 = _f_at_zero_term(f)
    if f0 is None:
        raise DomainError(f"{f.name}: diverges at 0 but a zero ratio occurred")
    return f0


def umegaki(a, b) -> ExtendedReal:
    """Relative entropy tr A(log A - log B), +inf unless supp A <= supp B."""
    a = as_density(a)
    b = as_density(b)
    if a.dim != b.dim:
        raise ValueError("dimension mismatch between the two operators")
    if not support_contains(b, a):
        return INF
    ev = a.eigenvalues
    term_a = float(np.sum(ev[ev > 0.0] * np.log(ev[ev > 0.0])))
    mu = b.eigenvalues
    vb = b.support_basis
    # <v_j, A v_j> for the eigenvectors v_j of B with mu_j > 0
    weights = np.sum(vb.conj() * (a.matrix @ vb), axis=0).real
    term_b = float(np.log(mu[mu > 0.0]) @ weights)
    return ExtendedReal(term_a - term_b)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (alpha > 0.0) or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,inf), got {alpha}")
    return alpha


def renyi_traditional(a, b, alpha: float) -> ExtendedReal:
    """(alpha-1)^-1 log tr(A^alpha B^(1-alpha)) with the support case split."""
    alpha = _check_alpha(alpha)
    a = as_density(a)
    b = as_density(b)
    if a.dim != b.dim:
        raise ValueError("dimension mismatch between the two operators")
    if alpha < 1.0:
        if supports_orthogonal(a, b):
            return INF
    else:
        if not support_contains(b, a):
            return INF
    t = float(np.trace(a.pseudo_power(alpha) @ b.pseudo_power(1.0 - alpha)).real)
    if t <= 0.0:
        raise ArithmeticError("trace term vanished outside the infinite branch")
    return ExtendedReal(math.log(t) / (alpha - 1.0))


def sandwiched_core(a, b, alpha: float) -> ExtendedReal:
    """tr (B^e A B^e)^alpha with e = (1-alpha)/(2 alpha), powers on supports.

    For alpha > 1 the value is +inf unless supp A <= supp B; for alpha < 1 the
    compression to supp B is built into the pseudo-powers.
    """
    alpha = _check_alpha(alpha)
    a = as_positive(a)
    b = as_positive(b)
    if a.dim != b.dim:
        raise ValueError("dimension mismatch between the two operators")
    if alpha > 1.0 and not support_contains(b, a):
        return INF
    e = (1.0 - alpha) / (2.0 * alpha)
    bp = b.pseudo_power(e)
    mu = b.eigenvalues
    evals, _ = _snapped_psd_eig(bp @ a.matrix @ bp, _sandwich_bound(mu[mu > 0.0] ** e, a))
    pos = evals[evals > 0.0]
    return ExtendedReal(float(np.sum(pos**alpha)))


def sandwiched_renyi(a, b, alpha: float) -> ExtendedReal:
    """The quantum Renyi divergence with (tr A)^-1 normalization."""
    alpha = _check_alpha(alpha)
    a = as_positive(a)
    b = as_positive(b)
    if a.rank == 0 or b.rank == 0:
        raise ValidationError("operators must be nonzero")
    if alpha < 1.0 and supports_orthogonal(a, b):
        return INF
    # for alpha > 1 the core decides supp A <= supp B
    core = sandwiched_core(a, b, alpha)
    if core.is_inf:
        return INF
    ratio = core.value / a.trace
    if ratio <= 0.0:
        raise ArithmeticError("core trace vanished outside the infinite branch")
    return ExtendedReal(math.log(ratio) / (alpha - 1.0))


def _require_g(g: ScalarFunctionSpec) -> None:
    if g.value_at_zero is None or g.value_at_zero != 0.0:
        raise DomainError(f"{g.name}: outer function must satisfy g(0) = 0")


def _dab_on_support(a: PositiveOperator, b: PositiveOperator,
                    f: ScalarFunctionSpec, g: ScalarFunctionSpec) -> float:
    """tr g(f(B0) A0 f(B0)) on supp B, with A0 the compression of A."""
    mask = b.eigenvalues > 0.0
    if not np.any(mask):
        return 0.0
    vb = b.eigenvectors[:, mask]
    fb = np.array([f(t) for t in b.eigenvalues[mask]])
    a0 = vb.conj().T @ a.matrix @ vb
    s0 = (fb[:, None] * a0) * fb[None, :]
    evals, _ = _snapped_psd_eig(s0, _sandwich_bound(fb, a))
    return float(np.sum([g(v) for v in evals]))


def d_fg(a, b, f: ScalarFunctionSpec, g: ScalarFunctionSpec) -> ExtendedReal:
    """Generalized quantity tr g(f(B) A f(B)), extended to singular B.

    For invertible B this is a plain trace.  For singular B the declared limit
    of f at 0+ selects the extension: limit 0 compresses to supp B; limit +inf
    (with g strictly increasing and unbounded) is finite exactly when
    supp A <= supp B and +inf otherwise.
    """
    a = as_positive(a)
    b = as_positive(b)
    if a.dim != b.dim:
        raise ValueError("dimension mismatch between the two operators")
    _require_g(g)
    if not b.definite:
        if f.limit_at_zero is None:
            raise DomainError(
                f"{f.name}: limit at 0+ must be declared for singular arguments"
            )
        if f.limit_at_zero.is_inf:
            if not (g.strictly_increasing and g.diverges_at_infinity):
                raise DomainError(
                    f"{g.name}: must be strictly increasing and unbounded "
                    "when f diverges at 0+"
                )
            if not support_contains(b, a):
                return INF
        elif f.limit_at_zero.value != 0.0:
            raise DomainError(
                f"{f.name}: finite nonzero limit at 0+ has no defined extension"
            )
    return ExtendedReal(_dab_on_support(a, b, f, g))


def d_fg_limit_probe(a, b, f: ScalarFunctionSpec, g: ScalarFunctionSpec,
                     eps_schedule, cap: float = 1e12):
    """Evaluate tr g(f(B+eps I) A f(B+eps I)) along a decreasing schedule.

    Returns ``(values, estimate)`` where the estimate is the last value, or
    +inf when the values cross ``cap`` and keep growing from that point on.
    The probe is a diagnostic for the rank-based extension, not its definition.
    """
    a = as_positive(a)
    b = as_positive(b)
    if a.dim != b.dim:
        raise ValueError("dimension mismatch between the two operators")
    _require_g(g)
    schedule = [float(e) for e in eps_schedule]
    if not schedule or any(e <= 0.0 for e in schedule):
        raise ValueError("schedule must be a nonempty list of positive numbers")
    if any(y >= x for x, y in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")

    vecs = b.eigenvectors
    values = []
    for eps in schedule:
        fb = np.array([f(t + eps) for t in b.eigenvalues])
        fmat = (vecs * fb) @ vecs.conj().T
        evals, _ = _snapped_psd_eig(fmat @ a.matrix @ fmat.conj().T,
                                    _sandwich_bound(fb, a))
        values.append(float(np.sum([g(v) for v in evals])))

    crossing = next((i for i, v in enumerate(values) if v > cap), None)
    diverged = crossing is not None and all(
        values[i + 1] >= values[i] for i in range(crossing, len(values) - 1)
    )
    estimate = INF if diverged else ExtendedReal(values[-1])
    return values, estimate


# Dispatch used by the command line and the invariance harness.
DIVERGENCE_TAGS = ("umegaki", "renyi", "sandwiched", "sandwiched-core", "fdiv", "dfg")


def make_divergence(tag: str, alpha: Optional[float] = None,
                    f=None, g=None) -> Callable:
    """Resolve a divergence tag plus parameters into a two-argument callable.

    ``f`` and ``g`` may be ScalarFunctionSpec instances or registry names like
    ``power:2``.  Unknown tags or missing parameters raise KeyError.
    """
    if isinstance(f, str):
        f = spec_from_name(f)
    if isinstance(g, str):
        g = spec_from_name(g)
    if tag == "umegaki":
        return umegaki
    if tag == "renyi":
        if alpha is None:
            raise KeyError("renyi needs --alpha")
        return lambda a, b: renyi_traditional(a, b, alpha)
    if tag == "sandwiched":
        if alpha is None:
            raise KeyError("sandwiched needs --alpha")
        return lambda a, b: sandwiched_renyi(a, b, alpha)
    if tag == "sandwiched-core":
        if alpha is None:
            raise KeyError("sandwiched-core needs --alpha")
        return lambda a, b: sandwiched_core(a, b, alpha)
    if tag == "fdiv":
        if f is None:
            raise KeyError("fdiv needs --f")
        return lambda a, b: f_divergence(a, b, f)
    if tag == "dfg":
        if f is None or g is None:
            raise KeyError("dfg needs --f and --g")
        return lambda a, b: d_fg(a, b, f, g)
    raise KeyError(f"unknown divergence tag {tag!r} (have: {DIVERGENCE_TAGS})")
