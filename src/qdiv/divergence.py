"""Distinguishability functionals on positive operators.

Each quantity is computed from snapped spectral data, so support conditions
(the +inf branches) are decided by ranks, never by numeric overflow: every
+inf branch goes through ``support_contains`` or ``supports_orthogonal`` and
returns ``INF``.  Every other branch returns a float through one gate,
``_gated``, which raises ``NonFiniteResultError`` when that float is inf or
NaN or when an overflow stopped its computation.  The Renyi traces are
computed as logs, the sandwiched ones on operands scaled by exact powers of
two, so a divergence whose value a float can hold does not overflow on the
way to it.

The finite values come from two kernels.  ``_sandwich_eigs`` gives the
spectrum of F A F* with F diagonal in a given set of eigenvectors of B; the
generalized quantity tr g(f(B) A f(B)), its limit probe and the sandwiched
Renyi core tr (B^e A B^e)^alpha (f = t^e, g = t^alpha) are traces of it.
``_overlaps`` gives W_ij = |<u_i, v_j>|^2 for the eigenvectors u_i of A and
v_j of B; the f-divergence, Umegaki and traditional Renyi (Petz-type traces)
are sums over W.  The superoperator form of the f-divergence uses neither
kernel and is kept as an independent route, so the two can cross-check each
other.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from . import matrixcore as mc
from .extended import INF, ExtendedReal
from .functions import DomainError, ScalarFunctionSpec, spec_from_name
from .operators import PositiveOperator, ValidationError, as_density, as_positive

class NonFiniteResultError(ValueError):
    """A finite branch gave inf or NaN: its value does not fit a float."""


def _gated(fn):
    """Pass ``INF``, a support verdict, through; return any other result of
    ``fn`` as a checked finite value.  An ``OverflowError`` inside ``fn`` ends
    as ``NonFiniteResultError`` too; numpy's overflow, invalid and log-of-zero
    warnings are silenced here, since the inf or NaN they leave is caught."""
    @functools.wraps(fn)
    def gate(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                value = fn(*args, **kwargs)
            except OverflowError:
                raise NonFiniteResultError(
                    f"{fn.__name__}: the value overflows a float") from None
        if value is INF:
            return INF
        if not math.isfinite(value):
            raise NonFiniteResultError(
                f"{fn.__name__}: the value is not a finite float (got {value})")
        return ExtendedReal(value)  # a float; the benchmark reads .value, .is_inf
    return gate


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


def _operands(a, b, as_op=as_positive):
    """Both arguments converted by ``as_op``; raises on a dimension mismatch."""
    a = as_op(a)
    b = as_op(b)
    if a.dim != b.dim:
        raise ValueError("dimension mismatch between the two operators")
    return a, b


def _log_trace(a: PositiveOperator) -> float:
    """log tr A from the snapped spectrum, without overflow; A must be nonzero."""
    top = float(a.eigenvalues[-1])
    return math.log(top) + math.log((a.eigenvalues / top).sum())


def _sandwich_eigs(a: PositiveOperator, vecs: np.ndarray, fvals,
                   shift: int = 0) -> np.ndarray:
    """Snapped eigenvalues of diag(fvals) (vecs* A' vecs) diag(fvals), with
    A' = 2^shift A.

    With orthonormal columns ``vecs`` and F = vecs diag(fvals) vecs*, these
    are the eigenvalues of F A' F* on the span of ``vecs``; F A' F* is zero on
    its complement.  Empty when ``vecs`` has no columns.
    """
    if vecs.shape[1] == 0:
        return np.zeros(0)
    m, top = a.matrix, math.ldexp(a.eigenvalues[-1], shift)
    if shift:  # exact while the entries stay normal floats
        m = np.ldexp(m.view(np.float64), shift).view(np.complex128)
    a0 = vecs.conj().T @ m @ vecs
    s0 = (fvals[:, None] * a0) * fvals[None, :]
    # ||F A' F*|| <= max|f|^2 ||A'||
    bound = float(np.max(np.abs(fvals), initial=0.0)) ** 2 * top
    evals, _ = mc._snapped_psd_eig(s0, bound)
    return evals


def _overlaps(a: PositiveOperator, b: PositiveOperator) -> np.ndarray:
    """W_ij = |<u_i, v_j>|^2 for the eigenvectors u_i of A and v_j of B."""
    return np.abs(a.eigenvectors.conj().T @ b.eigenvectors) ** 2


@_gated
def f_divergence(a, b, f: ScalarFunctionSpec) -> float:
    """Quantum f-divergence as a double sum over pairs of eigenvectors.

    With A = sum_i l_i |u_i><u_i| and B = sum_j m_j |v_j><v_j| (snapped
    spectra) and overlaps W_ij = |<u_i, v_j>|^2, the value is the sum of
    W_ij m_j f(l_i/m_j) over l_i, m_j > 0, plus f(0) times the weight of
    supp B on the kernel of A, plus gamma * W_ij l_i over the kernel of B,
    with 0*inf = 0.  The support decisions say which kernel terms exist and
    give the +inf branches: f(0+) = +inf with supp B not inside supp A, and
    gamma = +inf with supp A not inside supp B.
    """
    a, b = _operands(a, b)
    if f.gamma is None:
        raise DomainError(f"{f.name}: slope at infinity (gamma) is undeclared")

    f0 = gamma = 0.0
    if not support_contains(a, b):
        if f.limit_at_zero is None:
            raise DomainError(f"{f.name}: undefined at the required ratio 0")
        if f.limit_at_zero == math.inf:
            return INF
        f0 = f.limit_at_zero
    if not support_contains(b, a):
        if f.gamma == math.inf:
            return INF
        gamma = f.gamma

    lam, mu = a.eigenvalues, b.eigenvalues
    w = _overlaps(a, b)
    # f is evaluated only on pairs that meet, so 0 * f(t) = 0 even for huge f(t)
    i, j = np.nonzero(np.outer(lam > 0.0, mu > 0.0) & (w > 0.0))
    fvals = np.array([f(t) for t in lam[i] / mu[j]])
    return (np.sum(w[i, j] * mu[j] * fvals)
            + f0 * np.sum(w[lam == 0.0] @ mu)
            + gamma * np.sum(lam @ w[:, mu == 0.0]))


@_gated
def f_divergence_superop(a, b, f: ScalarFunctionSpec) -> float:
    """Superoperator form: <sqrt(B), f(L_A R_{B^-1}) sqrt(B)> in HS geometry.

    Requires invertible B.  Must agree with the eigenvector double sum; the
    pair is kept as a dual-route cross-check.
    """
    a, b = _operands(a, b)
    if not b.definite:
        raise ValidationError("second operator must be positive definite")
    binv = b.pseudo_power(-1.0)
    # ||L_A R_{B^-1}|| = ||A|| ||B^-1||
    bound = float(a.eigenvalues[-1] / b.eigenvalues[0])
    evals, vecs = mc._snapped_psd_eig(mc.superop_lr(a.matrix, binv), bound)
    # evals are clamped at 0, where f takes its declared limit
    fvals = np.array([f(v) for v in evals])
    mf = (vecs * fvals) @ vecs.conj().T
    s = mc.vec(b.sqrt())
    out = complex(np.vdot(s, mf @ s))
    # roundoff in the imaginary part grows with the size of f on the spectrum
    scale = float(np.max(np.abs(fvals), initial=0.0)) * float(np.vdot(s, s).real)
    if abs(out.imag) > mc.SUPEROP_IMAG_TOL * scale:
        raise ArithmeticError("superoperator value has a large imaginary part")
    return out.real


@_gated
def umegaki(a, b) -> float:
    """Relative entropy tr A(log A - log B), +inf unless supp A <= supp B."""
    a, b = _operands(a, b, as_density)
    if not support_contains(b, a):
        return INF
    ev = a.eigenvalues
    term_a = float(np.sum(ev[ev > 0.0] * np.log(ev[ev > 0.0])))
    mu = b.eigenvalues
    # <v_j, A v_j> = sum_i l_i W_ij for the eigenvectors v_j of B with mu_j > 0
    weights = (ev @ _overlaps(a, b))[mu > 0.0]
    term_b = float(np.log(mu[mu > 0.0]) @ weights)
    return term_a - term_b


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (alpha > 0.0) or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,inf), got {alpha}")
    return alpha


def _renyi_is_inf(a: PositiveOperator, b: PositiveOperator, alpha: float) -> bool:
    """The Renyi support split: +inf for orthogonal supports when alpha < 1,
    and for supp A not inside supp B when alpha > 1."""
    if a.eigenvalues[-1] == 0.0 or b.eigenvalues[-1] == 0.0:  # top of ascending
        raise ValidationError("operators must be nonzero")
    return supports_orthogonal(a, b) if alpha < 1.0 else not support_contains(b, a)


@_gated
def renyi_traditional(a, b, alpha: float) -> float:
    """(alpha-1)^-1 log (tr(A^alpha B^(1-alpha)) / tr A); tr A = 1 on densities."""
    alpha = _check_alpha(alpha)
    a, b = _operands(a, b)
    if _renyi_is_inf(a, b, alpha):
        return INF
    lam, mu = a.eigenvalues, b.eigenvalues
    pa, pb = lam > 0.0, mu > 0.0
    # logs of the terms l_i^alpha W_ij m_j^(1-alpha) of the trace over
    # l_i, m_j > 0 (-inf where W_ij = 0), summed by log-sum-exp
    terms = (np.log(_overlaps(a, b)[pa][:, pb])
             + alpha * np.log(lam[pa])[:, None] + (1.0 - alpha) * np.log(mu[pb]))
    top = terms.max()
    log_trace_ab = top + math.log(np.exp(terms - top).sum())
    return (log_trace_ab - _log_trace(a)) / (alpha - 1.0)


def _log_sandwiched_core(a, b, alpha: float) -> float:
    """log tr (B^e A B^e)^alpha, e = (1-alpha)/(2 alpha); -inf when it vanishes.

    The sandwich S is formed from A' = 2^-ka A and B' = 2^-kb B, whose top
    eigenvalues lie in [1/2, 1), so the scales of A and B cannot make it over-
    or underflow.  With s the top eigenvalue of S, log tr S^alpha =
    alpha log s + log sum (s_i/s)^alpha, and the scales come back as
    tr (B^e A B^e)^alpha = 2^(alpha ka + (1-alpha) kb) tr S^alpha.
    """
    mu = b.eigenvalues
    ka, kb = math.frexp(a.eigenvalues[-1])[1], math.frexp(mu[-1])[1]
    e = (1.0 - alpha) / (2.0 * alpha)
    mu = np.ldexp(mu[mu > 0.0], -kb)
    evals = _sandwich_eigs(a, b.support_basis, mu**e, -ka)
    pos = evals[evals > 0.0]
    if not pos.size:
        return -math.inf
    top = pos[-1]
    log_core = alpha * math.log(top) + math.log(((pos / top) ** alpha).sum())
    return log_core + (alpha * ka + (1.0 - alpha) * kb) * math.log(2.0)


@_gated
def sandwiched_core(a, b, alpha: float) -> float:
    """tr (B^e A B^e)^alpha with e = (1-alpha)/(2 alpha), powers on supports.

    For alpha > 1 the value is +inf unless supp A <= supp B; for alpha < 1 the
    compression to supp B is built into the sandwich, which works on supp B.
    """
    alpha = _check_alpha(alpha)
    a, b = _operands(a, b)
    if alpha > 1.0 and not support_contains(b, a):
        return INF
    return math.exp(_log_sandwiched_core(a, b, alpha))


@_gated
def sandwiched_renyi(a, b, alpha: float) -> float:
    """The quantum Renyi divergence with (tr A)^-1 normalization."""
    alpha = _check_alpha(alpha)
    a, b = _operands(a, b)
    if _renyi_is_inf(a, b, alpha):
        return INF
    # a vanished core gives -inf, which the gate rejects
    return (_log_sandwiched_core(a, b, alpha) - _log_trace(a)) / (alpha - 1.0)


def _require_g(g: ScalarFunctionSpec) -> None:
    if g.limit_at_zero != 0.0:
        raise DomainError(f"{g.name}: outer function must satisfy g(0) = 0")


@_gated
def d_fg(a, b, f: ScalarFunctionSpec, g: ScalarFunctionSpec) -> float:
    """Generalized quantity tr g(f(B) A f(B)), extended to singular B.

    For invertible B this is a plain trace.  For singular B the declared limit
    of f at 0+ selects the extension: limit 0 compresses to supp B; limit +inf
    (with g strictly increasing and unbounded) is finite exactly when
    supp A <= supp B and +inf otherwise.
    """
    a, b = _operands(a, b)
    _require_g(g)
    if not b.definite:
        if f.limit_at_zero is None:
            raise DomainError(
                f"{f.name}: limit at 0+ must be declared for singular arguments"
            )
        if f.limit_at_zero == math.inf:
            if not (g.strictly_increasing and g.diverges_at_infinity):
                raise DomainError(
                    f"{g.name}: must be strictly increasing and unbounded "
                    "when f diverges at 0+"
                )
            if not support_contains(b, a):
                return INF
        elif f.limit_at_zero != 0.0:
            raise DomainError(
                f"{f.name}: finite nonzero limit at 0+ has no defined extension"
            )
    # on supp B: tr g(f(B0) A0 f(B0)) with A0 the compression of A
    mu = b.eigenvalues
    fb = np.array([f(t) for t in mu[mu > 0.0]])
    evals = _sandwich_eigs(a, b.support_basis, fb)
    return np.sum([g(v) for v in evals])


def d_fg_limit_probe(a, b, f: ScalarFunctionSpec, g: ScalarFunctionSpec,
                     eps_schedule):
    """Evaluate tr g(f(B+eps I) A f(B+eps I)) along a decreasing schedule.

    Returns ``(values, estimate)`` where the estimate is the last value, or
    +inf when the values cross 1e12 and keep growing from that point on.
    The probe is a diagnostic for the rank-based extension, not its definition.
    """
    a, b = _operands(a, b)
    _require_g(g)
    schedule = [float(e) for e in eps_schedule]
    if not schedule or any(e <= 0.0 for e in schedule):
        raise ValueError("schedule must be a nonempty list of positive numbers")
    if any(y >= x for x, y in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")

    values = []
    for eps in schedule:
        fb = np.array([f(t + eps) for t in b.eigenvalues])
        evals = _sandwich_eigs(a, b.eigenvectors, fb)
        values.append(float(np.sum([g(v) for v in evals])))

    crossing = next((i for i, v in enumerate(values) if v > 1e12), None)
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
