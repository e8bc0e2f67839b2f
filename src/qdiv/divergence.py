"""Distinguishability functionals on positive operators, evaluated on stacks.

Every divergence takes a pair of operators, or two equal-length stacks of
them (lists or tuples of operators or matrices, or (N, n, n) arrays), and
then returns one value per pair.  There is one implementation per
divergence: a pair is the stack of one, and each member of a stack gets, bit
for bit, the value that the call on its pair alone gets.

Each quantity is computed from snapped spectral data, so support conditions
(the +inf branches) are decided by ranks, never by numeric overflow.  Every
+inf verdict is one comparison on the trace overlap <P_A, P_B> of the two
support projections, against ``SUPPORT_TRACE_TOL``: supp B lies inside supp A
when rank B - <P_A, P_B> is at most it, and the supports are orthogonal when
<P_A, P_B> is; such a branch returns ``INF``.  One driver, ``_per_pair``,
runs every divergence: it converts the operands and runs the divergence's
kernel once on all pairs.  A kernel returns ``INF`` or a float per pair and
raises where it fails; every float passes one per-pair gate, ``_gated``,
which raises ``NonFiniteResultError`` when it is inf or NaN, and an overflow
that stops a kernel raises the same error.  When a stack raises, the driver
runs its pairs one at a time, in order, so the first pair that fails on its
own raises its error, as a loop over the pairs would.  The Renyi traces are
computed as logs, the sandwiched ones on operands scaled by exact powers of
two, so a divergence whose value a float can hold does not overflow on the way
to it.

The finite values come from two stacked kernels.  ``_sandwich_eigs`` gives the
spectrum of F A F* with F diagonal in a given set of eigenvectors of B; the
generalized quantity tr g(f(B) A f(B)), its limit probe and the sandwiched
Renyi core tr (B^e A B^e)^alpha (f = t^e, g = t^alpha) are traces of it.  It
groups the members by (n, rank of B), and makes one stacked product and one
eigensolver call per group.  ``_overlaps`` gives W_ij = |<u_i, v_j>|^2 for the
eigenvectors u_i of A and v_j of B, and <P_A, P_B> as a sum over W, with one
stacked product per order n, once per call; the f-divergence, Umegaki and
traditional Renyi (Petz-type traces) are sums over that same W.  The cheap
final reductions (log-sum-exp, the sums over W) stay per pair, where stacking
them would change the bits.  The superoperator form of the f-divergence uses
neither kernel and is kept as an independent route, so the two can
cross-check each other.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import matrixcore as mc
from .extended import INF, ExtendedReal
from .functions import DomainError, ScalarFunctionSpec, _normal, spec_from_name
from .operators import PositiveOperator, ValidationError, as_density, as_positive


class NonFiniteResultError(ValueError):
    """A finite branch gave inf or NaN: its value does not fit a float."""


def _gated(name: str, value):
    """Pass ``INF``, a support verdict, through; return any other value as a
    checked finite float."""
    if value is INF:
        return INF
    if not math.isfinite(value):
        raise NonFiniteResultError(
            f"{name}: the value is not a finite float (got {value})")
    return ExtendedReal(value)  # a float; the benchmark reads .value, .is_inf


def _is_stack(x) -> bool:
    """A list or tuple of operators or matrices, or an (N, n, n) array, as
    against one operator or one (nested-list) matrix."""
    if isinstance(x, np.ndarray):
        return x.ndim == 3
    return isinstance(x, (list, tuple)) and (
        not x or isinstance(x[0], PositiveOperator) or np.ndim(x[0]) == 2)


def _grouped(keys):
    """Positions grouped by key, in order of first appearance."""
    groups = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return groups.values()


def _operands(a, b, as_op=as_positive):
    """Both arguments converted by ``as_op``; raises on a dimension mismatch."""
    a = as_op(a)
    b = as_op(b)
    if a.dim != b.dim:
        raise ValueError("dimension mismatch between the two operators")
    return a, b


def _evaluated(name: str, a, b, kernel, as_op) -> list:
    """The gated values of ``kernel`` on two equal-length lists of operands,
    each converted by ``as_op``.  numpy's overflow, invalid and log-of-zero
    warnings are silenced in the kernel, since the inf or NaN they leave is
    caught by the gate; a bool, a support verdict, is not gated."""
    pairs = [_operands(x, y, as_op) for x, y in zip(a, b)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            values = kernel([x for x, _ in pairs], [y for _, y in pairs])
        except OverflowError:
            raise NonFiniteResultError(f"{name}: the value overflows a float") from None
    return [v if isinstance(v, bool) else _gated(name, v) for v in values]


def _per_pair(name: str, a, b, kernel, as_op=as_positive):
    """``kernel(As, Bs)``, one value per pair of operators, on a pair (the
    N = 1 call; its value) or on two equal-length stacks (a list).

    The kernel runs once on the whole stack.  If the stack raises, each pair
    runs alone, in order, so the first pair that fails on its own raises its
    error, as a loop over the pairs would; the stack's error is raised when
    no pair fails alone.
    """
    single = not _is_stack(a)
    if _is_stack(b) == single:
        raise ValueError("expected two operators or two stacks of them")
    if single:
        a, b = [a], [b]
    elif len(a) != len(b):
        raise ValueError(f"stacks of {len(a)} and {len(b)} operators")
    try:
        values = _evaluated(name, a, b, kernel, as_op)
    except Exception:
        if len(a) > 1:
            for x, y in zip(a, b):
                _evaluated(name, [x], [y], kernel, as_op)
        raise
    return values[0] if single else values


def _overlaps(a, b) -> list:
    """(W, <P_A, P_B>) for each pair of two equal-length lists of operators.

    W_ij = |<u_i, v_j>|^2 for the eigenvectors u_i of A and v_j of B, and
    <P_A, P_B> = tr P_A P_B is the sum of W_ij over l_i, m_j > 0, the one
    number every support verdict reads.  One stacked product per order n.
    """
    out = [None] * len(a)
    for idx in _grouped(x.dim for x in a):
        u = np.array([a[k].eigenvectors for k in idx])
        v = np.array([b[k].eigenvectors for k in idx])
        w = np.abs(u.conj().swapaxes(1, 2) @ v) ** 2
        ma = np.array([a[k].eigenvalues > 0.0 for k in idx])
        mb = np.array([b[k].eigenvalues > 0.0 for k in idx])
        overlap = (w * ma[:, :, None] * mb[:, None, :]).sum(axis=(1, 2))
        for k, wk, ok in zip(idx, w, overlap.tolist()):
            out[k] = wk, ok
    return out


def _inside(x: PositiveOperator, overlap: float) -> bool:
    """Whether supp x lies inside the other support of a pair with
    <P_A, P_B> = ``overlap``: whether tr P_x - <P_A, P_B> is at most
    ``SUPPORT_TRACE_TOL``."""
    return x.rank - overlap <= mc.SUPPORT_TRACE_TOL


def _on_overlaps(value):
    """The kernel that gives each pair ``value(A, B, W, <P_A, P_B>)``, all
    from one ``_overlaps`` call."""
    return lambda pa, pb: [value(x, y, w, overlap) for x, y, (w, overlap)
                           in zip(pa, pb, _overlaps(pa, pb))]


def _verdicts(a, b, test):
    """``test(A, B, W, <P_A, P_B>)``, a bool, on a pair of operators or on
    each pair of two equal-length stacks (a bool array), with the operands
    converted as the divergences convert theirs."""
    verdicts = _per_pair("support", a, b, _on_overlaps(test))
    return verdicts if isinstance(verdicts, bool) else np.array(verdicts, dtype=bool)


def support_contains(outer, inner):
    """Whether supp(inner) is contained in supp(outer): whether
    tr P_inner - <P_inner, P_outer> = rank(inner) - <P_inner, P_outer> is at
    most ``SUPPORT_TRACE_TOL``.  For two stacks, one verdict per pair."""
    return _verdicts(outer, inner, lambda o, i, w, overlap: _inside(i, overlap))


def supports_orthogonal(a, b):
    """Whether the supports of a and b are orthogonal subspaces: whether
    <P_a, P_b> is at most ``SUPPORT_TRACE_TOL``.  For two stacks, one verdict
    per pair."""
    return _verdicts(a, b, lambda x, y, w, overlap: overlap <= mc.SUPPORT_TRACE_TOL)


def _log_trace(a: PositiveOperator) -> float:
    """log tr A from the snapped spectrum, without overflow; A must be nonzero."""
    top = float(a.eigenvalues[-1])
    return math.log(top) + math.log((a.eigenvalues / top).sum())


def _sandwich_eigs(ops, vecs, fvals, shifts=None) -> list:
    """Snapped eigenvalues of diag(f) (V* A' V) diag(f), A' = 2^shift A, for
    each member: A = ``ops[k]``, V = ``vecs[k]``, f = ``fvals[k]`` and shift =
    ``shifts[k]`` (0 when ``shifts`` is None).

    With orthonormal columns V and F = V diag(f) V*, these are the eigenvalues
    of F A' F* on the span of V; F A' F* is zero on its complement.  Empty
    when V has no columns, None when an entry of the product or its norm
    bound overflowed.
    Members are grouped by the shape of V: one stacked product and one
    eigensolver call per group, and each member comes out bit-identical to
    a group of one.
    """
    out = [np.zeros(0)] * len(ops)
    for idx in _grouped(v.shape for v in vecs):
        if not vecs[idx[0]].shape[1]:
            continue
        m = np.array([ops[k].matrix for k in idx])
        top = np.array([ops[k].eigenvalues[-1] for k in idx])
        if shifts is not None:  # exact while the entries stay normal floats
            shift = np.array([shifts[k] for k in idx])
            m = np.ldexp(m.view(np.float64), shift[:, None, None]).view(np.complex128)
            top = np.ldexp(top, shift)
        v = np.array([vecs[k] for k in idx])
        f = np.array([fvals[k] for k in idx])
        s0 = (f[:, :, None] * (v.conj().swapaxes(1, 2) @ m @ v)) * f[:, None, :]
        # ||F A' F*|| <= max|f|^2 ||A'||, squared last so that max|f|^2 alone
        # cannot overflow; a bound that overflows is an overflow of the member
        bound = (np.max(np.abs(f), axis=1) * np.sqrt(top)) ** 2
        finite = np.isfinite(s0.view(np.float64)).all(axis=(1, 2)) & np.isfinite(bound)
        if not finite.all():
            s0, bound = s0[finite], bound[finite]
        evals = iter(mc._snapped_psd_eig(s0, bound)[0] if len(s0) else ())
        for k, ok in zip(idx, finite):
            out[k] = next(evals) if ok else None
    return out


def f_divergence(a, b, f: ScalarFunctionSpec):
    """Quantum f-divergence as a double sum over pairs of eigenvectors.

    With A = sum_i l_i |u_i><u_i| and B = sum_j m_j |v_j><v_j| (snapped
    spectra) and overlaps W_ij = |<u_i, v_j>|^2, the value is the sum of
    W_ij m_j f(l_i/m_j) over l_i, m_j > 0, plus f(0) times the weight of
    supp B on the kernel of A, plus gamma * W_ij l_i over the kernel of B,
    with 0*inf = 0.  The term m f(l/m) is the perspective of f, taken from
    its declared closed form where the family has one, so that a ratio l/m
    that overflows does not end a finite branch.  The support decisions say
    which kernel terms exist and give the +inf branches: f(0+) = +inf with
    supp B not inside supp A, and gamma = +inf with supp A not inside supp B.
    """
    if f.gamma is None:
        raise DomainError(f"{f.name}: slope at infinity (gamma) is undeclared")
    perspective = f.perspective or (lambda lam, mu: mu * f(lam / mu))

    def value(x, y, w, overlap):
        f0 = gamma = 0.0
        if not _inside(y, overlap):
            if f.limit_at_zero is None:
                raise DomainError(f"{f.name}: undefined at the required ratio 0")
            if f.limit_at_zero == math.inf:
                return INF
            f0 = f.limit_at_zero
        if not _inside(x, overlap):
            if f.gamma == math.inf:
                return INF
            gamma = f.gamma
        lam, mu = x.eigenvalues, y.eigenvalues
        # f is evaluated only on pairs that meet, so 0 * f(t) = 0 even for huge f(t)
        i, j = np.nonzero(np.outer(lam > 0.0, mu > 0.0) & (w > 0.0))
        return (np.sum(w[i, j] * perspective(lam[i], mu[j]))
                + f0 * np.sum(w[lam == 0.0] @ mu)
                + gamma * np.sum(lam @ w[:, mu == 0.0]))

    return _per_pair("f_divergence", a, b, _on_overlaps(value))


def f_divergence_superop(a, b, f: ScalarFunctionSpec):
    """Superoperator form: <sqrt(B), f(L_A R_{B^-1}) sqrt(B)> in HS geometry.

    Requires invertible B.  Must agree with the eigenvector double sum; the
    pair is kept as a dual-route cross-check, evaluated pair by pair.
    """
    def value(x, y):
        if not y.definite:
            raise ValidationError("second operator must be positive definite")
        binv = y.pseudo_power(-1.0)
        # ||L_A R_{B^-1}|| = ||A|| ||B^-1||
        bound = float(x.eigenvalues[-1] / y.eigenvalues[0])
        lr = mc.superop_lr(x.matrix, binv)
        if not (math.isfinite(bound) and np.isfinite(lr).all()):
            raise OverflowError
        evals, vecs = mc._snapped_psd_eig(lr, bound)
        # evals are clamped at 0, where f takes its declared limit
        fvals = f(evals)
        if np.isinf(fvals).any():  # inf times the eigenvectors' entries is NaN
            raise OverflowError
        mf = (vecs * fvals) @ vecs.conj().T
        s = mc.vec(y.sqrt())
        out = complex(np.vdot(s, mf @ s))
        # roundoff in the imaginary part grows with the size of f on the spectrum
        scale = float(np.max(np.abs(fvals), initial=0.0)) * float(np.vdot(s, s).real)
        if abs(out.imag) > mc.SUPEROP_IMAG_TOL * scale:
            raise ArithmeticError("superoperator value has a large imaginary part")
        return out.real

    return _per_pair("f_divergence_superop", a, b,
                     lambda pa, pb: [value(x, y) for x, y in zip(pa, pb)])


def umegaki(a, b):
    """Relative entropy tr A(log A - log B), +inf unless supp A <= supp B."""
    def value(x, y, w, overlap):
        if not _inside(x, overlap):
            return INF
        ev = x.eigenvalues
        term_a = float(np.sum(ev[ev > 0.0] * np.log(ev[ev > 0.0])))
        mu = y.eigenvalues
        # <v_j, A v_j> = sum_i l_i W_ij for the eigenvectors v_j of B with mu_j > 0
        weights = (ev @ w)[mu > 0.0]
        term_b = float(np.log(mu[mu > 0.0]) @ weights)
        return term_a - term_b

    return _per_pair("umegaki", a, b, _on_overlaps(value), as_density)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < math.inf) or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,inf), got {alpha}")
    return alpha


def _renyi_inf(x, y, overlap: float, alpha: float) -> bool:
    """The Renyi support split of a pair: +inf for orthogonal supports when
    alpha < 1, and for supp A not inside supp B when alpha > 1;
    ``ValidationError`` when an operator is zero."""
    if x.eigenvalues[-1] == 0.0 or y.eigenvalues[-1] == 0.0:  # top of ascending
        raise ValidationError("operators must be nonzero")
    if alpha < 1.0:
        return overlap <= mc.SUPPORT_TRACE_TOL  # orthogonal supports
    return not _inside(x, overlap)


def renyi_traditional(a, b, alpha: float):
    """(alpha-1)^-1 log (tr(A^alpha B^(1-alpha)) / tr A); tr A = 1 on densities."""
    alpha = _check_alpha(alpha)

    def value(x, y, w, overlap):
        if _renyi_inf(x, y, overlap, alpha):
            return INF
        lam, mu = x.eigenvalues, y.eigenvalues
        pa, pb = lam > 0.0, mu > 0.0
        # logs of the terms l_i^alpha W_ij m_j^(1-alpha) of the trace over
        # l_i, m_j > 0 (-inf where W_ij = 0), summed by log-sum-exp
        terms = (np.log(w[pa][:, pb])
                 + alpha * np.log(lam[pa])[:, None] + (1.0 - alpha) * np.log(mu[pb]))
        top = terms.max()
        log_trace_ab = top + math.log(np.exp(terms - top).sum())
        return (log_trace_ab - _log_trace(x)) / (alpha - 1.0)

    return _per_pair("renyi_traditional", a, b, _on_overlaps(value))


def _open(inf, pa, pb):
    """The positions of the pairs that ``inf`` does not mark +inf, and their
    operands as two lists."""
    idx = [k for k, skip in enumerate(inf) if not skip]
    return idx, [pa[k] for k in idx], [pb[k] for k in idx]


def _sandwiched_cores(pa, pb, inf, alpha: float, finish) -> list:
    """``INF`` for each pair that ``inf`` marks, else ``finish(x, top, total,
    scale)``, where the core tr (B^e A B^e)^alpha, e = (1-alpha)/(2 alpha), is
    top^alpha * total * 2^scale; top = total = 0 when the core vanishes.

    The sandwich S is formed from A' = 2^-ka A and B' = 2^-kb B, whose top
    eigenvalues lie in [1/2, 1), so the scales of A and B cannot make it over-
    or underflow.  With top the top eigenvalue of S, tr S^alpha =
    top^alpha * total for total = sum (s_i/top)^alpha, and the scales come
    back as tr (B^e A B^e)^alpha = 2^scale tr S^alpha, scale =
    alpha ka + (1-alpha) kb.
    """
    e = (1.0 - alpha) / (2.0 * alpha)
    idx, pa, pb = _open(inf, pa, pb)
    ka = [math.frexp(x.eigenvalues[-1])[1] for x in pa]
    kb = [math.frexp(y.eigenvalues[-1])[1] for y in pb]
    fvals = [np.ldexp(y.eigenvalues[y.eigenvalues > 0.0], -k) ** e
             for y, k in zip(pb, kb)]
    spectra = _sandwich_eigs(pa, [y.support_basis for y in pb], fvals,
                             [-k for k in ka])
    out = [INF] * len(inf)
    for k, x, evals, a_exp, b_exp in zip(idx, pa, spectra, ka, kb):
        if evals is None:
            raise OverflowError
        pos = evals[evals > 0.0]
        top = pos[-1] if pos.size else 0.0
        out[k] = finish(x, top, ((pos / top) ** alpha).sum(),
                        alpha * a_exp + (1.0 - alpha) * b_exp)
    return out


def _log_core(alpha: float, top, total, scale: float) -> float:
    """log(top^alpha * total * 2^scale), -inf for a vanished core."""
    if not total:
        return -math.inf
    return alpha * math.log(top) + math.log(total) + scale * math.log(2.0)


def sandwiched_core(a, b, alpha: float):
    """tr (B^e A B^e)^alpha with e = (1-alpha)/(2 alpha), powers on supports.

    For alpha > 1 the value is +inf unless supp A <= supp B; for alpha < 1 the
    compression to supp B is built into the sandwich, which works on supp B.
    """
    alpha = _check_alpha(alpha)

    def core(x, top, total, scale):
        # 2^scale exactly, by ldexp; the logs where top^alpha is not normal
        whole = math.floor(scale)
        head = top**alpha * total * 2.0 ** (scale - whole)
        if _normal(head):
            return math.ldexp(head, whole)
        return math.exp(_log_core(alpha, top, total, scale))

    def kernel(pa, pb):
        inf = ([not _inside(x, overlap) for x, (_w, overlap) in zip(pa, _overlaps(pa, pb))]
               if alpha > 1.0 else [False] * len(pa))
        return _sandwiched_cores(pa, pb, inf, alpha, core)

    return _per_pair("sandwiched_core", a, b, kernel)


def sandwiched_renyi(a, b, alpha: float):
    """The quantum Renyi divergence with (tr A)^-1 normalization."""
    alpha = _check_alpha(alpha)

    def kernel(pa, pb):
        inf = [_renyi_inf(x, y, overlap, alpha)
               for x, y, (_w, overlap) in zip(pa, pb, _overlaps(pa, pb))]
        # a vanished core gives log 0 = -inf, which the gate rejects
        return _sandwiched_cores(pa, pb, inf, alpha, lambda x, top, total, scale: (
            _log_core(alpha, top, total, scale) - _log_trace(x)) / (alpha - 1.0))

    return _per_pair("sandwiched_renyi", a, b, kernel)


def _require_g(g: ScalarFunctionSpec) -> None:
    if g.limit_at_zero != 0.0:
        raise DomainError(f"{g.name}: outer function must satisfy g(0) = 0")


def _singular_extension(f: ScalarFunctionSpec, g: ScalarFunctionSpec) -> bool:
    """Whether tr g(f(B) A f(B)) has a +inf branch at singular B (f diverges
    at 0+); ``DomainError`` when f and g admit no extension to singular B."""
    if f.limit_at_zero is None:
        raise DomainError(f"{f.name}: limit at 0+ must be declared for singular arguments")
    if f.limit_at_zero == math.inf:
        if not (g.strictly_increasing and g.diverges_at_infinity):
            raise DomainError(
                f"{g.name}: must be strictly increasing and unbounded "
                "when f diverges at 0+"
            )
        return True
    if f.limit_at_zero != 0.0:
        raise DomainError(f"{f.name}: finite nonzero limit at 0+ has no defined extension")
    return False


def d_fg(a, b, f: ScalarFunctionSpec, g: ScalarFunctionSpec):
    """Generalized quantity tr g(f(B) A f(B)), extended to singular B.

    For invertible B this is a plain trace.  For singular B the declared limit
    of f at 0+ selects the extension: limit 0 compresses to supp B; limit +inf
    (with g strictly increasing and unbounded) is finite exactly when
    supp A <= supp B and +inf otherwise.
    """
    _require_g(g)
    return _per_pair("d_fg", a, b, _dfg_kernel(f, g))


def _dfg_kernel(f: ScalarFunctionSpec, g: ScalarFunctionSpec):
    """The kernel of ``d_fg``: ``INF`` where B is singular, the extension
    diverges and supp A is not inside supp B, else tr g(S) from the spectrum
    of S = f(B0) A0 f(B0) on supp B; an S that overflows overflows."""
    def kernel(pa, pb):
        inf = [False] * len(pa)
        if not all(y.definite for y in pb) and _singular_extension(f, g):
            inf = [not (y.definite or _inside(x, overlap))
                   for x, y, (_w, overlap) in zip(pa, pb, _overlaps(pa, pb))]
        # on supp B: tr g(f(B0) A0 f(B0)) with A0 the compression of A
        idx, pa, pb = _open(inf, pa, pb)
        spectra = _sandwich_eigs(pa, [y.support_basis for y in pb],
                                 [f(y.eigenvalues[y.eigenvalues > 0.0]) for y in pb])
        out = [INF] * len(inf)
        for k, evals in zip(idx, spectra):
            if evals is None:
                raise OverflowError
            out[k] = g(evals).sum()
        return out

    return kernel


def d_fg_limit_probe(a, b, f: ScalarFunctionSpec, g: ScalarFunctionSpec,
                     eps_schedule):
    """Evaluate tr g(f(B+eps I) A f(B+eps I)) along a decreasing schedule.

    Returns ``(values, estimate)`` where the estimate is the last value, or
    +inf when the values cross 1e12 and keep growing from that point on.
    The probe is a diagnostic for the rank-based extension, not its definition.
    The steps are one stack of pairs (A, B + eps I), B + eps I kept on the
    eigenvectors of B, evaluated by the kernel and per-pair gate of ``d_fg``,
    so a value that overflows raises ``NonFiniteResultError``.
    """
    a, b = _operands(a, b)
    _require_g(g)
    schedule = [float(e) for e in eps_schedule]
    if not schedule or any(e <= 0.0 for e in schedule):
        raise ValueError("schedule must be a nonempty list of positive numbers")
    if any(y >= x for x, y in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")

    with np.errstate(over="ignore"):  # B + eps I, on the eigenvectors of B
        shifted = [PositiveOperator.__new__(PositiveOperator)._adopt(
            b.matrix + eps * np.eye(b.dim), b.eigenvalues + eps, b.eigenvectors)
            for eps in schedule]
    values = [float(v) for v in _per_pair("d_fg_limit_probe", [a] * len(schedule),
                                          shifted, _dfg_kernel(f, g))]

    crossing = next((i for i, v in enumerate(values) if v > 1e12), None)
    diverged = crossing is not None and all(
        values[i + 1] >= values[i] for i in range(crossing, len(values) - 1)
    )
    estimate = INF if diverged else ExtendedReal(values[-1])
    return values, estimate


# Dispatch used by the command line and the invariance harness: each tag's
# divergence function, by its name in this module, and the parameters it takes.
_TAGS = {
    "umegaki": ("umegaki", ()),
    "renyi": ("renyi_traditional", ("alpha",)),
    "sandwiched": ("sandwiched_renyi", ("alpha",)),
    "sandwiched-core": ("sandwiched_core", ("alpha",)),
    "fdiv": ("f_divergence", ("f",)),
    "dfg": ("d_fg", ("f", "g")),
}
DIVERGENCE_TAGS = tuple(_TAGS)


def make_divergence(tag: str, alpha: Optional[float] = None,
                    f=None, g=None) -> Callable:
    """Resolve a divergence tag plus parameters into a two-argument callable.

    The callable takes a pair of operators or two stacks, as the divergence
    functions do.  It looks its function up by name at each call, so it sees
    a wrapper bound to that name later.
    ``f`` and ``g`` may be ScalarFunctionSpec instances or registry names
    like ``power:2``.  Unknown tags, and missing parameters or ones the tag
    does not take, raise KeyError; an alpha outside (0,1) or (1,inf) raises
    ValueError here, before any operand is read.
    """
    if tag not in _TAGS:
        raise KeyError(f"unknown divergence tag {tag!r} (have: {DIVERGENCE_TAGS})")
    name, takes = _TAGS[tag]
    if isinstance(f, str):
        f = spec_from_name(f)
    if isinstance(g, str):
        g = spec_from_name(g)
    given = {"alpha": alpha, "f": f, "g": g}
    for key, value in given.items():
        if (key in takes) != (value is not None):
            raise KeyError(f"{tag} {'needs' if key in takes else 'takes no'} --{key}")
    if alpha is not None:
        _check_alpha(alpha)
    params = {key: given[key] for key in takes}

    def divergence(a, b):
        return globals()[name](a, b, **params)

    return divergence
