"""Distinguishability functionals on positive operators, evaluated on stacks.

Every divergence takes a pair of operators, or two equal-length stacks of
them of one order n (``OperatorStack``s, (N, n, n) arrays, or lists or
tuples of operators or matrices), and returns one value per pair.  There is
one implementation per divergence: a pair is the stack of one, and each
member of a stack gets, bit for bit, the value that the call on its pair
alone gets.  Every +inf branch is a support verdict, decided by ranks of the
snapped spectra and the trace overlap <P_A, P_B> against
``SUPPORT_TRACE_TOL``, never by overflow, in one place: ``_overlaps``
returns every verdict, and each kernel unpacks the one it needs.

One driver, ``_per_pair``, converts each side once into an
``OperatorStack`` (``operators.as_stack``), raises ``ValueError`` when the
two orders differ, and runs the divergence's kernel on the two stacks'
arrays.  A kernel returns a bool mask ``inf`` of +inf verdicts and a float
array of values per stack, and raises where it fails.  One gate on the whole
stack raises ``NonFiniteResultError`` for inf or NaN off the mask, as does an
overflow that stops a kernel.  When a stack raises, its pairs run one at a
time, in order, so the first pair that fails alone raises its error.  Only
``_per_pair`` turns the arrays into ``INF`` and floats.

Two kernels give the finite values: ``_overlaps`` (W = |U_A* U_B|^2, whose
sums are the f-divergence, Umegaki and traditional Renyi) and
``_sandwich_eigs`` (the spectrum of f(B) A f(B) on supp B, whose traces are
tr g(f(B) A f(B)), its limit probe and the sandwiched core).  Every final
sum runs over the full width of each member, with the terms off the supports
held at 0 (at -inf among logs; f-divergence terms read f only where l_i, m_j
and W_ij are positive): numpy reduces each member of a stack as it reduces
that member alone.  Renyi traces are taken as logs, the sandwiched ones on
operands scaled by exact powers of two, so a value that a float holds does
not overflow.  The superoperator form of the f-divergence uses neither
kernel: it is an independent cross-check.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import matrixcore as mc
from .extended import INF, ExtendedReal
from .functions import DomainError, ScalarFunctionSpec, _normal, spec_from_name
from .operators import DensityOperator, OperatorStack, PositiveOperator, \
    ValidationError, as_stack


class NonFiniteResultError(ValueError):
    """A finite branch gave inf or NaN: its value does not fit a float."""


def _is_stack(x) -> bool:
    """A stack of operators, as against one operator or one matrix."""
    if isinstance(x, (OperatorStack, np.ndarray)):
        return isinstance(x, OperatorStack) or x.ndim == 3
    return isinstance(x, (list, tuple)) and (
        not x or isinstance(x[0], PositiveOperator) or np.ndim(x[0]) == 2)


def _per_pair(name: str, a, b, kernel, cls=PositiveOperator):
    """``_stacked`` on a pair (its value) or on two equal-length stacks (a
    list): ``INF`` where a support verdict gives +inf, else the float."""
    single = not _is_stack(a)
    if _is_stack(b) == single:
        raise ValueError("expected two operators or two stacks of them")
    if single:
        a, b = [a], [b]
    elif len(a) != len(b):
        raise ValueError(f"stacks of {len(a)} and {len(b)} operators")
    inf, values = _stacked(name, a, b, kernel, cls)
    # a float subclass; the benchmark reads .value and .is_inf
    out = [INF if i else ExtendedReal(v) for i, v in zip(inf.tolist(), values.tolist())]
    return out[0] if single else out


def _stacked(name: str, a, b, kernel, cls):
    """``kernel(x, y)`` on two equal-length stacks of one order, each converted
    once to ``cls``'s ``OperatorStack``, numpy's warnings silenced: its +inf
    mask and its values, one gate requiring them finite off the mask.  If they
    raise, each pair runs alone, in order, as a one-pair stack not classified
    again, so the first pair that fails alone raises its error, else theirs."""
    if not len(a):
        return np.zeros(0, dtype=bool), np.zeros(0)
    try:
        x, y = as_stack(a, cls), as_stack(b, cls)
        if x.dim != y.dim:
            raise ValueError("dimension mismatch between the two operators")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                inf, values = kernel(x, y)
            except OverflowError:
                raise NonFiniteResultError(f"{name}: the value overflows a float") from None
        bad = values[~inf & ~np.isfinite(values)]
        if bad.size:
            raise NonFiniteResultError(
                f"{name}: the value is not a finite float (got {bad[0]})")
    except Exception:
        for k in range(len(a) if len(a) > 1 else 0):
            _stacked(name, [a[k]], [b[k]], kernel, cls)
        raise
    return inf, values


def _overlaps(x: OperatorStack, y: OperatorStack):
    """W_ij = |<u_i, v_j>|^2 (N, n, n) from one product, and three bool arrays
    (N,) from <P_A, P_B>, the sum of W_ij over l_i, m_j > 0: supp A inside
    supp B, supp B inside supp A (rank minus <P_A, P_B> at most
    ``SUPPORT_TRACE_TOL``), and orthogonal supports (<P_A, P_B> at most it)."""
    w = np.abs(x.eigenvectors.conj().swapaxes(1, 2) @ y.eigenvectors) ** 2
    ma, mb = x.eigenvalues > 0.0, y.eigenvalues > 0.0
    overlap = (w * ma[:, :, None] * mb[:, None, :]).sum(axis=(1, 2))
    tol = mc.SUPPORT_TRACE_TOL
    return w, x.ranks - overlap <= tol, y.ranks - overlap <= tol, overlap <= tol


def _verdicts(a, b, k):
    """Verdict k of ``_overlaps`` on a pair (a bool) or two stacks (a bool
    array), run by the divergences' driver as the +inf mask of zero values."""
    verdicts = np.isinf(_per_pair("support", a, b, lambda x, y: (
        _overlaps(x, y)[k], np.zeros(len(x)))))
    return verdicts if verdicts.ndim else bool(verdicts)


def support_contains(outer, inner):
    """Whether supp(inner) is contained in supp(outer): whether
    tr P_inner - <P_inner, P_outer> = rank(inner) - <P_inner, P_outer> is at
    most ``SUPPORT_TRACE_TOL``.  For two stacks, one verdict per pair."""
    return _verdicts(outer, inner, 2)


def supports_orthogonal(a, b):
    """Whether the supports of a and b are orthogonal subspaces: whether
    <P_a, P_b> is at most ``SUPPORT_TRACE_TOL``.  For two stacks, one verdict
    per pair."""
    return _verdicts(a, b, 3)


def _log_traces(lam) -> np.ndarray:
    """log tr A from each row of snapped spectra (N, n), without overflow;
    every A must be nonzero.  The rows are summed at once, as a row alone
    would be."""
    top = lam[:, -1:]
    return np.log(top[:, 0]) + np.log((lam / top).sum(axis=1))


def _sandwich_eigs(x: OperatorStack, y: OperatorStack, inf, fvals, shifts=None):
    """(N, n) array: for each pair the bool array ``inf`` does not mark, the
    snapped spectrum of F A' F* (F = V diag(f) V*, A' = 2^shift A) on the
    span of V in the last r = rank B entries of its row, zeros before them;
    zeros for a marked pair.  The spectrum is that of diag(f) (V* A' V)
    diag(f): V the last r eigenvectors of B, f the last r entries of the
    pair's row of ``fvals``, shift its entry of ``shifts`` (0 for None).
    ``OverflowError`` when a product or its norm bound overflows.  One
    product and one eigensolver call per rank, each member bit-identical to a
    stack of one."""
    out = np.zeros(x.eigenvalues.shape)
    for r in sorted(set(y.ranks[~inf].tolist()) - {0}):
        idx = np.flatnonzero(~inf & (y.ranks == r))
        m, top = x.matrices[idx], x.eigenvalues[idx, -1]
        if shifts is not None:  # exact while the entries stay normal floats
            m = np.ldexp(m.view(np.float64), shifts[idx, None, None]).view(np.complex128)
            top = np.ldexp(top, shifts[idx])
        v = np.ascontiguousarray(y.eigenvectors[idx, :, -r:])
        f = fvals[idx, -r:]
        s0 = (f[:, :, None] * (v.conj().swapaxes(1, 2) @ m @ v)) * f[:, None, :]
        # ||F A' F*|| <= max|f|^2 ||A'||, squared last so that max|f|^2 alone
        # cannot overflow; a bound that overflows is an overflow of the member
        bound = (np.max(np.abs(f), axis=1) * np.sqrt(top)) ** 2
        out[idx, -r:] = mc._snapped_psd_eig(s0, bound)[0]
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

    def kernel(x, y):
        w, a_in, b_in, _ = _overlaps(x, y)
        if f.limit_at_zero is None and not b_in.all():
            raise DomainError(f"{f.name}: undefined at the required ratio 0")
        inf = ~b_in & (f.limit_at_zero == math.inf) | ~a_in & (f.gamma == math.inf)
        lam = np.broadcast_to(x.eigenvalues[:, :, None], w.shape)
        mu = np.broadcast_to(y.eigenvalues[:, None, :], w.shape)
        # f only where l_i, m_j, W_ij > 0 on unmarked pairs: 0 * f(t) = 0 for huge f(t)
        meet = ~inf[:, None, None] & (lam > 0.0) & (mu > 0.0) & (w > 0.0)
        terms = np.zeros(w.shape)
        terms[meet] = w[meet] * perspective(lam[meet], mu[meet])
        # the kernel terms: f(0) W_ij m_j where l_i = 0, gamma W_ij l_i where m_j = 0
        f0 = np.where(b_in, 0.0, f.limit_at_zero or 0.0)[:, None, None]
        gamma = np.where(a_in, 0.0, f.gamma)[:, None, None]
        terms += w * (f0 * mu * (lam == 0.0) + gamma * lam * (mu == 0.0))
        return inf, terms.sum(axis=(1, 2))

    return _per_pair("f_divergence", a, b, kernel)


def f_divergence_superop(a, b, f: ScalarFunctionSpec):
    """Superoperator form: <sqrt(B), f(L_A R_{B^-1}) sqrt(B)> in HS geometry.

    Requires invertible B.  Must agree with the eigenvector double sum; the
    pair is kept as a dual-route cross-check: one eigensolver call on the
    stack's L_A R_{B^-1}, with B^-1 and sqrt(B) from the cached spectra.
    """
    def kernel(x, y):
        if not (y.ranks == y.dim).all():
            raise ValidationError("second operator must be positive definite")
        binv = mc.from_spectrum(y.eigenvalues ** -1.0, y.eigenvectors)
        # ||L_A R_{B^-1}|| = ||A|| ||B^-1||
        bound = x.eigenvalues[:, -1] / y.eigenvalues[:, 0]
        evals, vecs = mc._snapped_psd_eig(mc.superop_lr(x.matrices, binv), bound)
        # evals are clamped at 0, where f takes its declared limit
        fvals = f(evals)
        if np.isinf(fvals).any():  # inf times the eigenvectors' entries is NaN
            raise OverflowError
        mf = (vecs * fvals[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        # sqrt(B) vectorized column-major, as a column: s* M s is one product
        s = mc.from_spectrum(y.eigenvalues ** 0.5, y.eigenvectors).swapaxes(1, 2)
        s = s.reshape(len(y), -1, 1)
        sh = s.conj().swapaxes(1, 2)
        out = (sh @ (mf @ s))[:, 0, 0]
        # roundoff in the imaginary part grows with the size of f on the spectrum
        scale = np.max(np.abs(fvals), axis=1, initial=0.0) * (sh @ s)[:, 0, 0].real
        if (np.abs(out.imag) > mc.SUPEROP_IMAG_TOL * scale).any():
            raise ArithmeticError("superoperator value has a large imaginary part")
        return np.zeros(len(x), dtype=bool), out.real

    return _per_pair("f_divergence_superop", a, b, kernel)


def _row_sums(rows, fn) -> np.ndarray:
    """The sum of ``fn(rows)``, taken termwise, over the positive entries of
    each row of an (N, n) array of nonnegative rows (0 for none): the other
    terms count as 0, and every row is summed over its full width."""
    return np.where(rows > 0.0, fn(rows), 0.0).sum(axis=1)


def umegaki(a, b):
    """Relative entropy tr A(log A - log B), +inf unless supp A <= supp B."""
    def kernel(x, y):
        w, a_in, _, _ = _overlaps(x, y)
        term_a = _row_sums(x.eigenvalues, lambda lam: lam * np.log(lam))
        # <v_j, A v_j> = sum_i l_i W_ij for the eigenvectors v_j of B
        weights = np.matmul(x.eigenvalues[:, None, :], w)[:, 0]
        term_b = _row_sums(y.eigenvalues, lambda mu: weights * np.log(mu))
        return ~a_in, term_a - term_b

    return _per_pair("umegaki", a, b, kernel, DensityOperator)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < math.inf) or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,inf), got {alpha}")
    return alpha


def _renyi_inf(x: OperatorStack, y: OperatorStack, alpha: float):
    """W of ``_overlaps`` and the Renyi support split of each pair (a bool
    array): +inf for orthogonal supports when alpha < 1, and for supp A not
    inside supp B when alpha > 1; ``ValidationError`` when an operator is zero."""
    if not (x.ranks.all() and y.ranks.all()):
        raise ValidationError("operators must be nonzero")
    w, a_in, _, orthogonal = _overlaps(x, y)
    return w, orthogonal if alpha < 1.0 else ~a_in


def renyi_traditional(a, b, alpha: float):
    """(alpha-1)^-1 log (tr(A^alpha B^(1-alpha)) / tr A); tr A = 1 on densities."""
    alpha = _check_alpha(alpha)

    def kernel(x, y):
        w, inf = _renyi_inf(x, y, alpha)
        # log tr(A^alpha B^(1-alpha)) by log-sum-exp over the logs of its terms
        # l_i^alpha W_ij m_j^(1-alpha), -inf at l_i or m_j = 0; unmarked pairs have a finite one
        lam, mu = x.eigenvalues, y.eigenvalues
        terms = np.where((lam > 0.0)[:, :, None] & (mu > 0.0)[:, None, :],
                         np.log(w) + alpha * np.log(lam)[:, :, None]
                         + (1.0 - alpha) * np.log(mu)[:, None, :], -math.inf)
        top = terms.max(axis=(1, 2))
        sums = np.exp(terms - top[:, None, None]).sum(axis=(1, 2))
        return inf, (top + np.log(sums) - _log_traces(lam)) / (alpha - 1.0)

    return _per_pair("renyi_traditional", a, b, kernel)


def _sandwiched_cores(x, y, inf, alpha: float):
    """Four arrays (top, total, scale, log): each pair's core tr (B^e A
    B^e)^alpha, e = (1-alpha)/(2 alpha), is top^alpha * total * 2^scale, and
    log its log; top = total = 0, log = -inf, when the core vanishes and for
    each pair the bool array ``inf`` marks.

    The sandwich S is formed from A' = 2^-ka A and B' = 2^-kb B, whose top
    eigenvalues lie in [1/2, 1), so no scale makes it over- or underflow;
    top is its top eigenvalue, total = sum (s_i/top)^alpha and
    scale = alpha ka + (1-alpha) kb."""
    ka = np.frexp(x.eigenvalues[:, -1])[1]
    kb = np.frexp(y.eigenvalues[:, -1])[1]
    # f = t^e on B' (an inf at its zero eigenvalues is never read)
    fvals = np.ldexp(y.eigenvalues, -kb[:, None]) ** ((1.0 - alpha) / (2.0 * alpha))
    evals = _sandwich_eigs(x, y, inf, fvals, -ka)
    top = evals[:, -1]
    total = _row_sums(evals, lambda s: (s / top[:, None]) ** alpha)
    scale = alpha * ka + (1.0 - alpha) * kb
    return top, total, scale, alpha * np.log(top) + np.log(total) + scale * math.log(2.0)


def sandwiched_core(a, b, alpha: float):
    """tr (B^e A B^e)^alpha with e = (1-alpha)/(2 alpha), powers on supports.

    For alpha > 1 the value is +inf unless supp A <= supp B; for alpha < 1 the
    compression to supp B is built into the sandwich, which works on supp B.
    """
    alpha = _check_alpha(alpha)

    def kernel(x, y):
        inf = (~_overlaps(x, y)[1] if alpha > 1.0
               else np.zeros(len(x), dtype=bool))
        top, total, scale, log_core = _sandwiched_cores(x, y, inf, alpha)
        # 2^scale exactly by ldexp (exponent clipped past saturation); logs if head not normal
        whole = np.floor(scale)
        head = top**alpha * total * 2.0 ** (scale - whole)
        values = np.where(_normal(head),
                          np.ldexp(head, np.clip(whole, -4096, 4096).astype(int)),
                          np.exp(log_core))
        if np.isinf(values[~inf]).any():
            raise OverflowError
        return inf, values

    return _per_pair("sandwiched_core", a, b, kernel)


def sandwiched_renyi(a, b, alpha: float):
    """The quantum Renyi divergence with (tr A)^-1 normalization."""
    alpha = _check_alpha(alpha)

    def kernel(x, y):
        inf = _renyi_inf(x, y, alpha)[1]
        # a vanished core gives log 0 = -inf, which the gate rejects
        log_core = _sandwiched_cores(x, y, inf, alpha)[3]
        return inf, (log_core - _log_traces(x.eigenvalues)) / (alpha - 1.0)

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
    """The kernel of ``d_fg``: +inf where B is singular, the extension
    diverges and supp A is not inside supp B, else tr g(S) from the spectrum
    of S = f(B0) A0 f(B0) on supp B; an S that overflows overflows."""
    def kernel(x, y):
        singular = y.ranks < y.dim
        inf = np.zeros(len(x), dtype=bool)
        if singular.any() and _singular_extension(f, g):
            inf = singular & ~_overlaps(x, y)[1]
        # on supp B: tr g(f(B0) A0 f(B0)) with A0 the compression of A; f is
        # read on the support only, so 1 stands in for a zero eigenvalue.  The
        # entries off the support are 0, where g is 0
        fvals = f(np.where(y.eigenvalues > 0.0, y.eigenvalues, 1.0))
        return inf, g(_sandwich_eigs(x, y, inf, fvals)).sum(axis=1)

    return kernel


def d_fg_limit_probe(a, b, f: ScalarFunctionSpec, g: ScalarFunctionSpec,
                     eps_schedule):
    """Evaluate tr g(f(B+eps I) A f(B+eps I)) along a decreasing schedule.

    Returns ``(values, estimate)`` where the estimate is the last value, or
    +inf when the values cross 1e12 and keep growing from that point on.
    The probe is a diagnostic for the rank-based extension, not its definition.
    The steps are one stack of pairs (A, B + eps I), B + eps I definite and
    kept on the eigenvectors of B, evaluated by the kernel and gate of
    ``d_fg``, so a value that overflows raises ``NonFiniteResultError``.
    """
    x, y = as_stack([a]), as_stack([b])
    _require_g(g)
    schedule = [float(e) for e in eps_schedule]
    # a NaN step would read as rank 0, an empty trace, and an inf one as an overflow
    if not schedule or not all(0.0 < e < math.inf for e in schedule):
        raise ValueError("schedule must be a nonempty list of positive finite numbers")
    if any(t >= s for s, t in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")

    eps, steps = np.array(schedule), np.zeros(len(schedule), dtype=int)
    x, y = x[steps], y[steps]
    with np.errstate(over="ignore"):  # B + eps I, on the eigenvectors of B
        shifted = OperatorStack(PositiveOperator,
                                y.matrices + eps[:, None, None] * np.eye(y.dim),
                                y.eigenvalues + eps[:, None], y.eigenvectors)
    values = _stacked("d_fg_limit_probe", x, shifted, _dfg_kernel(f, g),
                      PositiveOperator)[1].tolist()

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

    # the name error messages give it, e.g. "sandwiched(alpha=2)"
    divergence.__name__ = divergence.__qualname__ = "{}({})".format(
        tag, ", ".join(f"{key}={getattr(v, 'name', v)}" for key, v in params.items()))
    return divergence
