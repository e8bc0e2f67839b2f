"""Distinguishability functionals on positive operators, evaluated on stacks.

Every divergence takes a pair of operators, or two equal-length stacks of
them of one order n (``OperatorStack``s, (N, n, n) arrays, or lists or
tuples of operators or matrices), and returns one value per pair.  There is
one implementation per divergence: a pair is the stack of one, and each
member of a stack gets, bit for bit, the value that the call on its pair
alone gets.  Every +inf branch is a support verdict, decided by ranks of the
snapped spectra and the trace overlap <P_A, P_B> against
``SUPPORT_TRACE_TOL``, never by overflow.

One driver, ``_per_pair``, converts each side once into an
``OperatorStack`` (``operators.as_stack``), raises ``ValueError`` when the
two orders differ, and runs the divergence's kernel on the two stacks'
arrays.  A kernel returns ``INF`` or a float per pair and raises where it
fails; each float passes one gate, ``_gated``, which raises
``NonFiniteResultError`` for inf or NaN, as does an overflow that stops a
kernel.  When a stack raises, its pairs run one at a time, in order, so the
first pair that fails alone raises its error.

Two kernels give the finite values: ``_overlaps`` (W = |U_A* U_B|^2, whose
sums are the f-divergence, Umegaki and traditional Renyi) and
``_sandwich_eigs`` (the spectrum of f(B) A f(B) on supp B, whose traces are
tr g(f(B) A f(B)), its limit probe and the sandwiched core).  The final
reductions of Umegaki, traditional Renyi and the sandwiched core run on
arrays grouped by rank, so that each member holds exactly the terms of its
pair: numpy reduces each member of a stack as it reduces that member alone.
``math.log`` takes the final scalars, and the f-divergence sums stay per
pair.  Renyi traces are taken as logs, the sandwiched ones
on operands scaled by exact powers of two, so a value that a float holds does
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
    """A stack of operators, as against one operator or one matrix."""
    if isinstance(x, (OperatorStack, np.ndarray)):
        return isinstance(x, OperatorStack) or x.ndim == 3
    return isinstance(x, (list, tuple)) and (
        not x or isinstance(x[0], PositiveOperator) or np.ndim(x[0]) == 2)


def _per_pair(name: str, a, b, kernel, cls=PositiveOperator):
    """The gated values (bools pass) of ``kernel(x, y)`` on ``OperatorStack``s
    of ``cls``, each side converted once, on a pair (its value) or on two
    equal-length stacks of one order (a list; ``[]`` for two empty stacks);
    numpy's warnings are silenced, as the gate catches inf and NaN.  If the
    stack raises, each pair runs alone, in order, so the first pair that fails
    alone raises its error; else the stack's error is raised."""
    single = not _is_stack(a)
    if _is_stack(b) == single:
        raise ValueError("expected two operators or two stacks of them")
    if single:
        a, b = [a], [b]
    elif len(a) != len(b):
        raise ValueError(f"stacks of {len(a)} and {len(b)} operators")
    elif not len(a):
        return []
    try:
        x, y = as_stack(a, cls), as_stack(b, cls)
        if x.dim != y.dim:
            raise ValueError("dimension mismatch between the two operators")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                out = kernel(x, y)
            except OverflowError:
                raise NonFiniteResultError(f"{name}: the value overflows a float") from None
        values = [v if isinstance(v, bool) else _gated(name, v) for v in out]
    except Exception:
        for k in range(len(a) if len(a) > 1 else 0):
            _per_pair(name, a[k], b[k], kernel, cls)
        raise
    return values[0] if single else values


def _overlaps(x: OperatorStack, y: OperatorStack):
    """W_ij = |<u_i, v_j>|^2 (N, n, n) from one product, and <P_A, P_B> (N,),
    the sum of W_ij over l_i, m_j > 0 that every support verdict reads."""
    w = np.abs(x.eigenvectors.conj().swapaxes(1, 2) @ y.eigenvectors) ** 2
    ma, mb = x.eigenvalues > 0.0, y.eigenvalues > 0.0
    return w, (w * ma[:, :, None] * mb[:, None, :]).sum(axis=(1, 2))


def _inside(x: OperatorStack, overlap):
    """Per pair, whether the support of its member of ``x`` lies inside the
    other one: tr P_x - <P_A, P_B> at most ``SUPPORT_TRACE_TOL`` (bool array)."""
    return x.ranks - overlap <= mc.SUPPORT_TRACE_TOL


def _verdicts(a, b, test):
    """``test(x, y, <P_A, P_B>)`` on a pair (a bool) or two stacks (a bool array)."""
    verdicts = _per_pair("support", a, b,
                         lambda x, y: test(x, y, _overlaps(x, y)[1]).tolist())
    return verdicts if isinstance(verdicts, bool) else np.array(verdicts, dtype=bool)


def support_contains(outer, inner):
    """Whether supp(inner) is contained in supp(outer): whether
    tr P_inner - <P_inner, P_outer> = rank(inner) - <P_inner, P_outer> is at
    most ``SUPPORT_TRACE_TOL``.  For two stacks, one verdict per pair."""
    return _verdicts(outer, inner, lambda o, i, overlap: _inside(i, overlap))


def supports_orthogonal(a, b):
    """Whether the supports of a and b are orthogonal subspaces: whether
    <P_a, P_b> is at most ``SUPPORT_TRACE_TOL``.  For two stacks, one verdict
    per pair."""
    return _verdicts(a, b, lambda x, y, overlap: overlap <= mc.SUPPORT_TRACE_TOL)


def _log_traces(lam) -> list:
    """log tr A from each row of snapped spectra (N, n), without overflow;
    every A must be nonzero.  The rows are summed at once, as a row alone
    would be, and ``math.log`` takes the results."""
    top = lam[:, -1:]
    return [math.log(t) + math.log(s)
            for t, s in zip(top[:, 0].tolist(), (lam / top).sum(axis=1).tolist())]


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
        if not (np.isfinite(s0.view(np.float64)).all() and np.isfinite(bound).all()):
            raise OverflowError
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

    def value(lam, mu, w, a_in, b_in):
        f0 = gamma = 0.0
        if not b_in:
            if f.limit_at_zero is None:
                raise DomainError(f"{f.name}: undefined at the required ratio 0")
            if f.limit_at_zero == math.inf:
                return INF
            f0 = f.limit_at_zero
        if not a_in:
            if f.gamma == math.inf:
                return INF
            gamma = f.gamma
        # f is evaluated only on pairs that meet, so 0 * f(t) = 0 even for huge f(t)
        i, j = np.nonzero(np.outer(lam > 0.0, mu > 0.0) & (w > 0.0))
        return (np.sum(w[i, j] * perspective(lam[i], mu[j]))
                + f0 * np.sum(w[lam == 0.0] @ mu)
                + gamma * np.sum(lam @ w[:, mu == 0.0]))

    def kernel(x, y):
        w, overlap = _overlaps(x, y)
        return list(map(value, x.eigenvalues, y.eigenvalues, w,
                        _inside(x, overlap), _inside(y, overlap)))

    return _per_pair("f_divergence", a, b, kernel)


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
                     lambda x, y: [value(p, q) for p, q in zip(x, y)])


def _row_sums(rows, fn) -> np.ndarray:
    """The sum over the positive entries of each row of an (N, n) array of
    ascending nonnegative rows (0 for none) of ``fn(block, idx)``, the
    termwise function of those entries, ``block`` the last p columns of the
    rows ``idx`` that have p positive entries: one pass per p, each row
    summed as numpy sums its p terms alone."""
    sums, counts = np.zeros(len(rows)), np.count_nonzero(rows > 0.0, axis=1)
    for p in sorted(set(counts.tolist()) - {0}):
        idx = np.flatnonzero(counts == p)
        sums[idx] = fn(rows[idx, -p:], idx).sum(axis=1)
    return sums


def umegaki(a, b):
    """Relative entropy tr A(log A - log B), +inf unless supp A <= supp B."""
    def kernel(x, y):
        w, overlap = _overlaps(x, y)
        term_a = _row_sums(x.eigenvalues, lambda lam, idx: lam * np.log(lam))
        # <v_j, A v_j> = sum_i l_i W_ij for the eigenvectors v_j of B, dotted
        # with log m_j over m_j > 0: one product per rank q of B, whose
        # members numpy's matmul computes as it computes one pair's vectors
        weights = np.matmul(x.eigenvalues[:, None, :], w)[:, 0]
        term_b = np.zeros(len(x))
        for q in sorted(set(y.ranks.tolist())):
            idx = np.flatnonzero(y.ranks == q)
            term_b[idx] = np.matmul(np.log(y.eigenvalues[idx, None, -q:]),
                                    weights[idx, -q:, None])[:, 0, 0]
        return [t if a_in else INF for a_in, t in zip(
            _inside(x, overlap).tolist(), (term_a - term_b).tolist())]

    return _per_pair("umegaki", a, b, kernel, DensityOperator)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < math.inf) or alpha == 1.0:
        raise ValueError(f"alpha must lie in (0,1) or (1,inf), got {alpha}")
    return alpha


def _renyi_inf(x: OperatorStack, y: OperatorStack, overlap, alpha: float):
    """The Renyi support split of each pair (a bool array): +inf for
    orthogonal supports when alpha < 1, and for supp A not inside supp B when
    alpha > 1; ``ValidationError`` when an operator is zero."""
    if not (x.ranks.all() and y.ranks.all()):
        raise ValidationError("operators must be nonzero")
    if alpha < 1.0:
        return overlap <= mc.SUPPORT_TRACE_TOL  # orthogonal supports
    return ~_inside(x, overlap)


def renyi_traditional(a, b, alpha: float):
    """(alpha-1)^-1 log (tr(A^alpha B^(1-alpha)) / tr A); tr A = 1 on densities."""
    alpha = _check_alpha(alpha)

    def log_traces_ab(x, y, w, inf) -> list:
        # log tr(A^alpha B^(1-alpha)) of each pair (0 where ``inf`` marks it)
        # from the logs of its terms l_i^alpha W_ij m_j^(1-alpha) over
        # l_i, m_j > 0 (-inf where W_ij = 0), summed by log-sum-exp: the block
        # of the last p = rank A rows and q = rank B columns of W, one pass
        # per (p, q).  Each block is held transposed, (q, p), and so summed
        # column by column: the order of numpy's sum over the one-pair block
        # W[l > 0][:, m > 0], which its fancy indexing lays out by columns
        out = np.zeros(len(x))
        keys = x.ranks * (x.dim + 1) + y.ranks
        for key in sorted(set(keys[~inf].tolist())):
            p, q = divmod(key, x.dim + 1)
            idx = np.flatnonzero(~inf & (keys == key))
            terms = (np.log(np.ascontiguousarray(w[idx, -p:, -q:].swapaxes(1, 2)))
                     + alpha * np.log(x.eigenvalues[idx, -p:])[:, None, :]
                     + (1.0 - alpha) * np.log(y.eigenvalues[idx, -q:])[:, :, None])
            top = terms.max(axis=(1, 2))
            sums = np.exp(terms - top[:, None, None]).sum(axis=(1, 2))
            out[idx] = [t + math.log(s) for t, s in zip(top.tolist(), sums.tolist())]
        return out.tolist()

    def kernel(x, y):
        w, overlap = _overlaps(x, y)
        inf = _renyi_inf(x, y, overlap, alpha)
        return [INF if skip else (log_ab - log_tr) / (alpha - 1.0)
                for skip, log_ab, log_tr in zip(
                    inf.tolist(), log_traces_ab(x, y, w, inf), _log_traces(x.eigenvalues))]

    return _per_pair("renyi_traditional", a, b, kernel)


def _sandwiched_cores(x, y, inf, alpha: float):
    """``None`` for each pair that the bool array ``inf`` marks, else the
    tuple (top, total, scale) of its core tr (B^e A B^e)^alpha,
    e = (1-alpha)/(2 alpha), equal to top^alpha * total * 2^scale;
    top = total = 0 when the core vanishes.

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
    total = _row_sums(evals, lambda s, idx: (s / top[idx, None]) ** alpha)
    scale = alpha * ka + (1.0 - alpha) * kb
    return [None if skip else core for skip, core in zip(
        inf.tolist(), zip(top.tolist(), total.tolist(), scale.tolist()))]


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

    def core(top, total, scale):
        # 2^scale exactly, by ldexp; the logs where top^alpha is not normal
        whole = math.floor(scale)
        head = top**alpha * total * 2.0 ** (scale - whole)
        if _normal(head):
            return math.ldexp(head, whole)
        return math.exp(_log_core(alpha, top, total, scale))

    def kernel(x, y):
        inf = (~_inside(x, _overlaps(x, y)[1]) if alpha > 1.0
               else np.zeros(len(x), dtype=bool))
        return [INF if c is None else core(*c) for c in _sandwiched_cores(x, y, inf, alpha)]

    return _per_pair("sandwiched_core", a, b, kernel)


def sandwiched_renyi(a, b, alpha: float):
    """The quantum Renyi divergence with (tr A)^-1 normalization."""
    alpha = _check_alpha(alpha)

    def kernel(x, y):
        inf = _renyi_inf(x, y, _overlaps(x, y)[1], alpha)
        # a vanished core gives log 0 = -inf, which the gate rejects
        return [INF if c is None else (_log_core(alpha, *c) - log_tr) / (alpha - 1.0)
                for c, log_tr in zip(_sandwiched_cores(x, y, inf, alpha),
                                     _log_traces(x.eigenvalues))]

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
    def kernel(x, y):
        singular = y.ranks < y.dim
        inf = np.zeros(len(x), dtype=bool)
        if singular.any() and _singular_extension(f, g):
            inf = singular & ~_inside(x, _overlaps(x, y)[1])
        # on supp B: tr g(f(B0) A0 f(B0)) with A0 the compression of A; f is
        # read on the support only, so 1 stands in for a zero eigenvalue
        fvals = f(np.where(y.eigenvalues > 0.0, y.eigenvalues, 1.0))
        return [INF if skip else g(s[len(s) - r:]).sum() for skip, s, r in zip(
            inf.tolist(), _sandwich_eigs(x, y, inf, fvals), y.ranks.tolist())]

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
    values = [float(v) for v in _per_pair("d_fg_limit_probe", x, shifted,
                                          _dfg_kernel(f, g))]

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
