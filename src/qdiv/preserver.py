"""Invariance testing, symmetry reconstruction and scalar criteria.

The harness side: sample state pairs, compare divergences before and after
maps, reconstruct the implementing (anti)unitary from rank-one image data, and
run the scalar checks (trace similarity, order dominance, the probability
vector functional equation, the strict-convexity refutation, and the
mean-product criterion for scalar operators).  A reconstructed conjugation is
checked on Haar-random pure states: map and conjugation are real-linear, so
the deviation between them is convex in the state and largest at a pure state
(see :func:`verify_conjugation`).  One draw of pairs serves every map and
divergence, and stays one validated (2N, n, n) ``OperatorStack`` from the
sampler to the report: each map is applied once to it and its images
validated as one stack, and each divergence, which takes two stacks and
returns one value per pair, is one call on the pairs followed by every map's
images.  The values are split by N, and the deviations, mismatches and first
witness are read from arrays; a NaN or -inf value raises.  The scalar
criteria convert their operands with one ``as_stack`` call, so operands of
two orders raise ``ValueError``.
``reports[0][1]`` below is Umegaki under ``state_map``::

    pairs = invariance_pairs(3, n_samples=100, seed=1)
    divergences = [make_divergence("sandwiched", alpha=2),
                   make_divergence("umegaki")]
    reports = invariance_reports(pairs, [state_map], divergences, tol=1e-9)
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import matrixcore as mc
from .divergence import NonFiniteResultError, _check_alpha, d_fg, make_divergence
from .functions import DomainError, ScalarFunctionSpec, _normal
from .maps import StateMap, conjugate_by, require_conjugation_kind, require_unitary
from .operators import DensityOperator, OperatorStack, as_stack
from .sampling import SeededRng, random_density_matrices, random_simplex, \
    random_unit_vector


class WignerError(ValueError):
    """The supplied rank-one images admit no (anti)unitary representation."""


@dataclass
class InvarianceReport:
    """Outcome of sampling a divergence before and after a map."""

    samples: int
    max_abs_deviation: float
    infinity_mismatches: int
    witness: Optional[Tuple[np.ndarray, np.ndarray, float, float]]
    tol: float

    @property
    def passed(self) -> bool:
        return self.witness is None


def _rank_pattern(i: int, n: int, rng: SeededRng) -> int:
    """Cycle full rank, rank one, and an intermediate rank (when n > 2)."""
    cls = i % 3
    if cls == 0:
        return n
    if cls == 1 or n <= 2:
        return 1
    return rng.integer(2, n - 1)


def _require_samples(n_samples: int) -> None:
    """An integer of at least 1: an empty search would read as a pass, and a
    bool or a float is not a count."""
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral):
        raise ValueError(f"the sample count must be an integer, got {n_samples!r}")
    if n_samples < 1:
        raise ValueError("need at least one sample")


def _pair_stack(n: int, n_samples: int, seed: int) -> OperatorStack:
    """The pairs of :func:`invariance_pairs` as one (2N, n, n) stack, A_k at
    2k and B_k at 2k + 1."""
    _require_samples(n_samples)
    rng = SeededRng(seed)

    def ranks():
        for i in range(n_samples):
            ra = _rank_pattern(i, n, rng)
            rb = _rank_pattern(i // 3 + i, n, rng)
            yield from (ra, rb)

    return DensityOperator.from_stack(random_density_matrices(n, ranks(), rng))


def invariance_pairs(n: int, *, n_samples: int, seed: int):
    """Seeded density pairs ``[(A, B)]`` on C^n, independent of any map; the
    ranks cycle full, one, intermediate so the +inf branches get exercised."""
    ops = _pair_stack(n, n_samples, seed)
    return list(zip(ops[::2], ops[1::2]))


def _compare(ops, before, after, x, y, tol: float) -> InvarianceReport:
    """One report from a divergence's values before and after a map on the
    pairs (ops[2k], ops[2k + 1]): the lists ``before`` and ``after``, which
    give the witness, and the same values as the float arrays ``x``, ``y``."""
    inf_x, inf_y = x == math.inf, y == math.inf
    # +inf outcomes compare by category: a mismatch, or no deviation
    mismatch, either = inf_x != inf_y, inf_x | inf_y
    dev = np.abs(np.where(either, 0.0, x) - np.where(either, 0.0, y))
    failed = np.flatnonzero(mismatch | (dev > tol))
    witness = None
    if failed.size:
        k = int(failed[0])
        witness = (ops.matrices[2 * k], ops.matrices[2 * k + 1], before[k], after[k])
    return InvarianceReport(
        samples=len(before),
        max_abs_deviation=float(dev.max()),
        infinity_mismatches=int(np.count_nonzero(mismatch)),
        witness=witness,
        tol=tol,
    )


def _require_tol(tol: float) -> None:
    """NaN or +inf would pass every deviation, and a negative tol none."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number of at least 0, got {tol}")


def _evaluate(divergence, a, b, n_pairs: int):
    """``divergence(a, b)`` as a list and as a float array; ``TypeError``
    unless one value per pair, ``ValueError`` naming the first pair (of
    ``n_pairs``, then of each map's images) whose value is NaN or -inf,
    which no deviation would flag."""
    values = divergence(a, b)
    if np.ndim(values) != 1 or len(values) != len(a):
        raise TypeError(f"a divergence must return one value per pair, got {values!r}")
    x = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(np.isnan(x) | (x == -math.inf))
    if bad.size:
        k = int(bad[0])
        where = "" if k < n_pairs else f" under map {k // n_pairs - 1}"
        name = getattr(divergence, "__name__", repr(divergence))
        raise ValueError(f"divergence {name} gave {values[k]!r} on pair "
                         f"{k % n_pairs}{where}")
    return values, x


def _joined(stacks, start: int) -> OperatorStack:
    """Members start, start + 2, ... of each stack in turn, as one stack."""
    return OperatorStack(stacks[0].kind, *(
        np.concatenate([getattr(s, name)[start::2] for s in stacks])
        for name in ("matrices", "eigenvalues", "eigenvectors")))


def _reports(ops: OperatorStack, maps, divergences, tol: float):
    """``invariance_reports`` on the stack ``ops`` of the pairs
    (ops[2k], ops[2k + 1])."""
    _require_tol(tol)
    n = len(ops) // 2
    stacks = [ops, *(DensityOperator.from_stack(m.apply(ops.matrices)) for m in maps)]
    a, b = _joined(stacks, 0), _joined(stacks, 1)
    reports = [[] for _ in maps]
    for div in divergences:
        values, x = _evaluate(div, a, b, n)
        for i, row in enumerate(reports, start=1):
            at = slice(i * n, (i + 1) * n)
            row.append(_compare(ops, values[:n], values[at], x[:n], x[at], tol))
    return reports


def invariance_reports(pairs, maps, divergences, *, tol: float):
    """Compare every divergence across every map on the same pairs.

    Returns ``reports[i][j]`` for ``maps[i]`` and ``divergences[j]``, each
    divergence a callable that, like those of ``make_divergence``, takes two
    equal-length stacks of operators and returns one value per pair.  The
    pairs are stacked once; each map is applied once to that (2N, n, n)
    stack and its images validated as one ``OperatorStack``.  Each divergence
    runs once, on the N pairs followed by the N image pairs of each map, and
    its values are split by N.  ``pairs`` must not be empty, and ``tol`` must
    be finite and >= 0; a value that is NaN or -inf raises ``ValueError``.
    """
    _require_samples(len(pairs))
    return _reports(as_stack([x for pair in pairs for x in pair]), maps, divergences, tol)


def check_invariance(state_map: StateMap, divergence, *,
                     n_samples: int = 200, seed: int = 0, tol: float = 1e-9,
                     **params) -> InvarianceReport:
    """Compare a divergence across a map on sampled density pairs.

    ``divergence`` is either a callable on two stacks of operators or a tag like
    ``"sandwiched"`` with its parameters passed as keyword arguments
    (``alpha=2``, ``f="power:2"``, ...).  The pairs are those of
    :func:`invariance_pairs`, kept as the drawn stack; the comparison is
    :func:`invariance_reports`.
    """
    if isinstance(divergence, str):
        divergence = make_divergence(divergence, **params)
    elif params:
        raise TypeError("divergence parameters only apply to tag dispatch")
    ops = _pair_stack(state_map.dim, n_samples, seed)
    return _reports(ops, [state_map], [divergence], tol)[0][0]


def wigner_probe_projections(n: int) -> np.ndarray:
    """The (2n, n, n) stack of the 2n rank-one probes ``rank_one(x, x)`` that
    pin down an (anti)unitary.

    Order: the n basis projections, then the n-1 equal-weight superpositions
    of the first basis vector with each later one, then one complex-phase
    probe mixing the first two basis vectors with a factor i.
    """
    if n < 2:
        raise ValueError("reconstruction needs dimension at least 2")
    eye = np.eye(n, dtype=np.complex128)
    x = np.vstack([eye, (eye[0] + eye[1:]) / math.sqrt(2.0),
                   (eye[0] + 1j * eye[1]) / math.sqrt(2.0)])
    return mc.rank_one(x, x)


def _transition_probabilities(ops: np.ndarray) -> np.ndarray:
    """The matrix of tr(P_i P_j) for a stack of Hermitian P_i."""
    flat = ops.reshape(len(ops), -1)
    return (flat.conj() @ flat.T).real


def _conjugation_deviation(u, kind: str, inputs, images) -> float:
    """max_k ||images_k - conj_U(inputs_k)||_F over two stacks, 0.0 for none."""
    diffs = images - conjugate_by(u, kind, inputs)
    return float(mc.frobenius(diffs).max(initial=0.0))


def _fix_leading_phase(v: np.ndarray) -> np.ndarray:
    idx = next(i for i in range(v.shape[0]) if abs(v[i]) > mc.PHASE_ENTRY_TOL)
    return v * (abs(v[idx]) / v[idx])


def wigner_reconstruct(images):
    """Recover (U, kind, residual) from images of the standard probe set.

    ``images`` must list the images of :func:`wigner_probe_projections` in the
    same order.  Pairwise transition probabilities of the probes must be
    preserved, else no representation exists and :class:`WignerError` is
    raised naming the offending pair.  The recovered unitary has its first
    column's first sizable entry made real positive; the complex-phase probe
    decides unitary vs antiunitary (conjugation flips the sign of the
    imaginary cross term).
    """
    images = [mc.as_complex_matrix(m) for m in images]
    if len(images) < 4 or len(images) % 2 != 0:
        raise ValueError("expected the 2n probe images, in probe order")
    n = len(images) // 2
    inputs = wigner_probe_projections(n)
    for k, img in enumerate(images):
        if img.shape[0] != n:
            raise ValueError(f"image {k} has dimension {img.shape[0]}, expected {n}")
    images = np.array(images)
    traces = np.trace(images, axis1=-2, axis2=-1).real
    bad = np.flatnonzero(~mc.is_projection(images)
                         | ~(np.abs(traces - 1.0) <= mc.PROJ_IMAGE_TOL))
    if bad.size:
        raise WignerError(f"image {bad[0]}: image is not a rank-one projection")
    # the first offending pair is reported in row-major i < j order
    want = _transition_probabilities(inputs)
    got = _transition_probabilities(images)
    bad = np.argwhere(np.triu(np.abs(want - got) > mc.TRANSITION_PROB_TOL, 1))
    if bad.size:
        i, j = bad[0]
        raise WignerError(
            f"transition probability between probes {i} and {j} is not "
            f"preserved: {got[i, j]:.6e} vs {want[i, j]:.6e}"
        )

    # a basis image P = x x* has its range spanned by its column x conj(x_k) at
    # the top diagonal entry |x_k|^2 >= 1/n; 1 x n rows keep np.linalg.norm's bits
    k = np.argmax(np.diagonal(images[:n], axis1=1, axis2=2).real, axis=1)
    cols = images[np.arange(n), :, k]
    cols = cols / mc.frobenius(cols[:, None, :])[:, None]
    # for a rank-one image G = g g*, x* G y = <x, g><g, y> has the phase of
    # <x, g> / <y, g>, so the phases are read from G without a vector of it
    cols[0] = _fix_leading_phase(cols[0])
    for j in range(1, n):
        c = np.vdot(cols[j], images[n - 1 + j] @ cols[0])
        cols[j] = cols[j] * (c / abs(c))
    u = np.column_stack(cols)

    r = np.vdot(cols[1], images[2 * n - 1] @ cols[0])
    kind = "unitary" if r.imag > 0.0 else "antiunitary"

    return u, kind, _conjugation_deviation(u, kind, inputs, images)


@dataclass
class ConjugationReport:
    samples: int
    max_deviation: float
    tol: float


def verify_conjugation(state_map: StateMap, u, kind: str, *,
                       n_samples: int = 50, seed: int = 0,
                       tol: float = 1e-8) -> ConjugationReport:
    """Max deviation ||phi(rho) - conj_U(rho)||_F between a map and
    conjugation by a candidate unitary, over ``n_samples`` seeded Haar-random
    pure states rho = x x* (one ``random_unit_vector`` stack).

    Pure states lose nothing: every map kind and both conjugations are
    real-linear, so rho -> ||phi(rho) - conj_U(rho)||_F is convex, and its
    maximum over the density operators is reached at an extreme point, a
    pure state.  ``tol`` must be finite and >= 0; the kind and the order of
    ``u`` are checked before anything is drawn.  The map and the conjugation
    each run once, on the stack of states; the norms stay per state, so the
    value is the per-state loop's."""
    _require_samples(n_samples)
    _require_tol(tol)
    require_conjugation_kind(kind)
    u = require_unitary(u, max(tol, mc.UNITARY_TOL))
    n = state_map.dim
    if u.shape[0] != n:
        raise ValueError(f"the candidate unitary has order {u.shape[0]}, "
                         f"but the map acts on dimension {n}")
    x = random_unit_vector(n, SeededRng(seed), count=n_samples)
    states = mc.rank_one(x, x)
    max_dev = _conjugation_deviation(u, kind, states, state_map.apply(states))
    return ConjugationReport(samples=n_samples, max_deviation=max_dev, tol=tol)


def orthogonality_indicator(a, b, f: ScalarFunctionSpec,
                            g: ScalarFunctionSpec) -> bool:
    """Whether the generalized divergence vanishes, which flags AB = 0."""
    if f.limit_at_zero != 0.0:
        raise DomainError("f must tend to 0 at 0+ for the orthogonality test")
    if not g.injective:
        raise DomainError("g must be injective for the orthogonality test")
    val = d_fg(*as_stack([a, b], DensityOperator), f, g)
    return abs(val) <= mc.ORTHOGONALITY_TOL


def trace_similarity_check(a, b, h) -> float:
    """|tr h(BAB) - tr h(sqrt(A) B^2 sqrt(A))|; zero up to rounding."""
    a, b = as_stack([a, b])
    bab = b.matrix @ a.matrix @ b.matrix
    sa = a.sqrt()
    ab2a = sa @ b.matrix @ b.matrix @ sa
    # both products have norm at most ||A|| ||B||^2
    bound = float(a.eigenvalues[-1]) * float(b.eigenvalues[-1]) ** 2
    # snapped spectra: noise below the bound counts as 0
    evals, _ = mc._snapped_psd_eig(np.array([bab, ab2a]), bound)
    t1, t2 = h(evals).sum(-1).tolist()
    return abs(t1 - t2)


@dataclass
class OrderDominanceResult:
    verdict: str                      # consistent | counterexample | inconclusive
    dominated_spectrally: bool
    counterexample: Optional[np.ndarray]
    max_violation: float


def order_dominance_test(b, c, h: ScalarFunctionSpec, *, n_samples: int = 50,
                         seed: int = 0) -> OrderDominanceResult:
    """Probe the equivalence of B^2 <= C^2 with tr h(BAB) <= tr h(CAC).

    The dominance side is decided spectrally from C^2 - B^2, on B and C
    scaled by the power of two that brings the larger top eigenvalue into
    [1/2, 1): exact, so no square under- or overflows and the verdict on
    (cB, cC) is the verdict on (B, C) for every c > 0.  The converse is a
    randomized search over near-rank-one positive definite probes
    (x (x) x + 1e-6 I) on the unscaled operands, as h is nonlinear;
    ``NonFiniteResultError`` if a probe product overflows, or if their norm
    bound is not a normal float, where the probe traces sink below roundoff
    and a search would be blind.  B = C = 0 is consistent with no search.
    When nothing is found for a spectrally non-dominated pair, the verdict
    is ``inconclusive`` rather than a confirmation.
    """
    if not h.strictly_increasing or h(0.0) != 0.0:
        raise DomainError("h must be strictly increasing with h(0) = 0")
    _require_samples(n_samples)
    b, c = as_stack([b, c])
    top = max(float(b.eigenvalues[-1]), float(c.eigenvalues[-1]))
    if top == 0.0:  # B = C = 0: every trace is h(0) = 0
        return OrderDominanceResult("consistent", True, None, 0.0)
    k = math.frexp(top)[1]
    bs, cs = (np.ldexp(op.matrix.view(np.float64), -k).view(np.complex128)
              for op in (b, c))
    evals, vecs = mc.eig_hermitian(mc.hermitian_part(cs @ cs - bs @ bs))
    # -B^2 <= C^2 - B^2 <= C^2 bounds the difference by max(||B||, ||C||)^2
    s = math.ldexp(top, -k)
    dominated = bool(evals[0] >= -mc.DOMINANCE_TOL * (s * s))

    rng = SeededRng(seed)
    n = b.dim
    x = random_unit_vector(n, rng, count=n_samples)
    if not dominated:
        x = np.vstack([vecs[:, 0], x])
    probes = mc.rank_one(x, x) + 1e-6 * np.eye(n)

    with np.errstate(over="ignore", invalid="ignore"):
        # X P X has norm at most max(||B||, ||C||)^2 ||P||, with ||P|| = 1 + 1e-6
        bound = np.float64(top) ** 2 * (1.0 + 1e-6)
        products = [op.matrix @ probes @ op.matrix for op in (b, c)]
    if not (_normal(bound) and all(np.isfinite(p).all() for p in products)):
        raise NonFiniteResultError("order dominance: the probe products leave "
                                   "the float range")
    lhs, rhs = (h(mc._snapped_psd_eig(p, bound)[0]).sum(-1) for p in products)
    gaps = lhs - rhs
    max_violation = float(gaps[gaps > 0.0].max(initial=0.0))  # NaN gaps skipped
    significant = np.flatnonzero(
        gaps > mc.TRACE_FN_GAP_TOL * np.maximum(abs(lhs), abs(rhs)))
    if significant.size:
        return OrderDominanceResult("counterexample", dominated, probes[significant[0]],
                                    max_violation)
    if dominated:
        return OrderDominanceResult("consistent", True, None, max_violation)
    return OrderDominanceResult("inconclusive", False, None, max_violation)


def functional_eq_residual(f, n: int, *, n_samples: int = 200,
                           seed: int = 0) -> float:
    """Max |sum_k b_k f(a_k/b_k)| over random probability vector pairs.

    Vanishes identically exactly for f(t) = c(t-1); anything else betrays
    itself on some sample.  ``f`` maps an array of ratios to an array, as a
    ``ScalarFunctionSpec`` does.
    """
    if n < 2:
        raise ValueError("need at least two entries per probability vector")
    _require_samples(n_samples)
    draws = random_simplex(n, SeededRng(seed), count=2 * n_samples)
    a, b = draws[0::2], draws[1::2]
    return float(np.max(np.abs((b * f(a / b)).sum(axis=1))))


@dataclass
class RefutationWitness:
    t: float
    s: float
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def prop1_evaluate(alpha: float, t, s, *, via_exp: bool = False):
    """The two sides of the scalar identity a sandwiched power would force.

    lhs = (t^(1-a) + s^(1-a))/2, rhs = ((t^((1-a)/a) + s^((1-a)/a))/2)^a.
    Strict convexity of the 1/a power makes them differ off the diagonal.
    ``t`` and ``s`` are scalars or arrays that broadcast together; the sides
    come back in their broadcast shape, as inf where they overflow a float.
    ``via_exp`` evaluates through exp/log as an independent arithmetic route.
    """
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    if np.any(t <= 0.0) or np.any(s <= 0.0):
        raise ValueError("arguments must be strictly positive")

    def powm(base, expo):
        if via_exp:
            return np.exp(expo * np.log(base))
        return base**expo

    with np.errstate(over="ignore"):
        lhs = 0.5 * (powm(t, 1.0 - alpha) + powm(s, 1.0 - alpha))
        inner = 0.5 * (powm(t, (1.0 - alpha) / alpha) + powm(s, (1.0 - alpha) / alpha))
        rhs = powm(inner, alpha)
    return lhs, rhs


def prop1_refutation(alpha: float) -> RefutationWitness:
    """Grid-search a scalar witness showing the sandwiched power trace is not
    an f-divergence.

    Scans a 64-point log-spaced grid over (1e-3, 0.5]^2 and returns the pair
    with the largest finite |lhs - rhs|.  Raises ``NonFiniteResultError`` when
    no finite gap exceeds 1e-3: alpha is then too close to 1 for float
    arithmetic to tell the sides apart, or so far from it that the powers
    leave the float range.
    """
    alpha = _check_alpha(alpha)
    grid = np.geomspace(1e-3, 0.5, 64)
    lhs, rhs = prop1_evaluate(alpha, grid[:, None], grid[None, :])
    with np.errstate(invalid="ignore"):  # inf - inf
        gaps = np.abs(lhs - rhs)
    gaps[~np.isfinite(gaps)] = -1.0
    i, j = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    if gaps[i, j] <= 1e-3:
        raise NonFiniteResultError(f"prop1: no finite gap above 1e-3 at alpha={alpha}")
    return RefutationWitness(
        t=float(grid[i]), s=float(grid[j]),
        lhs=float(lhs[i, j]), rhs=float(rhs[i, j]),
    )


@dataclass
class ScalarCriterionResult:
    is_scalar: bool
    gap: float
    mean_xy: float
    mean_x_mean_y: float
    spectral_scalar: bool

    @property
    def verdict(self) -> str:
        return "scalar_multiple_of_identity" if self.is_scalar else "violation"


def thm4_scalar_test(t_op, alpha: float) -> ScalarCriterionResult:
    """Mean-product criterion certifying a definite operator is scalar.

    Over the eigenvalues t_k, compares mean(x*y) with mean(x)*mean(y) for
    x_k = t_k^(-2a) and y_k = t_k^(2a/(1-a)); the two agree exactly when all
    eigenvalues coincide.  Cross-checked against the direct spectral test.
    Raises ``NonFiniteResultError`` when the powers leave the float range and
    the gap is not finite, and when they cannot resolve a spread spectrum:
    alpha so close to 0 that x and y round to near constants, or t so large
    or small that the powers underflow.
    """
    alpha = _check_alpha(alpha)
    t_op = as_stack([t_op])[0]
    if not t_op.definite:
        raise ValueError("operator must be positive definite")
    tv = t_op.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        x = tv ** (-2.0 * alpha)
        y = tv ** (2.0 * alpha / (1.0 - alpha))
        mean_xy = float(np.mean(x * y))
        mean_x_mean_y = float(np.mean(x) * np.mean(y))
    gap = mean_xy - mean_x_mean_y
    if not math.isfinite(gap):
        raise NonFiniteResultError(f"thm4: the gap at alpha={alpha} is not finite")
    floor = mc.THM4_GAP_TOL * max(abs(mean_xy), abs(mean_x_mean_y))
    spectral_scalar = float(tv[-1] - tv[0]) <= mc.SPEC_TOL * float(tv[-1])
    # x and y are monotone in t, so a spread spectrum has a gap of at least
    # (max x - min x)(max y - min y)/n^2 in exact arithmetic; this bound must
    # clear the floor with room for the gap's own roundoff, far below it
    least = float(np.ptp(x)) * float(np.ptp(y)) / len(tv) ** 2
    if not (spectral_scalar or least > 2.0 * floor):
        raise NonFiniteResultError(
            f"thm4: the powers at alpha={alpha} do not resolve the spectrum: "
            f"a gap of at least {least:.3e} is within roundoff")
    return ScalarCriterionResult(
        is_scalar=abs(gap) <= floor,
        gap=gap,
        mean_xy=mean_xy,
        mean_x_mean_y=mean_x_mean_y,
        spectral_scalar=spectral_scalar,
    )
