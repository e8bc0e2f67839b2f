"""Invariance testing, symmetry reconstruction and scalar criteria.

The harness side: sample state pairs, compare divergences before and after
maps, reconstruct the implementing (anti)unitary from rank-one image data, and
run the scalar checks (trace similarity, order dominance, the probability
vector functional equation, the strict-convexity refutation, and the
mean-product criterion for scalar operators).  One draw of pairs serves every
map and divergence.  The comparison runs on stacks: each map is applied once
to the (2N, n, n) stack of the pairs, and each divergence from
``make_divergence`` is one stacked call on the pairs and one on each map's
images, with the values of the per-pair calls.  ``reports[0][1]`` below is
Umegaki under ``state_map``::

    pairs = invariance_pairs(3, n_samples=100, seed=1)
    divergences = [make_divergence("sandwiched", alpha=2),
                   make_divergence("umegaki")]
    reports = invariance_reports(pairs, [state_map], divergences, tol=1e-9)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import matrixcore as mc
from .divergence import d_fg, make_divergence
from .functions import DomainError, ScalarFunctionSpec
from .maps import StateMap, conjugate_by, require_unitary
from .operators import DensityOperator, as_density, as_positive
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


def invariance_pairs(n: int, *, n_samples: int, seed: int):
    """Seeded density pairs ``[(A, B)]`` on C^n, independent of any map; the
    ranks cycle full, one, intermediate so the +inf branches get exercised."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = SeededRng(seed)

    def ranks():
        for i in range(n_samples):
            ra = _rank_pattern(i, n, rng)
            rb = _rank_pattern(i // 3 + i, n, rng)
            yield from (ra, rb)

    ops = DensityOperator.from_stack(random_density_matrices(n, ranks(), rng))
    return list(zip(ops[::2], ops[1::2]))


def _compare(pairs, before, after, tol: float) -> InvarianceReport:
    """One report from the values of a divergence before and after a map."""
    max_dev = 0.0
    mismatches = 0
    witness = None
    for (a, b), x, y in zip(pairs, before, after):
        # +inf outcomes compare by category: a mismatch, or no deviation
        mismatch = (x == math.inf) != (y == math.inf)
        dev = 0.0 if math.inf in (x, y) else abs(x - y)
        mismatches += mismatch
        max_dev = max(max_dev, dev)
        if (mismatch or dev > tol) and witness is None:
            witness = (a.matrix, b.matrix, x, y)
    return InvarianceReport(
        samples=len(pairs),
        max_abs_deviation=max_dev,
        infinity_mismatches=mismatches,
        witness=witness,
        tol=tol,
    )


def _values(divergence, a, b) -> list:
    """A divergence on the pairs (a[k], b[k]): one stacked call when the
    callable is marked ``takes_stacks``, else one call per pair."""
    if getattr(divergence, "takes_stacks", False):
        return divergence(a, b)
    return [divergence(x, y) for x, y in zip(a, b)]


def invariance_reports(pairs, maps, divergences, *, tol: float):
    """Compare every divergence across every map on the same pairs.

    Returns ``reports[i][j]`` for ``maps[i]`` and ``divergences[j]`` (each a
    two-argument callable).  Each map is applied once, to the (2N, n, n)
    stack of the pairs, and its images are built in one stacked construction.
    A divergence marked ``takes_stacks`` (each callable from
    ``make_divergence``) runs once on the pairs and once on each map's
    images; any other callable runs pair by pair.  Either way the
    values, and so the reports, are those of the per-pair calls.
    """
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    before = [_values(div, a, b) for div in divergences]
    stack = np.array([x.matrix for pair in pairs for x in pair])
    reports = []
    for state_map in maps:
        ops = DensityOperator.from_stack(state_map.apply(stack))
        reports.append([
            _compare(pairs, values, _values(div, ops[::2], ops[1::2]), tol)
            for div, values in zip(divergences, before)
        ])
    return reports


def check_invariance(state_map: StateMap, divergence, *,
                     n_samples: int = 200, seed: int = 0, tol: float = 1e-9,
                     **params) -> InvarianceReport:
    """Compare a divergence across a map on sampled density pairs.

    ``divergence`` is either a two-argument callable or a tag like
    ``"sandwiched"`` with its parameters passed as keyword arguments
    (``alpha=2``, ``f="power:2"``, ...).  The pairs come from
    :func:`invariance_pairs`; the comparison is :func:`invariance_reports`.
    """
    if isinstance(divergence, str):
        divergence = make_divergence(divergence, **params)
    elif params:
        raise TypeError("divergence parameters only apply to tag dispatch")
    pairs = invariance_pairs(state_map.dim, n_samples=n_samples, seed=seed)
    return invariance_reports(pairs, [state_map], [divergence], tol=tol)[0][0]


def wigner_probe_projections(n: int) -> List[np.ndarray]:
    """The 2n rank-one probes that pin down an (anti)unitary.

    Order: the n basis projections, then the n-1 equal-weight superpositions
    of the first basis vector with each later one, then one complex-phase
    probe mixing the first two basis vectors with a factor i.
    """
    if n < 2:
        raise ValueError("reconstruction needs dimension at least 2")
    probes = []
    eye = np.eye(n, dtype=np.complex128)
    for i in range(n):
        probes.append(mc.rank_one(eye[:, i], eye[:, i]))
    for j in range(1, n):
        s = (eye[:, 0] + eye[:, j]) / math.sqrt(2.0)
        probes.append(mc.rank_one(s, s))
    x = (eye[:, 0] + 1j * eye[:, 1]) / math.sqrt(2.0)
    probes.append(mc.rank_one(x, x))
    return probes


def _top_eigenvector(p: np.ndarray) -> np.ndarray:
    """Unit vector, of arbitrary phase, spanning the range of P = x x*: the
    column x conj(x_k) at the largest diagonal entry |x_k|^2 >= 1/n."""
    k = int(np.argmax(p.diagonal().real))
    return p[:, k] / np.linalg.norm(p[:, k])


def _transition_probabilities(ops) -> np.ndarray:
    """The matrix of tr(P_i P_j) for Hermitian P_i."""
    flat = np.array([p.reshape(-1) for p in ops])
    return (flat.conj() @ flat.T).real


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
        if (not mc.is_projection(img)
                or abs(np.trace(img).real - 1.0) > mc.PROJ_IMAGE_TOL):
            raise WignerError(f"image {k}: image is not a rank-one projection")
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

    # for a rank-one image G = g g*, x* G y = <x, g><g, y> has the phase of
    # <x, g> / <y, g>, so the phases are read from G without a vector of it
    cols = [_top_eigenvector(images[i]) for i in range(n)]
    cols[0] = _fix_leading_phase(cols[0])
    for j in range(1, n):
        c = np.vdot(cols[j], images[n - 1 + j] @ cols[0])
        cols[j] = cols[j] * (c / abs(c))
    u = np.column_stack(cols)

    r = np.vdot(cols[1], images[2 * n - 1] @ cols[0])
    kind = "unitary" if r.imag > 0.0 else "antiunitary"

    residual = max(mc.frobenius(conjugate_by(u, kind, probe) - img)
                   for probe, img in zip(inputs, images))
    return u, kind, residual


@dataclass
class ConjugationReport:
    samples: int
    max_deviation: float
    tol: float

    @property
    def matched(self) -> bool:
        return self.max_deviation <= self.tol


def verify_conjugation(state_map: StateMap, u, kind: str, *,
                       n_samples: int = 50, seed: int = 0,
                       tol: float = 1e-8) -> ConjugationReport:
    """Max deviation between a map and conjugation by a candidate unitary.

    The map and the conjugation each run once, on the stack of sampled
    states; the norms stay per state, so the value is the per-state loop's."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    u = require_unitary(u, max(tol, mc.UNITARY_TOL))
    rng = SeededRng(seed)
    n = state_map.dim
    states = random_density_matrices(
        n, (_rank_pattern(i, n, rng) for i in range(n_samples)), rng)
    diffs = state_map.apply(states) - conjugate_by(u, kind, states)
    max_dev = max(0.0, *(mc.frobenius(d) for d in diffs))
    return ConjugationReport(samples=n_samples, max_deviation=max_dev, tol=tol)


def orthogonality_indicator(a, b, f: ScalarFunctionSpec,
                            g: ScalarFunctionSpec) -> bool:
    """Whether the generalized divergence vanishes, which flags AB = 0."""
    if f.limit_at_zero != 0.0:
        raise DomainError("f must tend to 0 at 0+ for the orthogonality test")
    if not g.injective:
        raise DomainError("g must be injective for the orthogonality test")
    val = d_fg(as_density(a), as_density(b), f, g)
    return abs(val) <= mc.ORTHOGONALITY_TOL


def trace_similarity_check(a, b, h) -> float:
    """|tr h(BAB) - tr h(sqrt(A) B^2 sqrt(A))|; zero up to rounding."""
    a = as_positive(a)
    b = as_positive(b)
    bab = b.matrix @ a.matrix @ b.matrix
    sa = a.sqrt()
    ab2a = sa @ b.matrix @ b.matrix @ sa
    # both products have norm at most ||A|| ||B||^2
    bound = float(a.eigenvalues[-1]) * float(b.eigenvalues[-1]) ** 2
    t1, t2 = _traces_of_fn(np.array([bab, ab2a]), h, bound)
    return abs(t1 - t2)


def _traces_of_fn(stack: np.ndarray, h, bound: float) -> list:
    """tr h(M) for each PSD product M of a stack of norm at most ``bound``, noise as 0."""
    evals, _ = mc._snapped_psd_eig(stack, bound)
    return [float(sum(h(v) for v in row)) for row in evals]


@dataclass
class OrderDominanceResult:
    verdict: str                      # consistent | counterexample | inconclusive
    dominated_spectrally: bool
    counterexample: Optional[np.ndarray]
    max_violation: float


def order_dominance_test(b, c, h: ScalarFunctionSpec, *, n_samples: int = 50,
                         seed: int = 0) -> OrderDominanceResult:
    """Probe the equivalence of B^2 <= C^2 with tr h(BAB) <= tr h(CAC).

    The dominance side is decided spectrally from C^2 - B^2.  The converse is
    a randomized search over near-rank-one positive definite probes
    (x (x) x + 1e-6 I); when nothing is found for a spectrally non-dominated
    pair, the verdict is ``inconclusive`` rather than a confirmation.
    """
    if not h.strictly_increasing or h(0.0) != 0.0:
        raise DomainError("h must be strictly increasing with h(0) = 0")
    b = as_positive(b)
    c = as_positive(c)
    diff = c.matrix @ c.matrix - b.matrix @ b.matrix
    evals, vecs = mc.eig_hermitian(mc.hermitian_part(diff))
    # -B^2 <= C^2 - B^2 <= C^2 bounds the difference by max(||B||, ||C||)^2
    scale = max(float(b.eigenvalues[-1]), float(c.eigenvalues[-1])) ** 2
    dominated = bool(evals[0] >= -mc.DOMINANCE_TOL * scale)

    rng = SeededRng(seed)
    n = b.dim
    probes = []
    if not dominated:
        probes.append(mc.rank_one(vecs[:, 0], vecs[:, 0]) + 1e-6 * np.eye(n))
    for v in random_unit_vector(n, rng, count=n_samples):
        probes.append(mc.rank_one(v, v) + 1e-6 * np.eye(n))

    max_violation = 0.0
    counterexample = None
    # X P X has norm at most max(||B||, ||C||)^2 ||P||, with ||P|| = 1 + 1e-6
    bound = scale * (1.0 + 1e-6)
    probes = np.array(probes).reshape(-1, n, n)
    lhs_all = _traces_of_fn(b.matrix @ probes @ b.matrix, h, bound)
    rhs_all = _traces_of_fn(c.matrix @ probes @ c.matrix, h, bound)
    for probe, lhs, rhs in zip(probes, lhs_all, rhs_all):
        gap = lhs - rhs
        if gap > max_violation:
            max_violation = gap
        significant = gap > mc.TRACE_FN_GAP_TOL * max(abs(lhs), abs(rhs))
        if significant and counterexample is None:
            counterexample = probe
    if counterexample is not None:
        return OrderDominanceResult("counterexample", dominated, counterexample,
                                    max_violation)
    if dominated:
        return OrderDominanceResult("consistent", True, None, max_violation)
    return OrderDominanceResult("inconclusive", False, None, max_violation)


def functional_eq_residual(f, n: int, *, n_samples: int = 200,
                           seed: int = 0) -> float:
    """Max |sum_k b_k f(a_k/b_k)| over random probability vector pairs.

    Vanishes identically exactly for f(t) = c(t-1); anything else betrays
    itself on some sample.
    """
    if n < 2:
        raise ValueError("need at least two entries per probability vector")
    draws = random_simplex(n, SeededRng(seed), count=2 * n_samples)
    worst = 0.0
    for a, b in zip(draws[0::2], draws[1::2]):
        res = abs(float(sum(bk * f(ak / bk) for ak, bk in zip(a, b))))
        worst = max(worst, res)
    return worst


@dataclass
class RefutationWitness:
    t: float
    s: float
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def prop1_evaluate(alpha: float, t: float, s: float, *, via_exp: bool = False):
    """The two sides of the scalar identity a sandwiched power would force.

    lhs = (t^(1-a) + s^(1-a))/2, rhs = ((t^((1-a)/a) + s^((1-a)/a))/2)^a.
    Strict convexity of the 1/a power makes them differ off the diagonal.
    ``via_exp`` evaluates through exp/log as an independent arithmetic route.
    """
    if t <= 0.0 or s <= 0.0:
        raise ValueError("arguments must be strictly positive")

    def powm(base, expo):
        if via_exp:
            return math.exp(expo * math.log(base))
        return base**expo

    lhs = 0.5 * (powm(t, 1.0 - alpha) + powm(s, 1.0 - alpha))
    inner = 0.5 * (powm(t, (1.0 - alpha) / alpha) + powm(s, (1.0 - alpha) / alpha))
    rhs = powm(inner, alpha)
    return lhs, rhs


def prop1_refutation(alpha: float) -> RefutationWitness:
    """Grid-search a scalar witness showing the sandwiched power trace is not
    an f-divergence.

    Scans a 64-point log-spaced grid over (1e-3, 0.5]^2 and returns the pair
    with the largest |lhs - rhs|; a witness with gap above 1e-3 always exists
    for alpha != 1.
    """
    alpha = float(alpha)
    if alpha <= 0.0 or alpha == 1.0:
        raise ValueError("alpha must be positive and different from 1")
    grid = np.geomspace(1e-3, 0.5, 64)
    e1 = 1.0 - alpha
    e2 = (1.0 - alpha) / alpha
    p1 = grid**e1
    p2 = grid**e2
    lhs = 0.5 * (p1[:, None] + p1[None, :])
    rhs = (0.5 * (p2[:, None] + p2[None, :])) ** alpha
    gaps = np.abs(lhs - rhs)
    i, j = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    best = RefutationWitness(
        t=float(grid[i]), s=float(grid[j]),
        lhs=float(lhs[i, j]), rhs=float(rhs[i, j]),
    )
    if best.gap <= 1e-3:
        raise ArithmeticError("no witness above 1e-3 on the grid; alpha too close to 1?")
    return best


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
    """
    alpha = float(alpha)
    if alpha <= 0.0 or alpha == 1.0:
        raise ValueError("alpha must be positive and different from 1")
    t_op = as_positive(t_op)
    if not t_op.definite:
        raise ValueError("operator must be positive definite")
    tv = t_op.eigenvalues
    x = tv ** (-2.0 * alpha)
    y = tv ** (2.0 * alpha / (1.0 - alpha))
    mean_xy = float(np.mean(x * y))
    mean_x_mean_y = float(np.mean(x) * np.mean(y))
    gap = mean_xy - mean_x_mean_y
    is_scalar = abs(gap) <= mc.THM4_GAP_TOL * max(abs(mean_xy), abs(mean_x_mean_y))
    spread = float(tv[-1] - tv[0])
    spectral_scalar = spread <= mc.SPEC_TOL * float(tv[-1])
    return ScalarCriterionResult(
        is_scalar=is_scalar,
        gap=gap,
        mean_xy=mean_xy,
        mean_x_mean_y=mean_x_mean_y,
        spectral_scalar=spectral_scalar,
    )
