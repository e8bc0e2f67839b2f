"""Invariance testing, symmetry reconstruction and scalar criteria.

The harness side: sample state pairs, compare a divergence before and after a
map, reconstruct the implementing (anti)unitary from rank-one image data, and
run the scalar checks (trace similarity, order dominance, the probability
vector functional equation, the strict-convexity refutation, and the
mean-product criterion for scalar operators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import matrixcore as mc
from .divergence import d_fg, make_divergence
from .extended import ExtendedReal
from .functions import DomainError, ScalarFunctionSpec
from .maps import StateMap, conjugate_by, require_unitary
from .operators import DensityOperator, as_density, as_positive
from .sampling import SeededRng, random_density, random_density_matrix, \
    random_simplex, random_unit_vector


class WignerError(ValueError):
    """The supplied rank-one images admit no (anti)unitary representation."""


@dataclass
class InvarianceReport:
    """Outcome of sampling a divergence before and after a map."""

    samples: int
    max_abs_deviation: float
    infinity_mismatches: int
    witness: Optional[Tuple[np.ndarray, np.ndarray, ExtendedReal, ExtendedReal]]
    tol: float

    @property
    def passed(self) -> bool:
        return self.witness is None


def _rank_pattern(i: int, n: int, rng: SeededRng) -> int:
    """Cycle full rank, rank one, and an intermediate rank (when n > 2)."""
    cls = i % 3
    if cls == 0:
        return n
    if cls == 1:
        return 1
    if n <= 2:
        return 1
    return rng.integer(2, n - 1)


def check_invariance(state_map: StateMap, divergence, *,
                     n_samples: int = 200, seed: int = 0, tol: float = 1e-9,
                     **params) -> InvarianceReport:
    """Compare a divergence across a map on sampled density pairs.

    ``divergence`` is either a two-argument callable or a tag like
    ``"sandwiched"`` with its parameters passed as keyword arguments
    (``alpha=2``, ``f="power:2"``, ...).  Ranks are mixed deliberately (full,
    rank one, intermediate) so the infinite branches get exercised; +inf
    outcomes are compared categorically.  Tabulated maps are probed on ordered
    pairs from their own table instead of random samples.
    """
    if isinstance(divergence, str):
        divergence = make_divergence(divergence, **params)
    elif params:
        raise TypeError("divergence parameters only apply to tag dispatch")
    rng = SeededRng(seed)
    n = state_map.dim
    max_dev = 0.0
    mismatches = 0
    witness = None
    count = 0

    if state_map.kind == "tabulated":
        inputs = [x for x, _ in state_map.table]
        pairs = [(x, y) for x in inputs for y in inputs]
        pool = [pairs[i % len(pairs)] for i in range(min(n_samples, len(pairs)))]
        samples = [(as_density(x), as_density(y)) for x, y in pool]
    else:
        samples = []
        for i in range(n_samples):
            ra = _rank_pattern(i, n, rng)
            rb = _rank_pattern(i // 3 + i, n, rng)
            samples.append((random_density(n, ra, rng), random_density(n, rb, rng)))

    for a, b in samples:
        before = divergence(a, b)
        a2 = DensityOperator(state_map.apply(a.matrix))
        b2 = DensityOperator(state_map.apply(b.matrix))
        after = divergence(a2, b2)
        count += 1
        if before.is_inf != after.is_inf:
            mismatches += 1
            if witness is None:
                witness = (a.matrix, b.matrix, before, after)
            continue
        if before.is_inf:
            continue
        dev = abs(before.value - after.value)
        if dev > max_dev:
            max_dev = dev
        if dev > tol and witness is None:
            witness = (a.matrix, b.matrix, before, after)
    return InvarianceReport(
        samples=count,
        max_abs_deviation=max_dev,
        infinity_mismatches=mismatches,
        witness=witness,
        tol=tol,
    )


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
    evals, vecs = mc.eig_hermitian(p)
    return vecs[:, -1]


def _fix_leading_phase(v: np.ndarray) -> np.ndarray:
    idx = next(i for i in range(v.shape[0]) if abs(v[i]) > mc.PHASE_ENTRY_TOL)
    return v * (abs(v[idx]) / v[idx])


def _require_rank_one_projection(p: np.ndarray, label: str) -> None:
    if not mc.is_projection(p) or abs(np.trace(p).real - 1.0) > mc.PROJ_IMAGE_TOL:
        raise WignerError(f"{label}: image is not a rank-one projection")


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
        _require_rank_one_projection(img, f"image {k}")
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            want = mc.hs_inner(inputs[i], inputs[j]).real
            got = mc.hs_inner(images[i], images[j]).real
            if abs(want - got) > mc.TRANSITION_PROB_TOL:
                raise WignerError(
                    f"transition probability between probes {i} and {j} is not "
                    f"preserved: {got:.6e} vs {want:.6e}"
                )

    cols = [_top_eigenvector(images[i]) for i in range(n)]
    cols[0] = _fix_leading_phase(cols[0])
    for j in range(1, n):
        gj = _top_eigenvector(images[n - 1 + j])
        num = np.vdot(cols[j], gj)
        den = np.vdot(cols[0], gj)
        c = num / den
        cols[j] = cols[j] * (c / abs(c))
    u = np.column_stack(cols)

    h = _top_eigenvector(images[2 * n - 1])
    r = np.vdot(cols[1], h) / np.vdot(cols[0], h)
    kind = "unitary" if r.imag > 0.0 else "antiunitary"

    residual = 0.0
    for probe, img in zip(inputs, images):
        predicted = conjugate_by(u, kind, probe)
        residual = max(residual, mc.frobenius(predicted - img))
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
    """Max deviation between a map and conjugation by a candidate unitary."""
    u = require_unitary(u, max(tol, mc.UNITARY_TOL))
    rng = SeededRng(seed)
    n = state_map.dim
    max_dev = 0.0
    for i in range(n_samples):
        a = random_density_matrix(n, _rank_pattern(i, n, rng), rng)
        dev = mc.frobenius(state_map.apply(a) - conjugate_by(u, kind, a))
        max_dev = max(max_dev, dev)
    return ConjugationReport(samples=n_samples, max_deviation=max_dev, tol=tol)


def orthogonality_indicator(a, b, f: ScalarFunctionSpec,
                            g: ScalarFunctionSpec) -> bool:
    """Whether the generalized divergence vanishes, which flags AB = 0."""
    if f.limit_at_zero is None or f.limit_at_zero != ExtendedReal(0.0):
        raise DomainError("f must tend to 0 at 0+ for the orthogonality test")
    if not g.injective:
        raise DomainError("g must be injective for the orthogonality test")
    val = d_fg(as_density(a), as_density(b), f, g)
    return val.is_finite and abs(val.value) <= mc.ORTHOGONALITY_TOL


def trace_similarity_check(a, b, h) -> float:
    """|tr h(BAB) - tr h(sqrt(A) B^2 sqrt(A))|; zero up to rounding."""
    a = as_positive(a)
    b = as_positive(b)
    bab = b.matrix @ a.matrix @ b.matrix
    sa = a.sqrt()
    ab2a = sa @ b.matrix @ b.matrix @ sa
    t1 = _trace_of_fn(bab, h)
    t2 = _trace_of_fn(ab2a, h)
    return abs(t1 - t2)


def _trace_of_fn(m: np.ndarray, h) -> float:
    evals, _ = mc.eig_hermitian(mc.hermitian_part(m))
    evals = np.clip(evals, 0.0, None)
    return float(sum(h(v) for v in evals))


@dataclass
class OrderDominanceResult:
    verdict: str                      # consistent | counterexample | inconclusive
    dominated_spectrally: bool
    counterexample: Optional[np.ndarray]
    max_violation: float


def order_dominance_test(b, c, h: ScalarFunctionSpec, *, n_samples: int = 50,
                         seed: int = 0, delta: float = 1e-6) -> OrderDominanceResult:
    """Probe the equivalence of B^2 <= C^2 with tr h(BAB) <= tr h(CAC).

    The dominance side is decided spectrally from C^2 - B^2.  The converse is
    a randomized search over near-rank-one positive definite probes
    (x (x) x + delta I); when nothing is found for a spectrally non-dominated
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
        probes.append(mc.rank_one(vecs[:, 0], vecs[:, 0]) + delta * np.eye(n))
    for _ in range(n_samples):
        v = random_unit_vector(n, rng)
        probes.append(mc.rank_one(v, v) + delta * np.eye(n))

    max_violation = 0.0
    counterexample = None
    for probe in probes:
        lhs = _trace_of_fn(b.matrix @ probe @ b.matrix, h)
        rhs = _trace_of_fn(c.matrix @ probe @ c.matrix, h)
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
    rng = SeededRng(seed)
    worst = 0.0
    for _ in range(n_samples):
        a = random_simplex(n, rng)
        b = random_simplex(n, rng)
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


def prop1_refutation(alpha: float, *, grid_size: int = 64) -> RefutationWitness:
    """Grid-search a scalar witness showing the sandwiched power trace is not
    an f-divergence.

    Scans a log-spaced grid over (1e-3, 0.5]^2 and returns the pair with the
    largest |lhs - rhs|; a witness with gap above 1e-3 always exists for
    alpha != 1.
    """
    alpha = float(alpha)
    if alpha <= 0.0 or alpha == 1.0:
        raise ValueError("alpha must be positive and different from 1")
    grid = np.geomspace(1e-3, 0.5, grid_size)
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
