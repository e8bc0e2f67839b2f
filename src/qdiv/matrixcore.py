"""Dense complex Hermitian linear algebra, and the package's tolerance policy.

Everything downstream reduces to spectral data of Hermitian matrices: the
eigensolver is a Jacobi iteration written here rather than delegated, so the
stopping tolerance and the eigenvector conventions are fixed by this module and
reproducible run to run.  It runs a stack (..., n, n) in rounds of disjoint
rotations (round-robin order), each member bit-identical to a call on it alone.
Intended scale is small (n up to a few dozen), where Jacobi is accurate and fast.

Tolerance policy.  Every threshold that decides a branch anywhere in the
package is one of the constants below, and each is a relative factor times a
scale.  The scale is a norm of the inputs, or a bound on the compared quantity
taken from the inputs' cached spectra; it is never floored (no ``max(1, .)``,
no ``max(., tiny)``) and never the compared quantity's own top eigenvalue,
which is pure noise when that quantity vanishes in exact arithmetic.  So a
verdict on c*A is the verdict on A for every c > 0.  Quantities that are
scale-free by construction (projector trace defects, ||U*U - I||, Kraus
completeness, the trace of a density, transition probabilities, entries of
unit vectors) are compared against the constant directly.  Tolerances a
caller passes as experiment parameters (``check_invariance(tol)``,
``verify_conjugation(tol)``, the suite bounds) are not part of this block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------- tolerances
# Operators and their spectra.
HERM_TOL = 1e-12     # ||A - A*||_F, relative to ||A||_F
PSD_TOL = 1e-10      # tolerated negative eigenvalue, relative to ||A||_2
SUPP_TOL = 1e-12     # eigenvalue snapped to 0, relative to ||A||_2
EIG_SNAP = 1e-13     # eigenvalue of a derived PSD product snapped to 0, relative
                     # to a norm bound taken from its factors' cached spectra
SPEC_TOL = 1e-10     # eigenvalue spread counted as one value, relative to ||A||_2
                     # (cluster_eigendata alone still floors this at 1)
JACOBI_OFF_TOL = 1e-13   # off-diagonal Frobenius target, relative to ||A||_F
JACOBI_MAX_SWEEPS = 64
_TINY = np.finfo(np.float64).tiny   # not a tolerance: moves only 0 and subnormals
_SAFE_EXP = 512      # not a tolerance: ||A||_F^2 outside 2^(+-512) runs rescaled
# Scale-free quantities, compared directly.
TRACE_TOL = 1e-10           # |tr rho - 1| of a density operator
SUPPORT_TRACE_TOL = 1e-8    # tr P_inner - <P_inner, P_outer>, and <P_a, P_b>
PROJ_TOL = 1e-10            # idempotency / orthogonality of computed projections
PROJ_IMAGE_TOL = 1e-8       # Hermitian (relative) and ||P^2 - P||_F of a
                            # projection read from a file or a map's image
TRANSITION_PROB_TOL = 1e-8  # |tr(P_i P_j) - tr(Q_i Q_j)| for rank-one probes
PHASE_ENTRY_TOL = 1e-9      # |v_i| of a unit vector large enough to fix its phase
UNITARY_TOL = 1e-10         # ||U*U - I||_F
KRAUS_TOL = 1e-10           # ||sum K*K - I||_F
# Derived values.
SUPEROP_IMAG_TOL = 1e-10    # |Im <s, f(L_A R_B^-1) s>|, relative to max|f| ||s||^2
DOMINANCE_TOL = 1e-10       # min eigenvalue of C^2 - B^2, relative to
                            # max(||B||, ||C||)^2
TRACE_FN_GAP_TOL = 1e-8     # tr h(BPB) - tr h(CPC), relative to the larger one
THM4_GAP_TOL = 1e-10        # mean(xy) - mean(x)mean(y), relative to the larger one
ORTHOGONALITY_TOL = 1e-10   # |tr g(f(B) A f(B))| on density operators (trace 1)


class ConvergenceError(RuntimeError):
    """The Jacobi iteration failed to converge within the sweep budget."""


def as_complex_matrix(a) -> np.ndarray:
    """Validate a square 2-d array and return a complex128 copy."""
    m = np.array(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    # halving first cannot overflow, and is exact above the subnormal range
    h = 0.5 * a
    h += h.conj().swapaxes(-1, -2)
    return h


def is_hermitian(a: np.ndarray, tol: float = HERM_TOL) -> bool:
    return frobenius(a - a.conj().T) <= tol * frobenius(a)


def is_projection(p: np.ndarray) -> bool:
    """Whether P is Hermitian and idempotent within ``PROJ_IMAGE_TOL``."""
    return (is_hermitian(p, PROJ_IMAGE_TOL)
            and frobenius(p @ p - p) <= PROJ_IMAGE_TOL)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(A B*)."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(b, a))


def rank_one(x, y) -> np.ndarray:
    """The operator x (x) y mapping z to <z, y> x; entries x_i * conj(y_j)."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch between vectors")
    return np.outer(x, y.conj())


@functools.lru_cache(maxsize=None)
def _jacobi_plan(n: int):
    """Index tables of ``eig_hermitian`` at order n; see the comments there."""
    m = n + n % 2
    h, size = m // 2, (m + n) * m
    floats = lambda i: np.stack([2 * i, 2 * i + 1], axis=1).ravel()  # re, im of entry i
    pairs = lambda c: np.stack([c[:h], c[::-1][:h]], axis=1).ravel()  # layout of a circle
    pivots = np.r_[1:m * m:2 * m + 2, m:m * m:2 * m + 2]             # W[p, q], W[q, p]
    circle, gathers = np.r_[0:m:2, m - 1:0:-2], []
    for _ in range(m - 1):
        g = np.argsort(pairs(circle))
        circle[1:] = np.roll(circle[1:], 1)
        g = g[pairs(circle)]
        src = np.append((np.r_[g, m:m + n][:, None] * m + g).ravel(), size)
        src[np.isin(src, pivots)] = size
        gathers.append(src)
    x = np.arange(m)
    p = x & ~1
    reads = np.r_[floats(p * m + p + 1), 2 * (p + 1) * (m + 1), 2 * p * (m + 1)]
    two = np.tile([-2.0, 2.0, 2.0, 2.0], h).reshape(1, 2 * m)
    at = np.r_[0:m * m:m + 1, (x ^ 1) * m + x]                      # J[x, x], J[x ^ 1, x]
    return m, size, floats(np.flatnonzero(1 - np.eye(m))), reads, two, at, tuple(gathers)


def eig_hermitian(a):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack
    (..., n, n), by round-parallel Jacobi sweeps: eigenvalues ascending, and
    eigenvectors the columns of a unitary V with ``A @ V = V @ diag(w)``.

    A sweep is n - 1 rounds (n for odd n) of disjoint pairs in round-robin
    (Brent-Luk) order, a round one block rotation J per matrix: W <- J* W J,
    V <- V J.  A matrix stops at the first sweep where its off-diagonal norm is
    at most ``JACOBI_OFF_TOL * ||A||_F``, and its arithmetic reads only itself,
    so it comes out bit-identical to a call on it alone.  A matrix with
    ||A||_F^2 outside 2^(+-512), where sums of squares would under- or
    overflow, runs scaled by an exact power of two and has its eigenvalues
    scaled back; every other matrix runs unscaled.  Raises ``ValueError``
    if a matrix has a non-finite entry or is not Hermitian within
    ``HERM_TOL``, ``ConvergenceError`` if one misses its target in
    ``JACOBI_MAX_SWEEPS`` sweeps.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack, got shape {a.shape}")
    lead, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(-1, n, n)
    sq = lambda x: np.add.reduce(x * x, axis=1)
    with np.errstate(over="ignore"):
        norm_sq = sq(a.reshape(len(a), n * n).view(np.float64))
    # A member whose squares would under- or overflow runs scaled by an exact
    # power of two, its largest entry in [1/2, 1); the others run unchanged.
    # The min/max test keeps the common all-in-range case to two reductions.
    # An inf or NaN entry makes its norm inf or NaN, so it lands here too.
    odd = None
    if not (norm_sq.min() >= 2.0 ** -_SAFE_EXP and norm_sq.max() <= 2.0 ** _SAFE_EXP):
        odd = ~((norm_sq >= 2.0 ** -_SAFE_EXP) & (norm_sq <= 2.0 ** _SAFE_EXP))
        a = a.copy()
        parts = a[odd].view(np.float64)
        top = np.abs(parts).max(axis=(1, 2))
        if not np.isfinite(top).all():
            raise ValueError("matrix has a non-finite entry")
        shift = np.frexp(top)[1]
        a[odd] = np.ldexp(parts, -shift[:, None, None]).view(np.complex128)
        norm_sq = sq(a.reshape(len(a), n * n).view(np.float64))
    ah = np.ascontiguousarray(a.conj().swapaxes(1, 2))
    herm_sq = sq((a - ah).reshape(len(a), n * n).view(np.float64))  # is_hermitian's test
    if np.count_nonzero(herm_sq <= HERM_TOL ** 2 * norm_sq) < len(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    # A member's row: W (m x m, m = n + n % 2), V (n x m), 0.  Round r rotates
    # pairs (0, 1), (2, 3), ... of the r-th round-robin layout, then gathers
    # the next layout (the last: the input order), with 0 for its pivots.
    m, size, off, reads, two, at, gathers = _jacobi_plan(n)
    work = np.zeros((len(a), size + 1), dtype=np.complex128)
    work[:, m * m:size:m + 1] = 1.0                       # V = I
    work[:, :m * m].reshape(-1, m, m)[:, :n, :n] = 0.5 * (a + ah)
    target = JACOBI_OFF_TOL ** 2 * norm_sq
    rows = None  # the rows of ``out`` still in ``work``; None: all of them
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        done = sq(work.view(np.float64).take(off, axis=1)) <= target
        left = len(done) - np.count_nonzero(done)
        if not left:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise ConvergenceError(f"Jacobi left {left} of {len(a)} matrices above "
                                   f"their off-norm target after {sweep} sweeps")
        if left < len(done):
            if rows is None:
                rows, out = np.arange(len(a)), work
            out[rows[done]] = work[done]
            rows, work, target = rows[~done], work[~done], target[~done]
        k = len(work)  # every round rewrites the same entries of these buffers
        rot, x = np.zeros((k, m, m), dtype=np.complex128), np.zeros(work.shape, work.dtype)
        blocks, wv = rot.reshape(k, m * m), x[:, :size].reshape(k, m + n, m)
        for gather in gathers:
            # W[p, q], W[q, q], W[p, p] per column: one W[p, q] for both keeps J unitary
            e = work.view(np.float64).take(reads, axis=1)
            a2 = (e[:, :2 * m] * two).view(np.complex128)  # -2 conj(W[p, q]), 2 W[p, q]
            d = e[:, 2 * m:3 * m] - e[:, 3 * m:]
            m2 = np.abs(a2)
            den = np.abs(d) + np.hypot(d, m2)
            np.maximum(den, _TINY, out=den)                # 0 block: J = I, 1/q finite
            q = np.hypot(den, m2)  # (c, |s|) = (den, m2) / q zeroes W[p, q], angle <= pi/4
            blocks[:, at] = np.concatenate([den / q, a2 / np.copysign(q, d)], axis=1)
            np.matmul(work[:, :size].reshape(k, m + n, m), rot, out=wv)
            wv[:, :m] = rot.conj().swapaxes(1, 2) @ wv[:, :m]
            work = x.take(gather, axis=1)
    if rows is not None:
        out[rows], work = work, out
    w = work[:, :m * m:m + 1].real[:, :n]
    pick = np.arange(len(a))[:, None], w.argsort(axis=1, kind="stable")
    vecs = work[:, m * m:size].reshape(-1, n, m).swapaxes(1, 2)[pick].swapaxes(1, 2)
    w = w[pick]
    if odd is not None:
        w[odd] = np.ldexp(w[odd], shift[:, None])
    return w.reshape(lead + (n,)), vecs.reshape(lead + (n, n))


def _snapped_psd_eig(m: np.ndarray, bound: float):
    """Eigensystem of a PSD product (or a stack of them) of norm at most
    ``bound``: eigenvalues clamped at 0, those at or below ``EIG_SNAP * bound``
    snapped to 0.  The bound, not the product's own top eigenvalue, sets the
    scale: that top is noise when the product is zero in exact arithmetic."""
    evals, vecs = eig_hermitian(hermitian_part(m))
    evals = np.clip(evals, 0.0, None)
    evals[evals <= EIG_SNAP * bound] = 0.0
    return evals, vecs


@dataclass(frozen=True)
class SpectralCluster:
    eigenvalue: float
    projection: np.ndarray
    multiplicity: int


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigenvalues with orthogonal spectral projections."""

    clusters: tuple

    @property
    def dim(self) -> int:
        return self.clusters[0].projection.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([c.eigenvalue for c in self.clusters])

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for c in self.clusters:
            out += c.eigenvalue * c.projection
        return out

    def validate(self, tol: float = PROJ_TOL) -> None:
        """Check idempotency, mutual orthogonality and resolution of identity."""
        n = self.dim
        total = np.zeros((n, n), dtype=np.complex128)
        for i, c in enumerate(self.clusters):
            p = c.projection
            if frobenius(p @ p - p) > tol:
                raise ValueError(f"cluster {i}: projection is not idempotent")
            if frobenius(p - p.conj().T) > tol:
                raise ValueError(f"cluster {i}: projection is not Hermitian")
            for j, d in enumerate(self.clusters[i + 1 :], start=i + 1):
                if frobenius(p @ d.projection) > tol:
                    raise ValueError(f"clusters {i},{j}: projections not orthogonal")
            total += p
        if frobenius(total - np.eye(n)) > tol:
            raise ValueError("projections do not resolve the identity")
        if sum(c.multiplicity for c in self.clusters) != n:
            raise ValueError("multiplicities do not sum to the dimension")


def cluster_eigendata(evals, vecs, tau_spec: float = SPEC_TOL) -> SpectralDecomposition:
    """Group an ascending eigensystem into clusters of nearby eigenvalues.

    Adjacent eigenvalues whose gap is at most ``tau_spec * max(1, ||A||_2)``
    land in one cluster; the cluster projection is the sum of outer products
    of its eigenvectors.
    """
    evals = np.asarray(evals, dtype=float)
    n = evals.shape[0]
    scale = max(1.0, float(np.max(np.abs(evals)))) if n else 1.0
    gap = tau_spec * scale
    clusters = []
    start = 0
    for i in range(1, n + 1):
        if i == n or evals[i] - evals[i - 1] > gap:
            block = vecs[:, start:i]
            proj = hermitian_part(block @ block.conj().T)
            clusters.append(
                SpectralCluster(
                    eigenvalue=float(np.mean(evals[start:i])),
                    projection=proj,
                    multiplicity=i - start,
                )
            )
            start = i
    return SpectralDecomposition(clusters=tuple(clusters))


def vec(t: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(t, dtype=np.complex128).reshape(-1, order="F")


def superop_lr(a, b) -> np.ndarray:
    """Matrix of T -> A T B under column-major vectorization: kron(B^T, A)."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch between left and right factors")
    return np.kron(b.T, a)
