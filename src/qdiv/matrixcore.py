"""Dense complex Hermitian linear algebra, and the package's tolerance policy.

Everything downstream reduces to spectral data of Hermitian matrices: the
eigensolver is a Jacobi iteration written here rather than delegated, so the
stopping tolerance and the eigenvector conventions are fixed by this module and
reproducible run to run.  It runs a stack (..., n, n) in rounds of disjoint
rotations (round-robin order), each member bit-identical to a call on it alone.
Intended scale is small (n up to a few dozen): Jacobi is accurate there, but one
matrix at n = 4 or 24 takes 25-35x as long as ``numpy.linalg.eigh`` (ROADMAP item 2).
A function of a Hermitian matrix is formed by one formula, ``from_spectrum``:
V diag(f(w)) V*, made exactly Hermitian, for one matrix or a stack.

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
JACOBI_OFF_TOL = 1e-13   # off-diagonal Frobenius target, relative to ||A||_F
JACOBI_MAX_SWEEPS = 64
_TINY = np.finfo(np.float64).tiny   # not a tolerance: moves only 0 and subnormals
# Scale-free quantities, compared directly.
TRACE_TOL = 1e-10           # |tr rho - 1| of a density operator
SUPPORT_TRACE_TOL = 1e-8    # tr P_inner - <P_inner, P_outer>, and <P_a, P_b>
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
THM4_GAP_TOL = 1e-12        # mean(xy) - mean(x)mean(y), relative to the larger
                            # one: a few n ulps of roundoff at most
ORTHOGONALITY_TOL = 1e-10   # |tr g(f(B) A f(B))| on density operators (trace 1)


class ConvergenceError(RuntimeError):
    """The Jacobi iteration failed to converge within the sweep budget."""


def as_complex_matrix(a, stack: bool = False) -> np.ndarray:
    """Validate a square 2-d array, or with ``stack`` also a stack of them
    (..., n, n), and return a complex128 copy."""
    m = np.array(a, dtype=np.complex128)
    if ((m.ndim < 2 if stack else m.ndim != 2)
            or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1):
        want = "a square matrix or a stack of them" if stack else "a square matrix"
        raise ValueError(f"expected {want}, got shape {m.shape}")
    return m


def frobenius(a: np.ndarray):
    """||A||_F of a matrix (a float), or of each matrix of a stack (..., n, n)
    (an array): sqrt(re . re + im . im) over the entries taken row-major, the
    formula of ``np.linalg.norm`` on a complex matrix.  The dots are one
    batched product over the strided real and imaginary views, which numpy
    reduces as it reduces the strided dots of ``np.linalg.norm``, so each
    member keeps the bits of ``np.linalg.norm`` on it alone (checked member
    by member in ``tests/test_matrixcore.py``)."""
    a = np.asarray(a, dtype=np.complex128)
    flat = a.reshape(a.shape[:-2] + (1, a.shape[-2] * a.shape[-1]))
    re, im = flat.real, flat.imag
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    norms = np.sqrt(sq[..., 0, 0])
    return float(norms) if a.ndim == 2 else norms


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 of a matrix or of each matrix of a stack (..., n, n): added
    first, then halved, so it is exact wherever the sum is, subnormals
    included.  Only entries whose sum overflows are halved first, which
    cannot overflow; in the normal range the two orders give the same bits."""
    ah = a.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        h = a + ah
        h *= 0.5
        over = np.isinf(h)  # an inf entry of A gives the same inf either way
        if over.any():
            h[over] = (0.5 * a + 0.5 * ah)[over]
    return h


def is_projection(p: np.ndarray):
    """Whether P is Hermitian and idempotent within ``PROJ_IMAGE_TOL``: a bool
    for one matrix, an array of one bool per member for a stack (..., n, n)."""
    def fro(a):
        return np.linalg.norm(a, axis=(-2, -1))
    ok = ((fro(p - p.conj().swapaxes(-1, -2)) <= PROJ_IMAGE_TOL * fro(p))
          & (fro(p @ p - p) <= PROJ_IMAGE_TOL))
    return bool(ok) if ok.ndim == 0 else ok


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(A B*)."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(b, a))


def rank_one(x, y) -> np.ndarray:
    """The operator x (x) y mapping z to <z, y> x; entries x_i * conj(y_j).
    Stacks (..., n) of vectors broadcast to a stack (..., n, n) of operators."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.shape[-1:] != y.shape[-1:]:
        raise ValueError("dimension mismatch between vectors")
    return x[..., :, None] * y[..., None, :].conj()


def from_spectrum(vals, vecs) -> np.ndarray:
    """V diag(vals) V*, made exactly Hermitian: the one functional-calculus
    formula.  V (n x k) may have fewer columns than rows; ones on them give the
    projection onto their span.  A stack (..., n, k) with ``vals`` (..., k)
    runs member by member, each bit-identical to the call on it alone."""
    vals = np.asarray(vals)
    return hermitian_part((vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2))


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
    so it comes out bit-identical to a call on it alone.

    Every matrix runs scaled by 2^-k, k the ``frexp`` exponent of its largest
    real or imaginary part, so no sum of squares overflows, and one ``ldexp``
    scales its eigenvalues back.  A power of two scales exactly while entries
    stay normal (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 2): 2^j A, formed exactly, gives the V of A bit for bit and its w times
    2^j, rounded only where subnormal.  For k >= 1 the entries below
    2^(k - 1022), subnormal ones among them, round to multiples of
    2^(k - 1074), far below the solver's roundoff: diag(3, 5e-324) has
    eigenvalues (0, 3).  Raises ``ValueError`` for a shape not (..., n, n), a
    non-finite entry, a matrix not Hermitian within ``HERM_TOL`` or an
    eigenvalue that overflows a float when scaled back, ``ConvergenceError``
    if one misses its target in ``JACOBI_MAX_SWEEPS`` sweeps.
    """
    a = as_complex_matrix(a, stack=True)
    lead, n = a.shape[:-2], a.shape[-1]
    parts = np.ascontiguousarray(a).reshape(-1, n, n).view(np.float64)
    top = np.abs(parts).max(axis=(1, 2))
    if not np.isfinite(top).all():
        raise ValueError("matrix has a non-finite entry")
    shift = np.frexp(top)[1]
    a = np.ldexp(parts, -shift[:, None, None]).view(np.complex128)
    sq = lambda x: np.add.reduce(x * x, axis=1)
    norm_sq = sq(a.reshape(len(a), n * n).view(np.float64))
    ah = np.ascontiguousarray(a.conj().swapaxes(1, 2))
    herm_sq = sq((a - ah).reshape(len(a), n * n).view(np.float64))  # ||A - A*||_F^2
    if np.count_nonzero(herm_sq <= HERM_TOL ** 2 * norm_sq) < len(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    # A member's row: W (m x m, m = n + n % 2), V (n x m), 0.  Round r rotates
    # pairs (0, 1), (2, 3), ... of the r-th round-robin layout, then gathers
    # the next layout (the last: the input order), with 0 for its pivots.
    m, size, off, reads, two, at, gathers = _jacobi_plan(n)
    work = np.zeros((len(a), size + 1), dtype=np.complex128)
    work[:, m * m:size:m + 1] = 1.0                       # V = I
    work[:, :m * m].reshape(-1, m, m)[:, :n, :n] = hermitian_part(a)
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
    with np.errstate(over="ignore"):
        w = np.ldexp(w[pick], shift[:, None])
    if not np.isfinite(w).all():
        raise ValueError("an eigenvalue overflows a float")
    return w.reshape(lead + (n,)), vecs.reshape(lead + (n, n))


def _snapped_psd_eig(m: np.ndarray, bound):
    """Eigensystem of a PSD product (or a stack of them) of norm at most
    ``bound`` (one for all, or one per member): eigenvalues clamped at 0,
    those at or below ``EIG_SNAP * bound`` snapped to 0.  The bound, not the
    product's own top eigenvalue, sets the scale: that top is noise when the
    product is zero in exact arithmetic.  ``OverflowError`` for inf or NaN."""
    if not (np.isfinite(m).all() and np.isfinite(bound).all()):
        raise OverflowError
    evals, vecs = eig_hermitian(hermitian_part(m))
    evals = np.clip(evals, 0.0, None)
    evals[evals <= EIG_SNAP * np.asarray(bound)[..., None]] = 0.0
    return evals, vecs


@dataclass(frozen=True)
class SpectralCluster:
    eigenvalue: float
    projection: np.ndarray
    multiplicity: int


def cluster_eigendata(evals, vecs) -> tuple:
    """Group an ascending eigensystem into a tuple of ``SpectralCluster``s.

    Adjacent eigenvalues whose gap is at most ``SPEC_TOL * ||A||_2`` land in
    one cluster, so c*A has the clusters of A for every c > 0; the cluster
    projection is ``from_spectrum`` of ones on its eigenvectors.
    """
    evals = np.asarray(evals, dtype=float)
    cuts = np.flatnonzero(np.diff(evals) > SPEC_TOL * np.abs(evals).max()) + 1
    bounds = [0, *cuts.tolist(), len(evals)]
    return tuple(
        SpectralCluster(eigenvalue=float(np.mean(evals[i:j])),
                        projection=from_spectrum(np.ones(j - i), vecs[:, i:j]),
                        multiplicity=j - i)
        for i, j in zip(bounds, bounds[1:]))


def superop_lr(a, b) -> np.ndarray:
    """Matrix of T -> A T B under column-major vectorization: kron(B^T, A)
    by ``np.kron``'s products, or one per pair of two stacks (..., n, n)."""
    a, b = (as_complex_matrix(m, stack=True) for m in (a, b))
    if a.shape != b.shape:
        raise ValueError("dimension mismatch between left and right factors")
    kron = b.swapaxes(-1, -2)[..., :, None, :, None] * a[..., None, :, None, :]
    return kron.reshape(a.shape[:-2] + (a.shape[-1] ** 2,) * 2)
