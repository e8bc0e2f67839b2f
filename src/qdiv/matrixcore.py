"""Dense complex Hermitian linear algebra, and the package's tolerance policy.

Everything downstream reduces to spectral data of Hermitian matrices: the
eigensolver is a cyclic Jacobi iteration written here rather than delegated,
so the stopping tolerance and the eigenvector conventions are fixed by this
module and reproducible run to run.  Intended scale is small (n up to a few
dozen), where Jacobi is both accurate and fast enough.

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

import math
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
LOOKUP_TOL = 1e-10          # ||X - A||_F matching a table entry, relative to ||X||_F
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
    return 0.5 * (a + a.conj().T)


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


def eig_hermitian(a):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi sweeps.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the columns of a unitary matrix, so that
    ``A @ V = V @ diag(w)``.  Sweeps stop once the off-diagonal Frobenius norm
    drops below ``JACOBI_OFF_TOL * ||A||_F``.

    Raises
    ------
    ValueError
        If the input is not Hermitian within ``HERM_TOL``.
    ConvergenceError
        If the target is not reached within ``JACOBI_MAX_SWEEPS`` sweeps.
    """
    a = as_complex_matrix(a)
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), np.eye(1, dtype=np.complex128)

    w = hermitian_part(a)
    v = np.eye(n, dtype=np.complex128)
    target = JACOBI_OFF_TOL * frobenius(a)

    def off_norm(m):
        mm = m.copy()
        np.fill_diagonal(mm, 0.0)
        return frobenius(mm)

    converged = False
    for _ in range(JACOBI_MAX_SWEEPS):
        if off_norm(w) <= target:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                ph = apq / mag
                tau = (w[q, q].real - w[p, p].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                s_ph = s * ph
                s_phc = s * ph.conjugate()
                cp = w[:, p].copy()
                cq = w[:, q].copy()
                w[:, p] = c * cp - s_phc * cq
                w[:, q] = s_ph * cp + c * cq
                rp = w[p, :].copy()
                rq = w[q, :].copy()
                w[p, :] = c * rp - s_ph * rq
                w[q, :] = s_phc * rp + c * rq
                w[p, q] = 0.0
                w[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s_phc * vq
                v[:, q] = s_ph * vp + c * vq
    else:
        converged = off_norm(w) <= target
    if not converged:
        raise ConvergenceError(
            f"Jacobi did not reach off-norm {target:.3e} in {JACOBI_MAX_SWEEPS} sweeps"
        )

    evals = np.real(np.diag(w))
    order = np.argsort(evals, kind="stable")
    return evals[order], v[:, order]


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
