"""Dense complex Hermitian linear algebra.

Everything downstream reduces to spectral data of Hermitian matrices: the
eigensolver is a cyclic Jacobi iteration written here rather than delegated,
so the stopping tolerance and the eigenvector conventions are fixed by this
module and reproducible run to run.  Intended scale is small (n up to a few
dozen), where Jacobi is both accurate and fast enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Shared numerical tolerances.  All are relative unless noted.
HERM_TOL = 1e-12     # Hermitian check, Frobenius-relative
PROJ_TOL = 1e-10     # projection idempotency / orthogonality, absolute on P
SPEC_TOL = 1e-10     # eigenvalue clustering, relative to max(1, ||A||_2)
SUPP_TOL = 1e-12     # support membership, relative to the largest eigenvalue
PSD_TOL = 1e-10      # tolerated negative eigenvalue, relative to ||A||_2
JACOBI_OFF_TOL = 1e-13   # off-diagonal Frobenius target, relative to ||A||_F
JACOBI_MAX_SWEEPS = 64


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
    scale = frobenius(a)
    return frobenius(a - a.conj().T) <= tol * max(scale, 1e-300)


def require_hermitian(a: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    if not is_hermitian(a, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


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


def eig_hermitian(
    a,
    herm_tol: float = HERM_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
    off_tol: float = JACOBI_OFF_TOL,
):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi sweeps.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the columns of a unitary matrix, so that
    ``A @ V = V @ diag(w)``.  Sweeps stop once the off-diagonal Frobenius norm
    drops below ``off_tol * ||A||_F``.

    Raises
    ------
    ValueError
        If the input is not Hermitian within ``herm_tol``.
    ConvergenceError
        If the target is not reached within ``max_sweeps`` sweeps.
    """
    a = as_complex_matrix(a)
    require_hermitian(a, herm_tol)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real]), np.eye(1, dtype=np.complex128)

    w = hermitian_part(a)
    v = np.eye(n, dtype=np.complex128)
    target = off_tol * frobenius(a)

    def off_norm(m):
        mm = m.copy()
        np.fill_diagonal(mm, 0.0)
        return frobenius(mm)

    converged = False
    for _ in range(max_sweeps):
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
            f"Jacobi did not reach off-norm {target:.3e} in {max_sweeps} sweeps"
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
