"""Validated positive-semidefinite and density operator wrappers.

Construction eigendecomposes once and caches the spectral data; eigenvalues
inside the PSD noise band are clamped to zero and eigenvalues below the
support threshold are snapped to exact zero.  Support decisions made from the
snapped spectrum are therefore deterministic, and every infinite branch
downstream is decided by ranks rather than by numeric blow-up.
"""

from __future__ import annotations

import numpy as np

from . import matrixcore as mc


class ValidationError(ValueError):
    """An operator failed the validation of its declared class."""


class PositiveOperator:
    """A positive semidefinite operator with cached spectral data."""

    def __init__(self, matrix):
        m = mc.as_complex_matrix(matrix)
        if not mc.is_hermitian(m):
            raise ValidationError("operator is not Hermitian within tolerance")
        m = mc.hermitian_part(m)
        evals, vecs = mc.eig_hermitian(m)
        norm2 = float(np.max(np.abs(evals)))
        if evals[0] < -mc.PSD_TOL * norm2:
            raise ValidationError(
                f"operator is not PSD: min eigenvalue {evals[0]:.3e}"
            )
        evals = np.clip(evals, 0.0, None)
        top = float(evals[-1])
        evals[evals <= mc.SUPP_TOL * top] = 0.0
        m.flags.writeable = False
        evals.flags.writeable = False
        vecs.flags.writeable = False
        self._matrix = m
        self._evals = evals
        self._vecs = vecs
        self._clusters = None
        self._support = None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, PSD-clamped and support-snapped."""
        return self._evals

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._vecs

    @property
    def trace(self) -> float:
        return float(np.trace(self._matrix).real)

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self._evals > 0.0))

    @property
    def definite(self) -> bool:
        return self.rank == self.dim

    @property
    def clusters(self) -> mc.SpectralDecomposition:
        """Eigenvalue clusters; no divergence uses them, the benchmark tracer
        (``perfbench/tracing.py``) wraps this property by name."""
        if self._clusters is None:
            self._clusters = mc.cluster_eigendata(self._evals, self._vecs)
        return self._clusters

    @property
    def support_basis(self) -> np.ndarray:
        """Columns spanning the support (eigenvectors of nonzero eigenvalues)."""
        return self._vecs[:, self._evals > 0.0]

    @property
    def support_projection(self) -> np.ndarray:
        if self._support is None:
            b = self.support_basis
            p = mc.hermitian_part(b @ b.conj().T)
            p.flags.writeable = False
            self._support = p
        return self._support

    def pseudo_power(self, p: float) -> np.ndarray:
        """Power taken on the support: zero eigenvalues map to zero."""
        vals = np.where(self._evals > 0.0, self._evals, 1.0) ** p
        vals[self._evals == 0.0] = 0.0
        return mc.hermitian_part((self._vecs * vals) @ self._vecs.conj().T)

    def sqrt(self) -> np.ndarray:
        return self.pseudo_power(0.5)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, rank={self.rank})"


class DensityOperator(PositiveOperator):
    """A PSD operator of unit trace."""

    def __init__(self, matrix):
        super().__init__(matrix)
        if abs(self.trace - 1.0) > mc.TRACE_TOL:
            raise ValidationError(f"trace {self.trace!r} is not 1 within tolerance")


def as_positive(x) -> PositiveOperator:
    return x if isinstance(x, PositiveOperator) else PositiveOperator(x)


def as_density(x) -> DensityOperator:
    if isinstance(x, DensityOperator):
        return x
    if isinstance(x, PositiveOperator):
        return DensityOperator(x.matrix)
    return DensityOperator(x)
