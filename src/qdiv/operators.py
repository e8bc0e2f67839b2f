"""Validated positive-semidefinite and density operator wrappers.

Construction eigendecomposes once and caches the spectral data; eigenvalues
inside the PSD noise band are clamped to zero and eigenvalues below the
support threshold are snapped to exact zero.  Support decisions made from the
snapped spectrum are therefore deterministic, and every infinite branch
downstream is decided by ranks rather than by numeric blow-up.  ``from_stack``
builds many operators with one eigensolver call, by the constructor's checks.
"""

from __future__ import annotations

import numpy as np

from . import matrixcore as mc


class ValidationError(ValueError):
    """An operator failed the validation of its declared class."""


class PositiveOperator:
    """A positive semidefinite operator with cached spectral data."""

    _unit_trace = False

    def __init__(self, matrix):
        self._adopt(*self._validated(mc.as_complex_matrix(matrix)))

    @classmethod
    def from_stack(cls, matrices) -> list:
        """One operator per matrix of an (N, n, n) stack, each validated as
        the constructor would, with one eigensolver call for the stack."""
        stack = np.array(matrices, dtype=np.complex128)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
            raise ValueError(f"expected a stack of square matrices, got {stack.shape}")
        return [cls.__new__(cls)._adopt(*parts) for parts in zip(*cls._validated(stack))]

    @classmethod
    def _validated(cls, m):
        """Hermitian part, snapped eigenvalues and eigenvectors of a matrix or of
        each matrix of a stack; ``ValidationError`` if one fails ``cls``'s checks."""
        try:
            evals, vecs = mc.eig_hermitian(m)
        except ValueError as exc:
            raise ValidationError(f"operator rejected: {exc}") from None
        low = evals[..., 0][evals[..., 0] < -mc.PSD_TOL * np.abs(evals).max(-1)]
        if low.size:
            raise ValidationError(f"operator is not PSD: min eigenvalue {low[0]:.3e}")
        m, evals = mc.hermitian_part(m), np.clip(evals, 0.0, None)
        evals[evals <= mc.SUPP_TOL * evals[..., -1:]] = 0.0
        if cls._unit_trace:
            traces = np.ravel(np.trace(m, axis1=-2, axis2=-1).real)
            off = traces[np.abs(traces - 1.0) > mc.TRACE_TOL]
            if off.size:
                raise ValidationError(f"trace {float(off[0])!r} is not 1 within tolerance")
        return m, evals, vecs

    def _adopt(self, matrix, evals, vecs):
        for arr in (matrix, evals, vecs):
            arr.flags.writeable = False
        self._matrix, self._evals, self._vecs = matrix, evals, vecs
        self._clusters = self._support = None
        return self

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

    _unit_trace = True


def as_positive(x) -> PositiveOperator:
    return x if isinstance(x, PositiveOperator) else PositiveOperator(x)


def as_density(x) -> DensityOperator:
    if isinstance(x, DensityOperator):
        return x
    if isinstance(x, PositiveOperator):
        return DensityOperator(x.matrix)
    return DensityOperator(x)
