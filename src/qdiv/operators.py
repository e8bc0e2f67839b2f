"""Validated positive-semidefinite and density operators, alone or stacked.

Construction eigendecomposes once and caches the spectral data; eigenvalues
inside the PSD noise band are clamped to zero and eigenvalues below the
support threshold are snapped to exact zero.  Support decisions made from the
snapped spectrum are therefore deterministic, and every infinite branch
downstream is decided by ranks rather than by numeric blow-up.  An
``OperatorStack`` holds N of them as arrays: the divergence kernels' operand.
"""

from __future__ import annotations

import numbers

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
    def from_stack(cls, matrices) -> OperatorStack:
        """An (N, n, n) array as an ``OperatorStack``, validated as the
        constructor would, with one eigensolver call for the stack."""
        stack = mc.as_complex_matrix(matrices, stack=True)
        if stack.ndim != 3:
            raise ValueError(f"expected a stack of square matrices, got {stack.shape}")
        return OperatorStack(cls, *cls._validated(stack))

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
        cls._check_trace(m)
        return m, evals, vecs

    @classmethod
    def _check_trace(cls, m):
        """``ValidationError`` unless each matrix of ``m`` has ``cls``'s trace."""
        if cls._unit_trace:
            with np.errstate(over="ignore"):  # an inf trace fails the check below
                traces = np.ravel(np.trace(m, axis1=-2, axis2=-1).real)
            off = traces[np.abs(traces - 1.0) > mc.TRACE_TOL]
            if off.size:
                raise ValidationError(f"trace {float(off[0])!r} is not 1 within tolerance")

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
    def clusters(self) -> tuple:
        """The tuple of ``SpectralCluster``s of ``cluster_eigendata``; no
        divergence uses them, the benchmark tracer (``perfbench/tracing.py``)
        wraps this property by name."""
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
            p = mc.from_spectrum(np.ones(b.shape[1]), b)
            p.flags.writeable = False
            self._support = p
        return self._support

    def pseudo_power(self, p: float) -> np.ndarray:
        """Power taken on the support: zero eigenvalues map to zero."""
        vals = np.where(self._evals > 0.0, self._evals, 1.0) ** p
        vals[self._evals == 0.0] = 0.0
        return mc.from_spectrum(vals, self._vecs)

    def sqrt(self) -> np.ndarray:
        return self.pseudo_power(0.5)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, rank={self.rank})"


class DensityOperator(PositiveOperator):
    """A PSD operator of unit trace."""

    _unit_trace = True


class OperatorStack:
    """N validated operators of one order n as read-only arrays (``matrices``,
    snapped ascending ``eigenvalues``, ``eigenvectors``, ``ranks``), with no
    per-member objects: ``stack[k]`` is a ``kind`` view, a slice another stack."""

    def __init__(self, kind, matrices, eigenvalues, eigenvectors):
        self.kind = kind
        self.matrices, self.eigenvalues, self.eigenvectors = (
            np.ascontiguousarray(arr) for arr in (matrices, eigenvalues, eigenvectors))
        for arr in (self.matrices, self.eigenvalues, self.eigenvectors):
            arr.flags.writeable = False
        self.ranks = np.count_nonzero(self.eigenvalues > 0.0, axis=-1)

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, key):
        rows = (self.matrices[key], self.eigenvalues[key], self.eigenvectors[key])
        if isinstance(key, numbers.Integral):
            return self.kind.__new__(self.kind)._adopt(*rows)
        return OperatorStack(self.kind, *rows)

    def __iter__(self):
        return (self[k] for k in range(len(self)))


def as_stack(items, cls=PositiveOperator) -> OperatorStack:
    """``items`` of one order (else ``ValueError``) as a stack of ``cls``: an
    (N, n, n) array by ``cls.from_stack``, a stack of ``cls`` as it is;
    another stack, or a list stacked from its operators' cached arrays (a
    matrix in it converted by the constructor), with ``cls``'s trace check."""
    if isinstance(items, np.ndarray):
        return cls.from_stack(items)
    if isinstance(items, OperatorStack):
        if issubclass(items.kind, cls):
            return items
        parts = items.matrices, items.eigenvalues, items.eigenvectors
    else:
        ops = [x if isinstance(x, PositiveOperator) else cls(x) for x in items]
        if len({x.dim for x in ops}) > 1:
            raise ValueError("dimension mismatch between the two operators")
        parts = (np.array([getattr(x, name) for x in ops])
                 for name in ("matrix", "eigenvalues", "eigenvectors"))
    stack = OperatorStack(cls, *parts)
    cls._check_trace(stack.matrices)
    return stack


def as_positive(x) -> PositiveOperator:
    return x if isinstance(x, PositiveOperator) else PositiveOperator(x)


def as_density(x) -> DensityOperator:
    return x if isinstance(x, DensityOperator) else as_stack([x], DensityOperator)[0]
