"""Maps on states: (anti)unitary conjugations and Kraus channels.

An antiunitary is always represented as entrywise conjugation in the standard
basis followed by a unitary; every antiunitary factors that way, and the fixed
factorization turns kind detection into a sign test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import matrixcore as mc


def require_unitary(u, tol: float = mc.UNITARY_TOL) -> np.ndarray:
    u = mc.as_complex_matrix(u)
    defect = mc.frobenius(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > tol:
        raise ValueError(f"matrix is not unitary: ||U*U - I|| = {defect:.3e}")
    return u


def require_conjugation_kind(kind: str) -> str:
    """``kind`` if it is ``"unitary"`` or ``"antiunitary"``, else ``ValueError``."""
    if kind not in ("unitary", "antiunitary"):
        raise ValueError(f"unknown conjugation kind {kind!r}")
    return kind


def conjugate_by(u: np.ndarray, kind: str, a: np.ndarray) -> np.ndarray:
    """Apply U A U* (unitary kind) or U conj(A) U* (antiunitary kind), to A
    or to each matrix of a stack (..., n, n)."""
    if require_conjugation_kind(kind) == "antiunitary":
        a = a.conj()
    return u @ a @ u.conj().T


@dataclass(frozen=True)
class StateMap:
    """A transformation on operators, tagged by how it is implemented: ``kind``
    is ``"unitary"`` or ``"antiunitary"`` (with ``unitary`` set), the words
    :func:`conjugate_by` takes and ``wigner_reconstruct`` returns, or ``"kraus"``."""

    kind: str
    unitary: Optional[np.ndarray] = None
    kraus: Optional[Tuple[np.ndarray, ...]] = None

    @classmethod
    def unitary_conjugation(cls, u) -> "StateMap":
        return cls(kind="unitary", unitary=require_unitary(u))

    @classmethod
    def antiunitary_conjugation(cls, u) -> "StateMap":
        return cls(kind="antiunitary", unitary=require_unitary(u))

    @classmethod
    def kraus_channel(cls, ops) -> "StateMap":
        ops = tuple(mc.as_complex_matrix(k) for k in ops)
        if not ops:
            raise ValueError("a Kraus channel needs at least one operator")
        n = ops[0].shape[0]
        if any(k.shape != (n, n) for k in ops):
            raise ValueError("Kraus operators must all have one order")
        total = sum(k.conj().T @ k for k in ops)
        if mc.frobenius(total - np.eye(n)) > mc.KRAUS_TOL:
            raise ValueError("Kraus operators do not satisfy sum K*K = I")
        return cls(kind="kraus", kraus=ops)

    @property
    def dim(self) -> int:
        if self.unitary is not None:
            return self.unitary.shape[0]
        return self.kraus[0].shape[0]

    def apply(self, a) -> np.ndarray:
        """The image of a matrix, or of each matrix of a stack (..., n, n);
        a stack member's image is bit-identical to the image of it alone."""
        a = mc.as_complex_matrix(a, stack=True)
        if self.kind != "kraus":
            return conjugate_by(self.unitary, self.kind, a)
        out = np.zeros_like(a)
        for k in self.kraus:
            out += k @ a @ k.conj().T
        return out


def depolarizing_channel(p: float, n: int = 2) -> StateMap:
    """Kraus form of A -> (1-p) A + p tr(A) I/n.

    For qubits this is the standard four-operator Pauli form; for larger n the
    mixing part is expanded over the n^2 matrix units scaled by sqrt(p/n).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    units = np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)
    ops = [np.sqrt(1.0 - p) * np.eye(n, dtype=np.complex128), *(np.sqrt(p / n) * units)]
    return StateMap.kraus_channel(ops)
