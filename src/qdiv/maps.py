"""Maps on states: (anti)unitary conjugations and Kraus channels.

An antiunitary is always represented as entrywise conjugation in the standard
basis followed by a unitary; every antiunitary factors that way, and the fixed
factorization turns kind detection into a sign test.

A Kraus channel A -> sum K A K* is held as its natural representation S =
sum K (x) conj(K), which maps the row-major vectorization of A to that of its
image (Watrous, The Theory of Quantum Information, section 2.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True, eq=False)
class StateMap:
    """A transformation on operators, tagged by how it is implemented: ``kind``
    is ``"unitary"`` or ``"antiunitary"`` (with ``unitary`` set), the words
    :func:`conjugate_by` takes and ``wigner_reconstruct`` returns, or ``"kraus"``
    (with ``superop`` set to S, built once when the channel is made).  A map
    is checked when it is built, also directly: an unknown kind, a missing
    field or a ``unitary`` that fails :func:`require_unitary` raises
    ``ValueError``.  Maps compare and hash by identity."""

    kind: str
    unitary: Optional[np.ndarray] = None
    superop: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("unitary", "antiunitary", "kraus"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        field = "superop" if self.kind == "kraus" else "unitary"
        if getattr(self, field) is None:
            raise ValueError(f"a {self.kind} map needs its {field}")
        if self.kind != "kraus":
            object.__setattr__(self, "unitary", require_unitary(self.unitary))

    @classmethod
    def unitary_conjugation(cls, u) -> "StateMap":
        return cls(kind="unitary", unitary=u)

    @classmethod
    def antiunitary_conjugation(cls, u) -> "StateMap":
        return cls(kind="antiunitary", unitary=u)

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
        return cls(kind="kraus", superop=sum(np.kron(k, k.conj()) for k in ops))

    @property
    def dim(self) -> int:
        if self.unitary is not None:
            return self.unitary.shape[0]
        return math.isqrt(self.superop.shape[0])

    def apply(self, a) -> np.ndarray:
        """The image of a matrix, or of each matrix of a stack (..., n, n).  A
        Kraus channel maps each member as its own (1, n^2) row times S^T, so a
        stack member's image is bit-identical to the image of it alone, which
        one (N, n^2) product over the whole stack does not keep."""
        a = mc.as_complex_matrix(a, stack=True)
        if a.shape[-1] != self.dim:
            raise ValueError(f"a map on order {self.dim} got an operand of order {a.shape[-1]}")
        if self.kind != "kraus":
            return conjugate_by(self.unitary, self.kind, a)
        rows = a.reshape(*a.shape[:-2], 1, len(self.superop))
        return (rows @ self.superop.T).reshape(a.shape)


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
