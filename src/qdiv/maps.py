"""Maps on states: (anti)unitary conjugations, Kraus channels, lookup tables.

An antiunitary is always represented as entrywise conjugation in the standard
basis followed by a unitary; every antiunitary factors that way, and the fixed
factorization turns kind detection into a sign test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import matrixcore as mc

UNITARY = "unitary_conjugation"
ANTIUNITARY = "antiunitary_conjugation"
KRAUS = "kraus_channel"
TABULATED = "tabulated"


def require_unitary(u, tol: float = mc.UNITARY_TOL) -> np.ndarray:
    u = mc.as_complex_matrix(u)
    defect = mc.frobenius(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > tol:
        raise ValueError(f"matrix is not unitary: ||U*U - I|| = {defect:.3e}")
    return u


def conjugate_by(u: np.ndarray, kind: str, a: np.ndarray) -> np.ndarray:
    """Apply U A U* (unitary kind) or U conj(A) U* (antiunitary kind)."""
    if kind in (UNITARY, "unitary"):
        return u @ a @ u.conj().T
    if kind in (ANTIUNITARY, "antiunitary"):
        return u @ a.conj() @ u.conj().T
    raise ValueError(f"unknown conjugation kind {kind!r}")


@dataclass(frozen=True)
class StateMap:
    """A transformation on operators, tagged by how it is implemented."""

    kind: str
    unitary: Optional[np.ndarray] = None
    kraus: Optional[Tuple[np.ndarray, ...]] = None
    table: Optional[Tuple[Tuple[np.ndarray, np.ndarray], ...]] = None

    @classmethod
    def unitary_conjugation(cls, u) -> "StateMap":
        return cls(kind=UNITARY, unitary=require_unitary(u))

    @classmethod
    def antiunitary_conjugation(cls, u) -> "StateMap":
        return cls(kind=ANTIUNITARY, unitary=require_unitary(u))

    @classmethod
    def kraus_channel(cls, ops) -> "StateMap":
        ops = tuple(mc.as_complex_matrix(k) for k in ops)
        if not ops:
            raise ValueError("a Kraus channel needs at least one operator")
        n = ops[0].shape[0]
        total = sum(k.conj().T @ k for k in ops)
        if mc.frobenius(total - np.eye(n)) > mc.KRAUS_TOL:
            raise ValueError("Kraus operators do not satisfy sum K*K = I")
        return cls(kind=KRAUS, kraus=ops)

    @classmethod
    def tabulated(cls, pairs) -> "StateMap":
        table = tuple(
            (mc.as_complex_matrix(x), mc.as_complex_matrix(y)) for x, y in pairs
        )
        if not table:
            raise ValueError("a tabulated map needs at least one pair")
        return cls(kind=TABULATED, table=table)

    @property
    def dim(self) -> int:
        if self.unitary is not None:
            return self.unitary.shape[0]
        if self.kraus is not None:
            return self.kraus[0].shape[0]
        return self.table[0][0].shape[0]

    def apply(self, a) -> np.ndarray:
        a = mc.as_complex_matrix(a)
        if self.kind in (UNITARY, ANTIUNITARY):
            return conjugate_by(self.unitary, self.kind, a)
        if self.kind == KRAUS:
            out = np.zeros_like(a)
            for k in self.kraus:
                out += k @ a @ k.conj().T
            return out
        for x, y in self.table:
            if mc.frobenius(x - a) <= mc.LOOKUP_TOL * mc.frobenius(x):
                return y.copy()
        raise KeyError("input operator is not tabulated for this map")


def depolarizing_channel(p: float, n: int = 2) -> StateMap:
    """Kraus form of A -> (1-p) A + p tr(A) I/n.

    For qubits this is the standard four-operator Pauli form; for larger n the
    mixing part is expanded over the n^2 matrix units scaled by sqrt(p/n).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    ops = [np.sqrt(1.0 - p) * np.eye(n, dtype=np.complex128)]
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = np.sqrt(p / n)
            ops.append(e)
    return StateMap.kraus_channel(ops)
