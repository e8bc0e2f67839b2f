"""Seeded generation of random unitaries, densities and positive operators.

The generator is a fixed splitmix-style 64-bit stream with a fixed
Box-Muller transform, so a seed pins the entire sample stream and golden
files stay valid across runs.  Matrices are filled row-major; each sampler
documents its draw order so streams can be reasoned about.
"""

from __future__ import annotations

import math

import numpy as np

from .maps import StateMap
from .operators import DensityOperator, PositiveOperator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SeededRng:
    """SplitMix64 stream with uniform, exponential and Gaussian draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform on [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_pos(self) -> float:
        """Uniform on (0, 1]; safe as a logarithm argument."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def exponential(self) -> float:
        return -math.log(self.uniform_pos())

    def normal_pair(self):
        """One Box-Muller transform: two independent standard normals."""
        u1 = self.uniform_pos()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)

    def complex_normal(self) -> complex:
        """Standard complex Gaussian: E|z|^2 = 1."""
        x, y = self.normal_pair()
        return complex(x, y) / math.sqrt(2.0)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        if hi < lo:
            raise ValueError("empty integer range")
        return lo + self.next_u64() % (hi - lo + 1)


def ginibre(n: int, rng: SeededRng) -> np.ndarray:
    """Matrix of i.i.d. standard complex Gaussians, filled row-major."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i, j] = rng.complex_normal()
    return out


def haar_unitary(n: int, rng: SeededRng) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with phase-fixed R.

    Dividing out the phases of R's diagonal is what makes the distribution
    Haar; plain QR is biased.
    """
    g = ginibre(n, rng)
    q, r = np.linalg.qr(g)
    d = np.diag(r).copy()
    d[d == 0.0] = 1.0
    return q * (d / np.abs(d))


def random_simplex(n: int, rng: SeededRng) -> np.ndarray:
    """Uniform point on the probability simplex via normalized exponentials."""
    e = np.array([rng.exponential() for _ in range(n)])
    return e / e.sum()


def random_density_matrix(n: int, rank: int, rng: SeededRng) -> np.ndarray:
    """Matrix of a density of exact rank: Haar-rotated simplex eigenvalues,
    zero padded, made exactly Hermitian.

    Draw order: the simplex weights, then the Haar unitary.
    """
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}], got {rank}")
    p = random_simplex(rank, rng)
    evals = np.zeros(n)
    evals[:rank] = p
    u = haar_unitary(n, rng)
    m = (u * evals) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def random_density(n: int, rank: int, rng: SeededRng) -> DensityOperator:
    """``random_density_matrix`` validated and eigendecomposed; same draws."""
    return DensityOperator(random_density_matrix(n, rank, rng))


def random_positive_definite(n: int, kappa: float, rng: SeededRng) -> PositiveOperator:
    """Positive definite with eigenvalues log-uniform in [1/sqrt(k), sqrt(k)].

    Draw order: the eigenvalues, then the Haar unitary.
    """
    if kappa < 1.0:
        raise ValueError("condition cap must be at least 1")
    half = 0.5 * math.log(kappa)
    evals = np.array([math.exp(-half + rng.uniform() * 2.0 * half) for _ in range(n)])
    u = haar_unitary(n, rng)
    m = (u * evals) @ u.conj().T
    return PositiveOperator(0.5 * (m + m.conj().T))


def random_antiunitary(n: int, rng: SeededRng) -> StateMap:
    """Antiunitary conjugation with a fresh Haar unitary part."""
    return StateMap.antiunitary_conjugation(haar_unitary(n, rng))


def random_unit_vector(n: int, rng: SeededRng) -> np.ndarray:
    v = np.array([rng.complex_normal() for _ in range(n)])
    return v / np.linalg.norm(v)
