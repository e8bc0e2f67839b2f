"""Seeded generation of random unitaries, densities and positive operators.

The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) with a fixed
Box-Muller transform, so a seed pins the entire sample stream and golden
files stay valid across runs.  Matrices are filled row-major; each sampler
documents its draw order so streams can be reasoned about.

Counter-based.  After k outputs the state is seed + k * gamma (mod 2^64) and
the k-th output is a fixed mix of that state alone, so ``SeededRng.next_u64s``
computes a block of outputs in one vectorized pass; it returns what as many
``next_u64`` calls would, and advances the state as far.  A stack of seeded
objects drawn one after another (``ginibre``, ``haar_unitary``,
``random_simplex``, ``random_unit_vector`` with ``count``) is one such block.

Lay out first, fill once.  Where scalar draws sit between the objects, as a
rank drawn before each density, ``random_density_matrices`` walks the draws in
Python first: it takes the ranks one by one from a lazy iterable, so a rank
drawn from the same stream is drawn where a one-at-a-time loop would draw it,
and it skips the rank + 2 n^2 outputs each density will read.  Then it fills
every matrix with one SplitMix64 evaluation, one Box-Muller pass, one batched
QR and one batched product.

Exactness.  Every vector path reproduces the one-at-a-time stream bit for bit:

- logarithms, cosines, sines and exponentials are ``math.log``, ``math.cos``,
  ``math.sin`` and ``math.exp`` applied element by element: ``np.log`` differs
  from ``math.log`` on about 0.3% of inputs, and ``np.cos``/``np.sin`` results
  depend on numpy's CPU dispatch;
- a complex normal divides its real and imaginary parts by sqrt(2)
  separately; numpy's complex-by-float division rounds differently;
- SplitMix64 runs on ``uint64`` arrays, which wrap silently (numpy scalars
  warn on overflow, and the tests turn warnings into errors);
- each member of a batched ``np.linalg.qr``, matmul or row sum equals the
  call on that member alone (checked by ``tests/test_sampling_stream.py``
  against a one-draw-at-a-time pure-Python reference of the stream).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from . import matrixcore as mc
from .maps import StateMap
from .operators import DensityOperator, PositiveOperator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(starts, count: int) -> np.ndarray:
    """Outputs 1..count after each start state: shape (len(starts), count)."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = np.asarray(starts, dtype=np.uint64)[:, None] + steps
    z = (z ^ (z >> 30)) * np.uint64(_MIX1)
    z = (z ^ (z >> 27)) * np.uint64(_MIX2)
    return z ^ (z >> 31)


class SeededRng:
    """SplitMix64 stream with scalar uniform and integer draws and a
    vectorized block draw."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64s(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a ``uint64`` array; count >= 0."""
        if count < 0:
            raise ValueError(f"cannot draw a negative number of outputs, got {count}")
        out = _splitmix64([self._state], count)[0]
        self._skip(count)
        return out

    def _skip(self, count: int) -> int:
        """Pass over the next ``count`` outputs; return the state they follow.
        A numpy integer ``count`` is made a Python int, which cannot overflow."""
        start = self._state
        self._state = (start + int(count) * _GOLDEN) & _MASK
        return start

    def next_u64(self) -> int:
        """The next output: ``_splitmix64``'s step on Python ints, masked
        where the array wraps."""
        z = self._state = (self._state + _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform on [0, 1), as ``_uniform``: the top 53 bits, exact in a
        float, times 2^-53."""
        return (self.next_u64() >> 11) * 2.0**-53

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        if hi < lo:
            raise ValueError("empty integer range")
        return lo + self.next_u64() % (hi - lo + 1)


class _Drawn:
    """Outputs computed beforehand, handed out in order like ``next_u64s``."""

    __slots__ = ("_u", "_at")

    def __init__(self, outputs: np.ndarray):
        self._u, self._at = outputs.ravel(), 0

    def next_u64s(self, count: int) -> np.ndarray:
        self._at += count
        return self._u[self._at - count:self._at]


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _uniform(u: np.ndarray) -> np.ndarray:
    """Uniform on [0, 1) from each output."""
    return (u >> 11).astype(np.float64) * 2.0**-53


def _exponentials(u: np.ndarray) -> np.ndarray:
    """Standard exponential from each output, via a uniform on (0, 1]."""
    return -_elementwise(math.log, ((u >> 11) + 1).astype(np.float64) * 2.0**-53)


def _complex_normals(u: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians (E|z|^2 = 1), one Box-Muller transform per
    pair of outputs (..., 2m) -> (..., m)."""
    u1 = ((u[..., 0::2] >> 11) + 1).astype(np.float64) * 2.0**-53
    theta = 2.0 * math.pi * _uniform(u[..., 1::2])
    r = np.sqrt(-2.0 * _elementwise(math.log, u1))
    z = np.empty(u1.shape, dtype=np.complex128)
    z.real = r * _elementwise(math.cos, theta) / math.sqrt(2.0)
    z.imag = r * _elementwise(math.sin, theta) / math.sqrt(2.0)
    return z


def _normalized(e: np.ndarray) -> np.ndarray:
    return e / e.sum(axis=-1, keepdims=True)


def ginibre(n: int, rng, count: Optional[int] = None) -> np.ndarray:
    """Matrix of i.i.d. standard complex Gaussians, filled row-major, or a
    stack of ``count`` of them drawn one after another."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    shape = (n, n) if count is None else (count, n, n)
    return _complex_normals(rng.next_u64s(2 * math.prod(shape))).reshape(shape)


def haar_unitary(n: int, rng, count: Optional[int] = None) -> np.ndarray:
    """Haar-distributed unitary (or a stack of ``count``): QR of a Ginibre
    matrix with phase-fixed R (Mezzadri, arXiv:math-ph/0609050).

    Dividing out the phases of R's diagonal is what makes the distribution
    Haar; plain QR is biased.
    """
    q, r = np.linalg.qr(ginibre(n, rng, count))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0.0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def random_simplex(n: int, rng: SeededRng, count: Optional[int] = None) -> np.ndarray:
    """Uniform point on the probability simplex via normalized exponentials,
    or a stack of ``count`` of them drawn one after another."""
    shape = (n,) if count is None else (count, n)
    return _normalized(_exponentials(rng.next_u64s(math.prod(shape))).reshape(shape))


def random_density_matrices(n: int, ranks: Iterable[int], rng: SeededRng) -> np.ndarray:
    """Stack of density matrices of exact ranks: Haar-rotated simplex
    eigenvalues, zero padded, made exactly Hermitian.

    Draw order per density: the simplex weights, then the Haar unitary.
    ``ranks`` is consumed lazily, one rank before each density's outputs are
    skipped, so a generator may draw each rank from ``rng`` itself.
    """
    starts, rs = [], []
    for rank in ranks:
        if not 1 <= rank <= n:
            raise ValueError(f"rank must lie in [1, {n}], got {rank}")
        starts.append(rng._skip(rank + 2 * n * n))
        rs.append(rank)
    if not rs:
        return np.zeros((0, n, n), dtype=np.complex128)
    rs = np.array(rs)
    u = _splitmix64(starts, rs.max() + 2 * n * n)
    evals = np.zeros((len(rs), n))
    for rank in sorted(set(rs.tolist())):
        sel = rs == rank
        evals[sel, :rank] = _normalized(_exponentials(u[sel, :rank]))
    gauss = u[np.arange(len(rs))[:, None], rs[:, None] + np.arange(2 * n * n)]
    return mc.from_spectrum(evals, haar_unitary(n, _Drawn(gauss), len(rs)))


def random_density_matrix(n: int, rank: int, rng: SeededRng) -> np.ndarray:
    """One ``random_density_matrices`` member; the same draws."""
    return random_density_matrices(n, [rank], rng)[0]


def random_density(n: int, rank: int, rng: SeededRng) -> DensityOperator:
    """``random_density_matrix`` validated and eigendecomposed; same draws."""
    return DensityOperator(random_density_matrix(n, rank, rng))


def random_positive_definite(n: int, kappa: float, rng: SeededRng) -> PositiveOperator:
    """Positive definite with eigenvalues log-uniform in [1/sqrt(k), sqrt(k)].

    Draw order: the eigenvalues, then the Haar unitary.
    """
    if not math.isfinite(kappa):
        raise ValueError(f"condition cap must be finite, got {kappa}")
    if kappa < 1.0:
        raise ValueError("condition cap must be at least 1")
    half = 0.5 * math.log(kappa)
    evals = _elementwise(math.exp, -half + _uniform(rng.next_u64s(n)) * 2.0 * half)
    return PositiveOperator(mc.from_spectrum(evals, haar_unitary(n, rng)))


def random_antiunitary(n: int, rng: SeededRng) -> StateMap:
    """Antiunitary conjugation with a fresh Haar unitary part."""
    return StateMap.antiunitary_conjugation(haar_unitary(n, rng))


def random_unit_vector(n: int, rng: SeededRng, count: Optional[int] = None) -> np.ndarray:
    """Uniform unit vector in C^n, or a stack of ``count`` drawn one after
    another; the single vector is the one member of the stack of 1.  Each is
    divided by its own norm, ``mc.frobenius`` of the 1 x n row, which keeps
    the bits of ``np.linalg.norm`` on that vector alone."""
    m = 1 if count is None else count
    v = _complex_normals(rng.next_u64s(2 * n * m)).reshape(m, 1, n)
    v = (v / mc.frobenius(v)[:, None, None]).reshape(m, n)
    return v[0] if count is None else v
