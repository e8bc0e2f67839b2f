"""The vectorized sampler against a one-draw-at-a-time reference, bit for bit.

``_RefRng`` and the ``_ref_*`` samplers below are the pure-Python SplitMix64
and Box-Muller stream as it was before the sampler was vectorized: every
output of ``qdiv.sampling`` must equal theirs byte for byte (and derived
floats in ``repr``).  ``golden/splitmix_stream.json``
was written by that scalar code; it pins the part of the stream that uses no
LAPACK (raw outputs, and Ginibre matrices at n = 1 and 3).
"""

import json
import math
import os

import numpy as np
import pytest

from qdiv import preserver, sampling
from qdiv.maps import StateMap, conjugate_by
from qdiv.matrixcore import frobenius
from qdiv.sampling import SeededRng, ginibre, haar_unitary, random_density_matrix, \
    random_positive_definite, random_simplex, random_unit_vector

SEEDS = (0, 1, 7, 2**63 + 11, 2**64 - 1)
DIMS = (1, 2, 3, 4, 5, 8, 16)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "splitmix_stream.json")

_MASK = (1 << 64) - 1


class _RefRng:
    def __init__(self, seed):
        self._state = int(seed) & _MASK

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_pos(self):
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def exponential(self):
        return -math.log(self.uniform_pos())

    def complex_normal(self):
        u1 = self.uniform_pos()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        x, y = r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)
        return complex(x, y) / math.sqrt(2.0)

    def integer(self, lo, hi):
        return lo + self.next_u64() % (hi - lo + 1)


def _ref_ginibre(n, rng):
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i, j] = rng.complex_normal()
    return out


def _ref_haar(n, rng):
    q, r = np.linalg.qr(_ref_ginibre(n, rng))
    d = np.diag(r).copy()
    d[d == 0.0] = 1.0
    return q * (d / np.abs(d))


def _ref_simplex(n, rng):
    e = np.array([rng.exponential() for _ in range(n)])
    return e / e.sum()


def _ref_density(n, rank, rng):
    evals = np.zeros(n)
    evals[:rank] = _ref_simplex(rank, rng)
    u = _ref_haar(n, rng)
    m = (u * evals) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def _ref_positive_definite(n, kappa, rng):
    half = 0.5 * math.log(kappa)
    evals = np.array([math.exp(-half + rng.uniform() * 2.0 * half) for _ in range(n)])
    u = _ref_haar(n, rng)
    m = (u * evals) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def _ref_unit_vector(n, rng):
    v = np.array([rng.complex_normal() for _ in range(n)])
    return v / np.linalg.norm(v)


def _ref_invariance_matrices(n, n_samples, seed):
    rng = _RefRng(seed)
    out = []
    for i in range(n_samples):
        ra = preserver._rank_pattern(i, n, rng)
        rb = preserver._rank_pattern(i // 3 + i, n, rng)
        out += [_ref_density(n, ra, rng), _ref_density(n, rb, rng)]
    return out


def _ref_max_deviation(state_map, u, kind, n_samples, seed):
    # pure states x x*, one unit vector after another
    rng = _RefRng(seed)
    max_dev = 0.0
    for _ in range(n_samples):
        x = _ref_unit_vector(state_map.dim, rng)
        a = np.outer(x, x.conj())
        max_dev = max(max_dev, frobenius(state_map.apply(a) - conjugate_by(u, kind, a)))
    return max_dev


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_outputs_match_reference(seed):
    ref = _RefRng(seed)
    want = [ref.next_u64() for _ in range(300)]
    rng = SeededRng(seed)
    got = [rng.next_u64(), *rng.next_u64s(0).tolist(), *rng.next_u64s(1).tolist(),
           *rng.next_u64s(298).tolist()]
    assert got == want
    # the block draw leaves the stream where 300 scalar draws leave it
    assert rng.next_u64() == ref.next_u64()
    assert rng.uniform() == ref.uniform()
    assert rng.integer(3, 17) == ref.integer(3, 17)


def test_scalar_draws_equal_the_block_draw():
    # the scalar draws step on Python ints, the block draw on uint64 arrays:
    # 100 seeds, the ends of the range among them
    seeds = [0, 2**64 - 1, *SeededRng(99).next_u64s(98).tolist()]
    for seed in seeds:
        block = SeededRng(seed).next_u64s(4)
        rng = SeededRng(seed)
        assert rng.next_u64() == int(block[0])
        assert rng.uniform() == float(sampling._uniform(block[1:2])[0])
        assert rng.integer(-5, 12) == -5 + int(block[2]) % 18
        assert rng.next_u64s(1).tolist() == block[3:].tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", DIMS)
def test_stacks_match_reference(seed, n):
    rng, ref = SeededRng(seed), _RefRng(seed)
    assert _same(ginibre(n, rng), _ref_ginibre(n, ref))
    assert _same(ginibre(n, rng, count=3), [_ref_ginibre(n, ref) for _ in range(3)])
    assert _same(haar_unitary(n, rng), _ref_haar(n, ref))
    assert _same(haar_unitary(n, rng, count=3), [_ref_haar(n, ref) for _ in range(3)])
    assert _same(random_simplex(n, rng), _ref_simplex(n, ref))
    assert _same(random_simplex(n, rng, count=5), [_ref_simplex(n, ref) for _ in range(5)])
    assert _same(random_unit_vector(n, rng), _ref_unit_vector(n, ref))
    assert _same(random_unit_vector(n, rng, count=5),
                 [_ref_unit_vector(n, ref) for _ in range(5)])
    # empty stacks draw nothing
    assert ginibre(n, rng, count=0).shape == (0, n, n)
    assert random_simplex(n, rng, count=0).shape == (0, n)
    assert random_unit_vector(n, rng, count=0).shape == (0, n)
    for rank in sorted({1, (n + 1) // 2, n}):
        assert _same(random_density_matrix(n, rank, rng), _ref_density(n, rank, ref))
    for kappa in (1.0, 10.0, 1e6):
        got = random_positive_definite(n, kappa, rng).matrix
        assert _same(got, _ref_positive_definite(n, kappa, ref))
    assert rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", DIMS)
def test_invariance_pairs_match_reference(seed, n):
    pairs = preserver.invariance_pairs(n, n_samples=7, seed=seed)
    got = [x.matrix for pair in pairs for x in pair]
    assert _same(got, _ref_invariance_matrices(n, 7, seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", DIMS)
def test_verify_conjugation_matches_reference(seed, n):
    u = _ref_haar(n, _RefRng(seed ^ 1))
    for kind, state_map in (("unitary", StateMap.unitary_conjugation(u)),
                            ("antiunitary", StateMap.antiunitary_conjugation(u.conj()))):
        got = preserver.verify_conjugation(state_map, u, kind, n_samples=12, seed=seed)
        want = _ref_max_deviation(state_map, u, kind, 12, seed)
        assert repr(got.max_deviation) == repr(want)


def test_golden_stream():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden["seeds"] == list(SEEDS)
    for seed in SEEDS:
        assert SeededRng(seed).next_u64s(8).tolist() == golden["u64"][str(seed)]
        for n in (1, 3):
            want = golden["ginibre"][f"{seed}/{n}"]
            got = ginibre(n, SeededRng(seed))
            assert got.real.tolist() == want["re"]
            assert got.imag.tolist() == want["im"]
