import math
import os

import numpy as np
import pytest

import qdiv.matrixcore as mc
from qdiv import sampling
from qdiv.files import load_operator
from qdiv.operators import DensityOperator
from qdiv.sampling import SeededRng, ginibre, haar_unitary, random_antiunitary, \
    random_density, random_positive_definite, random_simplex

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "ginibre_seed42_n2.json")


def test_rng_reproducible_stream():
    a = SeededRng(12345)
    b = SeededRng(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_rng_uniform_range():
    rng = SeededRng(1)
    for _ in range(1000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0
    # the extreme outputs: uniforms 0 and 1 - 2^-53; every logarithm argument
    # lies in (0, 1], so exponentials and normals stay finite
    extremes = np.array([0, 2**64 - 1], dtype=np.uint64)
    assert sampling._uniform(extremes).tolist() == [0.0, 1.0 - 2.0**-53]
    assert sampling._exponentials(extremes).tolist() == [-math.log(2.0**-53), 0.0]
    assert np.all(np.isfinite(sampling._complex_normals(np.tile(extremes, 2)).view(float)))


def test_ginibre_bitwise_reproducible():
    g1 = ginibre(3, SeededRng(7))
    g2 = ginibre(3, SeededRng(7))
    assert np.array_equal(g1, g2)


def test_ginibre_golden_file():
    want, _ = load_operator(GOLDEN)
    got = ginibre(2, SeededRng(42))
    assert np.max(np.abs(got - want)) == 0.0


def test_ginibre_scalar_case():
    g = ginibre(1, SeededRng(3))
    assert g.shape == (1, 1)


def test_ginibre_entry_mean_is_small():
    rng = SeededRng(99)
    total = 0.0 + 0.0j
    count = 0
    for _ in range(625):
        g = ginibre(4, rng)
        total += g.sum()
        count += 16
    assert abs(total / count) < 0.05


def test_ginibre_rejects_bad_dim():
    with pytest.raises(ValueError):
        ginibre(0, SeededRng(0))


def test_haar_unitary_is_unitary():
    for seed in (0, 1, 2):
        u = haar_unitary(4, SeededRng(seed))
        assert mc.frobenius(u.conj().T @ u - np.eye(4)) <= 1e-12
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-10


def test_haar_first_moment():
    rng = SeededRng(123)
    total = sum(abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(10_000))
    assert abs(total / 10_000 - 0.5) < 0.02


def test_haar_invariance_smoke():
    rng = SeededRng(7)
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([1.0, 0.0]).astype(complex)
    total = 0.0
    for _ in range(10_000):
        u = haar_unitary(2, rng)
        total += np.trace(p @ u @ q @ u.conj().T).real
    assert abs(total / 10_000 - 0.5) < 0.02


def test_simplex_sums_to_one():
    rng = SeededRng(5)
    for _ in range(50):
        p = random_simplex(4, rng)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0.0)


def test_random_density_rank_and_trace():
    rng = SeededRng(11)
    for rank in (1, 2, 3):
        d = random_density(3, rank, rng)
        assert d.rank == rank
        assert d.trace == pytest.approx(1.0, abs=1e-12)


def test_random_density_rank_one_is_projection():
    rng = SeededRng(13)
    d = random_density(3, 1, rng)
    assert mc.frobenius(d.matrix @ d.matrix - d.matrix) <= 1e-10


def test_random_density_full_rank_definite():
    rng = SeededRng(17)
    assert random_density(3, 3, rng).definite


def test_random_density_rejects_bad_rank():
    rng = SeededRng(19)
    with pytest.raises(ValueError):
        random_density(3, 0, rng)
    with pytest.raises(ValueError):
        random_density(3, 4, rng)


@pytest.mark.parametrize("rank", [2.0, 1.5, True, False, "2", None])
def test_a_rank_must_be_an_integer(rank):
    # 2.0 once failed with a bare TypeError from a slice, and True passed as 1
    with pytest.raises(ValueError, match=f"rank must be an integer, got {rank!r}"):
        random_density(3, rank, SeededRng(19))
    with pytest.raises(ValueError, match="rank must be an integer"):
        sampling.random_density_matrices(2, [1, rank], SeededRng(19))
    assert random_density(3, np.int64(2), SeededRng(19)).rank == 2


def test_random_density_validates():
    rng = SeededRng(23)
    for _ in range(20):
        d = random_density(4, 1 + rng.integer(0, 3), rng)
        assert isinstance(d, DensityOperator)


def test_random_pd_kappa_one_is_identity():
    rng = SeededRng(29)
    op = random_positive_definite(3, 1.0, rng)
    assert np.allclose(op.matrix, np.eye(3), atol=1e-12)


def test_random_pd_positive_and_conditioned():
    rng = SeededRng(31)
    kappa = 25.0
    for _ in range(20):
        op = random_positive_definite(3, kappa, rng)
        ev = op.eigenvalues
        assert ev[0] > 0.0
        assert ev[-1] / ev[0] <= kappa * (1.0 + 1e-10)


def test_random_pd_rejects_bad_kappa():
    with pytest.raises(ValueError):
        random_positive_definite(2, 0.5, SeededRng(0))


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_random_pd_rejects_non_finite_kappa(kappa):
    with pytest.raises(ValueError, match="finite"):
        random_positive_definite(2, kappa, SeededRng(0))


def test_antiunitary_on_real_diagonal_is_plain_similarity():
    rng = SeededRng(37)
    m = random_antiunitary(3, rng)
    d = np.diag([0.2, 0.3, 0.5]).astype(complex)
    u = m.unitary
    assert np.allclose(m.apply(d), u @ d @ u.conj().T, atol=1e-14)


def test_antiunitary_preserves_density_class():
    rng = SeededRng(41)
    m = random_antiunitary(3, rng)
    for _ in range(100):
        d = random_density(3, 1 + rng.integer(0, 2), rng)
        out = DensityOperator(m.apply(d.matrix))
        assert out.trace == pytest.approx(1.0, abs=1e-10)


def test_antiunitary_squares_to_unitary_conjugation():
    rng = SeededRng(43)
    m = random_antiunitary(2, rng)
    u = m.unitary
    # applying twice: U conj(U conj(A) U*) U* = (U conj(U)) A (U conj(U))*
    v = u @ u.conj()
    a = random_density(2, 2, rng).matrix
    twice = m.apply(m.apply(a))
    assert np.allclose(twice, v @ a @ v.conj().T, atol=1e-12)
    assert mc.frobenius(v.conj().T @ v - np.eye(2)) <= 1e-12


def test_sampler_reuse_advances_stream():
    rng = SeededRng(47)
    d1 = random_density(2, 2, rng)
    d2 = random_density(2, 2, rng)
    assert mc.frobenius(d1.matrix - d2.matrix) > 1e-3
