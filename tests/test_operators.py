import numpy as np
import pytest

import qdiv.matrixcore as mc
from qdiv.operators import DensityOperator, PositiveOperator, ValidationError
from qdiv.sampling import SeededRng, haar_unitary, random_density


def test_density_requires_unit_trace():
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([0.6, 0.6]))
    DensityOperator(np.diag([0.4, 0.6]))


def test_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        PositiveOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_rejects_indefinite():
    with pytest.raises(ValidationError):
        PositiveOperator(np.diag([1.0, -0.2]))


def test_clamps_psd_noise():
    a = PositiveOperator(np.diag([1.0, -1e-13]))
    assert a.eigenvalues[0] == 0.0
    assert a.rank == 1


def test_snaps_support_noise_to_exact_zero():
    rng = SeededRng(17)
    u = haar_unitary(3, rng)
    m = (u * np.array([0.7, 0.3, 0.0])) @ u.conj().T
    d = DensityOperator(m)
    assert d.rank == 2
    assert np.count_nonzero(d.eigenvalues == 0.0) == 1


def test_definite_flag():
    assert PositiveOperator(np.eye(2)).definite
    assert not PositiveOperator(np.diag([1.0, 0.0])).definite


def test_support_projection_reproduces_operator():
    rng = SeededRng(23)
    d = random_density(4, 2, rng)
    p = d.support_projection
    assert mc.frobenius(p @ d.matrix @ p - d.matrix) <= 1e-10


def test_clusters_validate():
    rng = SeededRng(29)
    d = random_density(4, 3, rng)
    ps = [c.projection for c in d.clusters]
    assert all(mc.is_projection(p) for p in ps)
    assert all(mc.frobenius(p @ q) <= 1e-10 for i, p in enumerate(ps) for q in ps[i + 1:])
    assert mc.frobenius(sum(ps) - np.eye(4)) <= 1e-10
    assert sum(c.multiplicity for c in d.clusters) == 4
    recon = sum(c.eigenvalue * c.projection for c in d.clusters)
    assert mc.frobenius(recon - d.matrix) <= 1e-9


def test_pseudo_power_inverts_on_support():
    d = DensityOperator(np.diag([0.5, 0.5, 0.0]))
    inv = d.pseudo_power(-1.0)
    assert np.allclose(inv, np.diag([2.0, 2.0, 0.0]), atol=1e-12)


def test_sqrt_squares_back():
    rng = SeededRng(37)
    d = random_density(3, 3, rng)
    s = d.sqrt()
    assert mc.frobenius(s @ s - d.matrix) <= 1e-10


def test_matrices_are_frozen():
    d = DensityOperator(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        d.matrix[0, 0] = 9.0


def test_an_eigenvalue_beyond_a_float_is_rejected_not_snapped():
    # finite entries, true spectrum {0, 2e308}: the scaled-back top eigenvalue
    # was inf, and the support snap at SUPP_TOL * inf then zeroed both (rank 0)
    huge = np.full((2, 2), 1e308)
    with pytest.raises(ValidationError, match="eigenvalue overflows a float"):
        PositiveOperator(huge)
    with pytest.raises(ValidationError, match="eigenvalue overflows a float"):
        PositiveOperator.from_stack(np.array([np.eye(2), huge]))
    # the same scale with eigenvalues a float holds stays exact
    big = PositiveOperator(np.diag([1e308, 0.5e308]))
    assert big.eigenvalues.tolist() == [0.5e308, 1e308] and big.rank == 2


def test_a_density_trace_beyond_a_float_fails_validation_without_a_warning():
    # the trace 2e308 overflows; the pytest configuration turns warnings into errors
    with pytest.raises(ValidationError, match="trace inf is not 1"):
        DensityOperator(1e308 * np.eye(2))
    with pytest.raises(ValidationError, match="trace inf is not 1"):
        DensityOperator.from_stack(np.array([np.diag([0.5, 0.5]), 1e308 * np.eye(2)]))
