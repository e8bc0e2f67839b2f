import numpy as np
import pytest

import qdiv.matrixcore as mc
from qdiv.functions import bounded_ratio_fn, power_fn
from qdiv.operators import PositiveOperator, ValidationError
from qdiv.sampling import SeededRng, haar_unitary, random_positive_definite, \
    random_unit_vector


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


# ---------------------------------------------------------------- hs_inner

def test_hs_inner_identity():
    assert mc.hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)


def test_hs_inner_diagonals():
    assert mc.hs_inner(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == pytest.approx(11.0)


def test_hs_inner_rank_one_is_squared_overlap():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        got = mc.hs_inner(mc.rank_one(x, x), mc.rank_one(y, y))
        want = abs(np.vdot(y, x)) ** 2
        assert got.real == pytest.approx(want, abs=1e-12)
        assert abs(got.imag) < 1e-12


def test_hs_inner_conjugate_symmetry():
    a = random_hermitian(3, 0) + 1j * np.triu(np.ones((3, 3)))
    b = random_hermitian(3, 1)
    assert mc.hs_inner(a, b) == pytest.approx(np.conj(mc.hs_inner(b, a)))


def test_hs_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        mc.hs_inner(np.eye(2), np.eye(3))


# ------------------------------------------------------------ eig_hermitian

def test_eig_identity():
    w, _ = mc.eig_hermitian(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])


def test_eig_permuted_diagonal():
    w, _ = mc.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eig_two_by_two_closed_form():
    w, _ = mc.eig_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0], atol=1e-14)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (8, 3), (12, 4)])
def test_eig_against_numpy_oracle(n, seed):
    a = random_hermitian(n, seed)
    w, v = mc.eig_hermitian(a)
    assert np.max(np.abs(w - np.linalg.eigvalsh(a))) < 1e-11 * max(1, np.abs(w).max())
    assert mc.frobenius(v.conj().T @ v - np.eye(n)) <= 1e-10
    recon = (v * w) @ v.conj().T
    assert mc.frobenius(recon - a) <= 1e-10 * mc.frobenius(a)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        mc.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_eig_rejects_non_finite_entries_before_the_hermitian_test(bad):
    # tier-1 turns warnings into errors: a RuntimeWarning here would fail first
    m = np.array([[1.0, bad], [np.conj(bad), 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        mc.eig_hermitian(m)
    with pytest.raises(ValueError, match="non-finite"):
        mc.eig_hermitian(np.array([np.eye(2), m]))
    with pytest.raises(ValidationError, match="non-finite"):
        PositiveOperator(m)


def test_eig_zero_matrix():
    w, v = mc.eig_hermitian(np.zeros((3, 3)))
    assert np.all(w == 0.0)
    assert np.allclose(v, np.eye(3))


def mixed_stack(n, seed):
    """Random Hermitian, diagonal (0 sweeps), zero, degenerate and rank-deficient
    members, and one whose first pivot block is exactly zero with a tied diagonal."""
    rng = np.random.default_rng(seed)
    tied = np.eye(n)
    tied[-1, :] = tied[:, -1] = 1.0
    tied[-1, -1] = 2.0
    stack = [random_hermitian(n, seed), np.diag(np.arange(n, 0.0, -1)),
             np.zeros((n, n)), np.eye(n), random_hermitian(n, seed + 1), tied]
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    # two degenerate spectra, a rank-one projection, a depolarized pure state
    for spectrum in ([2.0] * (n // 2) + [-1.0] * (n - n // 2), [0.0] * (n - 1) + [1.0],
                     [0.3 / n] * (n - 1) + [0.7 + 0.3 / n]):
        stack.append((u * spectrum) @ u.conj().T)
    return np.array(stack, dtype=np.complex128)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16])
def test_eig_stack_members_bit_identical_to_single_calls(n):
    stack = mixed_stack(n, n)
    w, v = mc.eig_hermitian(stack)
    assert w.shape == (len(stack), n) and v.shape == (len(stack), n, n)
    for i, a in enumerate(stack):
        wi, vi = mc.eig_hermitian(a)
        assert np.array_equal(wi, w[i]) and np.array_equal(vi, v[i])


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_eig_stack_degenerate_and_rank_deficient_match_oracle(n):
    stack = mixed_stack(n, 10 + n)
    w, v = mc.eig_hermitian(stack)
    for a, wi, vi in zip(stack, w, v):
        assert np.max(np.abs(wi - np.linalg.eigvalsh(a))) < 1e-11 * max(1, np.abs(wi).max())
        assert mc.frobenius(vi.conj().T @ vi - np.eye(n)) <= 1e-10
        assert mc.frobenius((vi * wi) @ vi.conj().T - a) <= 1e-10 * max(1, mc.frobenius(a))


@pytest.mark.parametrize("s", [1e-200, 1e-170, 1e160, 1e200])
def test_eig_extreme_scales_are_rescaled(s):
    # squared entries under- or overflow here; the spectrum must still be s * [-1, 3]
    w, v = mc.eig_hermitian(np.array([[1.0, 2.0], [2.0, 1.0]]) * s)
    assert np.allclose(w / s, [-1.0, 3.0], rtol=1e-14, atol=0.0)
    assert np.allclose(np.abs(v), np.sqrt(0.5), rtol=1e-14, atol=0.0)
    a = random_hermitian(4, 3)
    wa, va = mc.eig_hermitian(a)
    ws, vs = mc.eig_hermitian(a * s)
    assert np.allclose(ws / s, wa, rtol=1e-12, atol=1e-12 * np.abs(wa).max())
    assert mc.frobenius((vs * (ws / s)) @ vs.conj().T - a) <= 1e-12 * mc.frobenius(a)


def test_eig_stack_mixing_scales_matches_single_calls():
    stack = np.array([random_hermitian(3, seed) * s
                      for seed, s in enumerate((1.0, 1e-200, 1e200, 0.0, 1e150, 3e-160))])
    w, v = mc.eig_hermitian(stack)
    for i, a in enumerate(stack):
        wi, vi = mc.eig_hermitian(a)
        assert np.array_equal(wi, w[i]) and np.array_equal(vi, v[i])
    assert np.array_equal(w[3], np.zeros(3))


def power_of_two(a, j):
    """2^j A, entry by entry through ``ldexp``: exact while the entries stay normal."""
    return np.ldexp(np.ascontiguousarray(a).view(np.float64), j).view(np.complex128)


@pytest.mark.parametrize("n, rank", [(1, 1), (2, 2), (2, 1), (3, 3), (3, 1), (5, 5),
                                     (5, 2), (8, 8), (8, 4), (24, 24), (24, 12)])
def test_eig_is_exactly_covariant_under_powers_of_two(n, rank):
    # every matrix runs at the scale of its largest part: with that part 1/2,
    # 2^j A runs as A itself and only the eigenvalues are scaled, by ldexp
    rng = np.random.default_rng(n + rank)
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    a = random_hermitian(n, n) if rank == n else g @ g.conj().T
    a = a / np.abs(a.view(np.float64)).max() * 0.5
    w, v = mc.eig_hermitian(a)
    parts = np.abs(a.view(np.float64))
    shifts = [-600, -3, 0, 7, 600]
    checked = 0
    for j in [*range(-1000, 1001, 37), *shifts]:
        if np.ldexp(parts[parts > 0], j).min() < np.finfo(float).tiny:
            continue
        wj, vj = mc.eig_hermitian(power_of_two(a, j))
        assert np.array_equal(wj, np.ldexp(w, j)) and np.array_equal(vj, v)
        checked += 1
    assert checked >= 55
    # a stack mixing these scales gives each member the bits of its call alone
    ws, vs = mc.eig_hermitian(np.array([power_of_two(a, j) for j in shifts]))
    assert np.array_equal(ws, np.ldexp(w, np.array(shifts)[:, None]))
    assert np.array_equal(vs, np.broadcast_to(v, vs.shape))


def test_eig_empty_stack():
    w, v = mc.eig_hermitian(np.zeros((0, 3, 3)))
    assert w.shape == (0, 3) and v.shape == (0, 3, 3)


def test_eig_stack_keeps_leading_shape():
    stack = np.array([[random_hermitian(4, 3 * i + j) for j in range(3)] for i in range(2)])
    w, v = mc.eig_hermitian(stack)
    assert w.shape == (2, 3, 4) and v.shape == (2, 3, 4, 4)
    assert np.array_equal(w[1, 2], mc.eig_hermitian(stack[1, 2])[0])


def test_eig_stack_rejects_a_non_hermitian_member():
    stack = mixed_stack(3, 0)
    stack[2, 0, 1] = 1.0
    with pytest.raises(ValueError):
        mc.eig_hermitian(stack)
    with pytest.raises(ValidationError):
        PositiveOperator.from_stack(stack)


def test_eig_stack_convergence_error_past_the_sweep_budget(monkeypatch):
    monkeypatch.setattr(mc, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(mc.ConvergenceError):
        mc.eig_hermitian(np.array([random_hermitian(4, s) for s in range(3)]))


def test_from_stack_matches_the_constructor():
    stack = np.array([random_hermitian(3, s) for s in range(4)])
    stack = np.array([a @ a for a in stack])
    for op, a in zip(PositiveOperator.from_stack(stack), stack):
        one = PositiveOperator(a)
        assert type(op) is PositiveOperator
        for got, want in ((op.matrix, one.matrix), (op.eigenvalues, one.eigenvalues),
                          (op.eigenvectors, one.eigenvectors)):
            assert np.array_equal(got, want) and not got.flags.writeable


@pytest.mark.parametrize("n", (1, 2, 3, 7, 16, 32))
def test_frobenius_of_a_stack_is_the_norm_of_each_member_alone(n):
    # vectors as 1 x n rows and matrices, with leading shapes, over 11 decades
    rng = np.random.default_rng(n)
    for scale in (1e-8, 1.0, 1e3):
        for shape in ((5, 1, n), (2, 3, n, n)):
            a = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            got = mc.frobenius(a)
            members = a.reshape((-1,) + shape[-2:])
            assert got.shape == shape[:-2]
            assert got.ravel().tolist() == [np.linalg.norm(m) for m in members]
            assert got.ravel().tolist() == [np.linalg.norm(m.ravel()) for m in members]
            one = mc.frobenius(members[0])
            assert type(one) is float and one == np.linalg.norm(members[0], "fro")


# ------------------------------------------------------- cluster_eigendata

def test_is_projection_takes_a_stack_one_bool_per_member():
    p = np.diag([1.0, 0.0, 1.0]).astype(complex)
    stack = np.array([p, 0.5 * p, p + 1e-3j * np.triu(np.ones((3, 3)), 1),
                      np.zeros((3, 3)), np.eye(3)])
    got = mc.is_projection(stack)
    assert got.shape == (5,) and got.dtype == bool
    assert got.tolist() == [True, False, False, True, True]
    assert got.tolist() == [mc.is_projection(m) for m in stack]
    assert mc.is_projection(p) is True and mc.is_projection(0.5 * p) is False
    assert mc.is_projection(stack.reshape(5, 1, 3, 3)).shape == (5, 1)


def clustered(a):
    return mc.cluster_eigendata(*mc.eig_hermitian(a))


def assert_resolves(clusters, a, tol):
    """Projections that pass ``is_projection``, are pairwise orthogonal and
    sum to I, with multiplicities summing to n and sum(lambda P) = A."""
    n = a.shape[0]
    ps = [c.projection for c in clusters]
    assert all(mc.is_projection(p) for p in ps)
    for i, p in enumerate(ps):
        for q in ps[i + 1:]:
            assert mc.frobenius(p @ q) <= 1e-10
    assert mc.frobenius(sum(ps) - np.eye(n)) <= 1e-10
    assert sum(c.multiplicity for c in clusters) == n
    assert mc.frobenius(sum(c.eigenvalue * c.projection for c in clusters) - a) <= tol


def test_cluster_degenerate_diagonal():
    a = np.diag([0.5, 0.5, 0.25])
    clusters = clustered(a)
    assert len(clusters) == 2
    by_val = {round(c.eigenvalue, 6): c.multiplicity for c in clusters}
    assert by_val == {0.5: 2, 0.25: 1}
    assert_resolves(clusters, a, 1e-10)


def test_cluster_identity_single_cluster():
    clusters = PositiveOperator(np.eye(4)).clusters
    assert len(clusters) == 1
    assert clusters[0].multiplicity == 4


def test_cluster_merges_tiny_gap():
    clusters = clustered(np.diag([1.0, 1.0 + 1e-15]))
    assert len(clusters) == 1
    assert clusters[0].multiplicity == 2


def test_cluster_projections_validate_on_random_input():
    a = random_hermitian(6, 9)
    assert_resolves(clustered(a), a, 1e-10 * mc.frobenius(a))


@pytest.mark.parametrize("c", [1e-11, 1.0, 1e11])
def test_clusters_are_scale_free(c):
    # the merge threshold is SPEC_TOL ||A||_2 with no floor at 1: the two
    # eigenvalues of 1e-11 diag(1, 2) once merged into one cluster
    a = c * np.diag([1.0, 2.0])
    clusters = PositiveOperator(a).clusters
    assert [k.multiplicity for k in clusters] == [1, 1]
    assert_resolves(clusters, a, 1e-10 * mc.frobenius(a))


# ----------------------------- functional calculus: PositiveOperator powers

def test_spectral_sqrt():
    out = PositiveOperator(np.diag([1.0, 4.0])).sqrt()
    assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-13)


def test_spectral_power_fixes_projection():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    p = mc.rank_one(v, v)
    out = PositiveOperator(p).pseudo_power(0.7)
    assert np.allclose(out, p, atol=1e-12)


def test_spectral_square():
    out = PositiveOperator(np.diag([0.25, 0.75])).pseudo_power(2.0)
    assert np.allclose(out, np.diag([1.0 / 16.0, 9.0 / 16.0]), atol=1e-14)


def test_spectral_fn_homomorphism():
    a = random_hermitian(4, 11)
    a = PositiveOperator(a @ a.conj().T)  # PSD so fractional powers are defined
    lhs = a.pseudo_power(2.5)
    rhs = a.pseudo_power(0.5) @ a.pseudo_power(2.0)
    assert mc.frobenius(lhs - rhs) <= 1e-9 * max(1.0, mc.frobenius(lhs))


def test_spectral_fn_unitary_covariance():
    rng = SeededRng(21)
    a = random_positive_definite(4, 10.0, rng).matrix
    u = haar_unitary(4, rng)
    lhs = PositiveOperator(u @ a @ u.conj().T).sqrt()
    rhs = u @ PositiveOperator(a).sqrt() @ u.conj().T
    assert mc.frobenius(lhs - rhs) <= 1e-9


# ------------------------------------- support projection and support basis

def test_support_projection_diagonal():
    op = PositiveOperator(np.diag([0.5, 0.5, 0.0]))
    assert op.rank == 2
    assert np.allclose(op.support_projection, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_support_projection_rank_one():
    x = np.array([1.0, 1.0j]) / np.sqrt(2)
    op = PositiveOperator(mc.rank_one(x, x))
    assert op.rank == 1
    assert np.allclose(op.support_projection, mc.rank_one(x, x), atol=1e-12)


def test_support_projection_definite_is_identity():
    rng = SeededRng(4)
    op = PositiveOperator(random_positive_definite(3, 5.0, rng).matrix)
    assert op.rank == 3
    assert np.allclose(op.support_projection, np.eye(3), atol=1e-10)


def test_support_projection_rejects_indefinite():
    with pytest.raises(ValueError):
        PositiveOperator(np.diag([1.0, -0.5]))


def test_support_compresses_itself():
    a = np.diag([0.5, 0.5, 0.0])
    p = PositiveOperator(a).support_projection
    assert mc.frobenius(p @ a @ p - a) <= 1e-12


def compress(a, p):
    """V* A V with V the support basis of the projection P."""
    v = PositiveOperator(p).support_basis
    return v.conj().T @ a @ v


def test_compress_identity_projection():
    a = random_hermitian(3, 5)
    assert np.allclose(compress(a, np.eye(3)), a)


def test_compress_diagonal():
    out = compress(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 0.0]))
    assert np.allclose(sorted(np.diag(out).real), [1.0, 2.0])
    assert out.shape == (2, 2)


def test_compress_preserves_trace_of_pap():
    rng = np.random.default_rng(8)
    a = random_hermitian(4, 13)
    v = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
    p = v @ v.conj().T
    pap = p @ a @ p
    compressed = compress(pap, p)
    assert np.trace(compressed) == pytest.approx(np.trace(pap), abs=1e-10)


# ------------------------------------------------------------- rank_one

def test_rank_one_basis():
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(mc.rank_one(e1, e1), np.diag([1.0, 0.0, 0.0]))


def test_rank_one_trace_is_inner_product():
    rng = np.random.default_rng(2)
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    y = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.trace(mc.rank_one(x, y)) == pytest.approx(np.vdot(y, x))


def test_rank_one_left_multiplication_rule():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    y = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.allclose(a @ mc.rank_one(x, y), mc.rank_one(a @ x, y))


def test_rank_one_dimension_mismatch():
    with pytest.raises(ValueError):
        mc.rank_one(np.ones(2), np.ones(3))


def test_rank_one_broadcasts_over_stacks():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    got = mc.rank_one(x, y)
    assert got.shape == (5, 3, 3)
    for k in range(5):
        assert np.array_equal(got[k], np.outer(x[k], y[k].conj()))
        assert np.array_equal(got[k], mc.rank_one(x[k], y[k]))


# ------------------------------------------------------------ from_spectrum

@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_from_spectrum_stack_matches_members_and_the_inline_formulas(n):
    rng = SeededRng(31 + n)
    u = haar_unitary(n, rng, count=4)
    w = np.random.default_rng(n).normal(size=(4, n))
    stack = mc.from_spectrum(w, u)
    # the stack formula of the sampler, then one member as pseudo_power wrote it
    herm = mc.hermitian_part
    assert np.array_equal(stack, herm((u * w[..., None, :]) @ u.conj().swapaxes(-1, -2)))
    for k in range(4):
        one = mc.from_spectrum(w[k], u[k])
        assert np.array_equal(stack[k], one)
        assert np.array_equal(one, herm((u[k] * w[k]) @ u[k].conj().T))
    # ones on columns: a column slice as clusters took it, and a masked copy
    # as support_projection took it
    for j in range(n + 1):
        block = u[0][:, j:]
        assert np.array_equal(mc.from_spectrum(np.ones(n - j), block),
                              herm(block @ block.conj().T))
        cols = u[0][:, np.arange(n) % 2 == j % 2]
        assert np.array_equal(mc.from_spectrum(np.ones(cols.shape[1]), cols),
                              herm(cols @ cols.conj().T))


def test_hermitian_part_adds_first_and_halves_first_only_where_the_sum_overflows():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    # in the normal range both orders give the same bits
    half = 0.5 * a
    assert np.array_equal(mc.hermitian_part(a), half + half.conj().swapaxes(-1, -2))
    # subnormal sums are exact: an odd number of units halves exactly
    t = 2.0 ** -1074
    sub = np.array([[3 * t, 5 * t + 1j * t], [7 * t - 3j * t, t]])
    want = np.array([[3 * t, 6 * t + 2j * t], [6 * t - 2j * t, t]])
    assert np.array_equal(mc.hermitian_part(sub), want)
    # an overflowing sum is halved first; the other entries are not
    big = np.array([[1e308, 1.7e308 + 3j * t], [1.7e308 - 1j * t, 5 * t]])
    got = mc.hermitian_part(big)
    assert np.array_equal(got, [[1e308, 1.7e308 + 2j * t], [1.7e308 - 2j * t, 5 * t]])


# ------------------------------------------------------------ superoperator

def apply_superop(s, t):
    """Act with a superoperator matrix on T through column-major vecs."""
    n = t.shape[0]
    return (s @ mc.vec(t)).reshape((n, n), order="F")


def test_superop_identity():
    s = mc.superop_lr(np.eye(2), np.eye(2))
    assert np.allclose(s, np.eye(4))


def test_superop_left_action():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = mc.superop_lr(a, np.eye(3))
    assert np.allclose(apply_superop(s, t), a @ t)


def test_superop_matches_sandwich_exactly_on_integers():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[5, 6], [7, 8]], dtype=complex)
    t = np.array([[1, 0], [2, 1]], dtype=complex)
    s = mc.superop_lr(a, b)
    assert np.array_equal(apply_superop(s, t), a @ t @ b)


def test_superop_eigenvalues_are_products():
    rng = np.random.default_rng(12)
    for _ in range(3):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = m @ m.conj().T
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = m @ m.conj().T
        s = mc.superop_lr(a, b)
        got = np.sort(np.linalg.eigvalsh(s))
        ea = np.linalg.eigvalsh(a)
        eb = np.linalg.eigvalsh(b)
        want = np.sort([x * y for x in ea for y in eb])
        assert np.allclose(got, want, atol=1e-10)


def test_superop_commutation():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    left = mc.superop_lr(a, np.eye(2))
    right = mc.superop_lr(np.eye(2), b)
    assert mc.frobenius(left @ right - right @ left) <= 1e-10


# --------------------------------------------------- trace similarity lemma

@pytest.mark.parametrize("hname", ["sqrt", "square", "ratio"])
def test_trace_function_similarity_identity(hname):
    h = {"sqrt": power_fn(0.5), "square": power_fn(2), "ratio": bounded_ratio_fn()}[hname]
    rng = SeededRng(55)
    for _ in range(10):
        a = random_positive_definite(3, 10.0, rng)
        v = random_unit_vector(3, rng)
        b = PositiveOperator(0.7 * mc.rank_one(v, v) + 0.3 * np.eye(3))
        bab = b.matrix @ a.matrix @ b.matrix
        sa = a.sqrt()
        other = sa @ b.matrix @ b.matrix @ sa
        t1 = sum(h(x) for x in np.clip(mc.eig_hermitian(bab)[0], 0, None))
        t2 = sum(h(x) for x in np.clip(mc.eig_hermitian(other)[0], 0, None))
        assert abs(t1 - t2) <= 1e-9 * max(1.0, abs(t1))
