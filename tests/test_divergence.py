import math

import numpy as np
import pytest

import qdiv.divergence as dv
import qdiv.matrixcore as mc
from qdiv.divergence import (
    NonFiniteResultError,
    d_fg,
    d_fg_limit_probe,
    f_divergence,
    f_divergence_superop,
    make_divergence,
    renyi_traditional,
    sandwiched_core,
    sandwiched_renyi,
    support_contains,
    supports_orthogonal,
    umegaki,
)
from qdiv.functions import DomainError, bounded_ratio_fn, linear_fn, power_fn, \
    spec_from_name, xlogx_fn
from qdiv.maps import StateMap
from qdiv.operators import DensityOperator, PositiveOperator, ValidationError
from qdiv.preserver import invariance_pairs
from qdiv.sampling import SeededRng, haar_unitary, random_antiunitary, \
    random_density, random_positive_definite


def diag_density(values):
    return DensityOperator(np.diag(values))


# -------------------------------------------------- commuting scalar oracles
# Independent reductions over eigenvalue lists for simultaneously diagonal
# operators; these never touch the matrix code paths.

def scalar_fdiv(a, b, f, gamma):
    total = 0.0
    for ak, bk in zip(a, b):
        if bk > 0.0:
            total += bk * f(ak / bk)
        elif ak > 0.0:
            if gamma == math.inf:
                return math.inf
            total += gamma * ak
    return total


def scalar_umegaki(a, b):
    if any(ak > 0.0 and bk == 0.0 for ak, bk in zip(a, b)):
        return math.inf
    return sum(ak * (math.log(ak) - math.log(bk)) for ak, bk in zip(a, b) if ak > 0.0)


def scalar_renyi(a, b, alpha):
    if alpha < 1.0 and all(ak == 0.0 or bk == 0.0 for ak, bk in zip(a, b)):
        return math.inf
    if alpha > 1.0 and any(ak > 0.0 and bk == 0.0 for ak, bk in zip(a, b)):
        return math.inf
    t = sum(ak**alpha * bk ** (1.0 - alpha) for ak, bk in zip(a, b) if ak > 0.0 and bk > 0.0)
    return math.log(t) / (alpha - 1.0)


def scalar_sand_core(a, b, alpha):
    if alpha > 1.0 and any(ak > 0.0 and bk == 0.0 for ak, bk in zip(a, b)):
        return math.inf
    return sum(ak**alpha * bk ** (1.0 - alpha) for ak, bk in zip(a, b) if ak > 0.0 and bk > 0.0)


def scalar_sandwiched(a, b, alpha):
    core = scalar_sand_core(a, b, alpha)
    if core == math.inf:
        return math.inf
    if alpha < 1.0 and core == 0.0:
        return math.inf
    return math.log(core / sum(a)) / (alpha - 1.0)


def scalar_dfg(a, b, f, g):
    return sum(g(f(bk) ** 2 * ak) for ak, bk in zip(a, b) if bk > 0.0)


# ----------------------------------------------------------- f_divergence

def test_fdiv_on_equal_arguments():
    rng = SeededRng(1)
    a = random_density(3, 3, rng)
    # f(1) = 0 makes every term vanish
    for f in (xlogx_fn(), linear_fn(0.5)):
        assert abs(float(f_divergence(a, a, f))) < 1e-12
    # otherwise the double sum collapses to f(1) * tr B
    assert float(f_divergence(a, a, power_fn(2))) == pytest.approx(1.0, abs=1e-10)


def test_fdiv_square_on_diagonals():
    a = diag_density([0.5, 0.5])
    b = diag_density([0.25, 0.75])
    assert float(f_divergence(a, b, power_fn(2))) == pytest.approx(4.0 / 3.0, abs=1e-12)


def seeded_mixed_rank_pair(seed):
    """Mixed-rank densities; odd seeds put supp A inside a singular supp B."""
    rng = SeededRng(seed)
    n = 2 + seed % 3
    b = random_density(n, rng.integer(1, n), rng)
    if seed % 2:
        basis = b.support_basis
        inner = random_density(b.rank, b.rank, rng).matrix
        return DensityOperator(basis @ inner @ basis.conj().T), b
    return random_density(n, rng.integer(1, n), rng), b


XLOGX_PAIRS = {
    "diag-log2": lambda: (diag_density([1.0, 0.0]), diag_density([0.5, 0.5])),
    # B keeps its eigenvalue 5e-11, so supp A (e1, e3) is not inside supp B
    "kept-tiny-eigenvalue": lambda: (diag_density([0.5, 0.0, 0.5]),
                                     diag_density([1.0 - 5e-11, 5e-11, 0.0])),
    **{f"seed{k}": (lambda k=k: seeded_mixed_rank_pair(k)) for k in range(12)},
}


@pytest.mark.parametrize("pair", sorted(XLOGX_PAIRS))
def test_fdiv_xlogx_matches_relative_entropy(pair):
    a, b = XLOGX_PAIRS[pair]()
    got = f_divergence(a, b, xlogx_fn())
    want = umegaki(a, b)
    assert got.is_inf == want.is_inf
    if want.is_finite:
        assert float(got) == pytest.approx(float(want), abs=1e-10)
    if pair == "diag-log2":
        assert float(got) == pytest.approx(math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("seed,rank_b", [(3, 2), (5, 3)])
def test_fdiv_scales_linearly_at_tiny_scale(seed, rank_b):
    rng = SeededRng(seed)
    a = random_density(3, 3, rng)
    b = random_density(3, rank_b, rng)
    f = xlogx_fn()
    plain = f_divergence(a, b, f)
    for c in (1e-10, 1e-11):
        scaled = f_divergence(PositiveOperator(c * a.matrix), PositiveOperator(c * b.matrix), f)
        assert scaled.is_inf == plain.is_inf
        if plain.is_finite:
            assert float(scaled) / c == pytest.approx(float(plain), rel=1e-9)


def test_fdiv_gamma_term_hits_infinity():
    # supp A outside supp B and f with infinite slope at infinity
    a = diag_density([1.0, 0.0])
    b = diag_density([0.0, 1.0])
    assert f_divergence(a, b, power_fn(2)).is_inf


def test_fdiv_gamma_term_finite_slope():
    a = diag_density([1.0, 0.0])
    b = diag_density([0.0, 1.0])
    # f(t) = c(t-1): gamma = c, so the kernel term contributes c * 1
    got = float(f_divergence(a, b, linear_fn(2.0)))
    want = scalar_fdiv([1.0, 0.0], [0.0, 1.0], linear_fn(2.0), 2.0)
    assert got == pytest.approx(want, abs=1e-12)


def test_fdiv_f_diverging_at_zero_needs_supp_b_inside_supp_a():
    f = power_fn(-1)  # f(0+) = +inf, gamma = 0
    assert f_divergence(diag_density([1.0, 0.0]), diag_density([0.5, 0.5]), f).is_inf
    # supp B inside supp A: only the pair (1/2, 1) meets, giving 1 * f(1/2)
    got = f_divergence(diag_density([0.5, 0.5]), diag_density([1.0, 0.0]), f)
    assert float(got) == pytest.approx(2.0, abs=1e-12)


def test_fdiv_requires_gamma():
    from qdiv.functions import ScalarFunctionSpec

    bare = ScalarFunctionSpec(name="bare", fn=lambda t: t * t, limit_at_zero=0.0)
    with pytest.raises(DomainError):
        f_divergence(diag_density([0.5, 0.5]), diag_density([0.5, 0.5]), bare)


def test_fdiv_commuting_oracle_random_diagonals():
    rng = np.random.default_rng(5)
    for f, gamma in ((power_fn(2), math.inf), (xlogx_fn(), math.inf),
                     (power_fn(0.5), 0.0), (linear_fn(-3.0), -3.0)):
        for _ in range(5):
            a = rng.dirichlet(np.ones(3))
            b = rng.dirichlet(np.ones(3))
            got = float(f_divergence(diag_density(a), diag_density(b), f))
            want = scalar_fdiv(a, b, f, gamma)
            assert got == pytest.approx(want, abs=1e-10)


# ----------------------------------------------------- dual-path cross-check

@pytest.mark.parametrize("fname", ["square", "sqrt", "xlogx"])
def test_fdiv_superop_agrees_with_spectral_sum(fname):
    f = {"square": power_fn(2), "sqrt": power_fn(0.5), "xlogx": xlogx_fn()}[fname]
    rng = SeededRng(11)
    for i in range(10):
        n = 2 + i % 2
        a = random_density(n, 1 + i % n, rng)
        b = random_positive_definite(n, 8.0, rng)
        direct = float(f_divergence(a, b, f))
        via_superop = f_divergence_superop(a, b, f)
        assert via_superop == pytest.approx(direct, abs=1e-8)


def test_fdiv_superop_rejects_singular():
    with pytest.raises(ValidationError):
        f_divergence_superop(diag_density([0.5, 0.5]), diag_density([1.0, 0.0]),
                             power_fn(2))


def test_fdiv_superop_self_zero():
    a = diag_density([0.25, 0.75])
    f = xlogx_fn()
    assert f_divergence_superop(a, a, f) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("fname", ["power:0.5", "xlogx"])
def test_fdiv_superop_bound_that_overflows_raises_the_typed_error(fname):
    # ||A|| ||B^-1|| = 1e154 * 1.8e154 overflows, though every entry of
    # L_A R_{B^-1} is finite; snapping against that inf bound zeroed the
    # spectrum, and the route returned 0.0
    a = 5e153 * np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.linalg.inv(6e153 * np.array([[2.0, 1.0], [1.0, 2.0]]))
    f = spec_from_name(fname)
    assert float(f_divergence(a, b, f)) > 0.7
    with pytest.raises(NonFiniteResultError):
        f_divergence_superop(a, b, f)


def test_fdiv_superop_product_that_overflows_raises_the_typed_error():
    # L_A R_{B^-1} = 1e600 I overflows to inf in every diagonal entry
    with pytest.raises(NonFiniteResultError):
        f_divergence_superop(1e300 * np.eye(2), 1e-300 * np.eye(2), power_fn(2))


def test_fdiv_matches_its_own_epsilon_limit():
    # The double sum is the closed form of lim_{eps->0} of the superoperator
    # value at B + eps I; check both finite-slope and infinite-slope cases
    # on a singular, non-commuting pair.
    rng = SeededRng(88)
    b = random_density(3, 2, rng)
    a = random_density(3, 3, rng)
    eps = 1e-8

    def at_eps(f):
        return f_divergence_superop(
            a, PositiveOperator(b.matrix + eps * np.eye(3)), f)

    f = power_fn(0.5)  # slope at infinity 0: kernel term drops out
    assert at_eps(f) == pytest.approx(float(f_divergence(a, b, f)), abs=1e-3)
    f = linear_fn(2.0)  # slope 2: kernel term keeps the total at c(trA - trB)
    assert at_eps(f) == pytest.approx(float(f_divergence(a, b, f)), abs=1e-4)
    f = power_fn(2)  # infinite slope: the limit diverges like 1/eps
    assert f_divergence(a, b, f).is_inf
    assert at_eps(f) > 1e3
    f = xlogx_fn()  # infinite slope but only log growth
    assert f_divergence(a, b, f).is_inf
    seq = [f_divergence_superop(
        a, PositiveOperator(b.matrix + e * np.eye(3)), f)
        for e in (1e-4, 1e-6, 1e-8, 1e-10)]
    assert all(y > x + 1.0 for x, y in zip(seq, seq[1:]))


def test_fdiv_gamma_term_scales_with_traces():
    # f = c(t-1) collapses the double sum to c (tr A - tr B), which isolates
    # the kernel-overlap term when B is singular
    rng = SeededRng(91)
    a = random_density(3, 3, rng)
    b_raw = 0.7 * random_density(3, 2, rng).matrix
    b = PositiveOperator(b_raw)
    got = float(f_divergence(a, b, linear_fn(2.0)))
    assert got == pytest.approx(2.0 * (1.0 - 0.7), abs=1e-10)


# ----------------------------------------------------------------- umegaki

def test_umegaki_self_is_zero():
    rng = SeededRng(13)
    for n in (2, 3):
        a = random_density(n, n, rng)
        assert abs(float(umegaki(a, a))) < 1e-10


def test_umegaki_commuting_closed_form():
    got = umegaki(diag_density([1.0, 0.0]), diag_density([0.5, 0.5]))
    assert float(got) == pytest.approx(math.log(2.0), abs=1e-12)


def test_umegaki_support_violation_is_infinite():
    assert umegaki(diag_density([0.5, 0.5]), diag_density([1.0, 0.0])).is_inf


def test_umegaki_random_diagonal_oracle():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        got = float(umegaki(diag_density(a), diag_density(b)))
        assert got == pytest.approx(scalar_umegaki(a, b), abs=1e-10)


# ------------------------------------------------------------------- renyi

def test_renyi_self_is_zero():
    rng = SeededRng(19)
    a = random_density(3, 3, rng)
    for alpha in (0.5, 2.0, 3.0):
        assert abs(float(renyi_traditional(a, a, alpha))) < 1e-10


def test_renyi_orthogonal_supports_small_alpha():
    a = diag_density([1.0, 0.0])
    b = diag_density([0.0, 1.0])
    assert renyi_traditional(a, b, 0.5).is_inf


def test_renyi_commuting_oracle():
    rng = np.random.default_rng(23)
    for alpha in (0.5, 2.0, 3.0):
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        got = float(renyi_traditional(diag_density(a), diag_density(b), alpha))
        assert got == pytest.approx(scalar_renyi(a, b, alpha), abs=1e-10)


def test_renyi_rejects_bad_alpha():
    a = diag_density([0.5, 0.5])
    for alpha in (1.0, 0.0, -2.0, math.nan, math.inf, -math.inf):
        for div in (renyi_traditional, sandwiched_renyi, sandwiched_core):
            with pytest.raises(ValueError, match="alpha must lie"):
                div(a, a, alpha)


# --------------------------------------------------------------- sandwiched

def test_sandwiched_core_self_is_trace():
    rng = SeededRng(29)
    for alpha in (0.5, 2.0):
        a = random_density(3, 2, rng)
        assert float(sandwiched_core(a, a, alpha)) == pytest.approx(1.0, abs=1e-10)


def test_sandwiched_core_commuting_oracle():
    rng = np.random.default_rng(31)
    for alpha in (0.5, 2.0, 3.0):
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        got = float(sandwiched_core(diag_density(a), diag_density(b), alpha))
        assert got == pytest.approx(scalar_sand_core(a, b, alpha), abs=1e-10)


def test_sandwiched_core_support_violation():
    a = diag_density([0.5, 0.5])
    b = diag_density([1.0, 0.0])
    assert sandwiched_core(a, b, 2.0).is_inf
    assert sandwiched_core(a, b, 0.5).is_finite


def test_sandwiched_core_orthogonal_supports_is_zero():
    # B^e A B^e vanishes in exact arithmetic; its eigenvalues are pure roundoff
    u = haar_unitary(4, SeededRng(47))
    a = DensityOperator((u * np.array([0.6, 0.4, 0.0, 0.0])) @ u.conj().T)
    b = DensityOperator((u * np.array([0.0, 0.0, 0.3, 0.7])) @ u.conj().T)
    assert float(sandwiched_core(a, b, 0.5)) == 0.0
    assert float(sandwiched_core(PositiveOperator(1e-9 * a.matrix), b, 0.5)) == 0.0


def test_sandwiched_self_is_zero():
    rng = SeededRng(37)
    for alpha in (0.5, 2.0, 3.0):
        a = random_density(4, 4, rng)
        assert abs(float(sandwiched_renyi(a, a, alpha))) < 1e-10


def test_sandwiched_scaling_invariance():
    rng = SeededRng(41)
    a = random_density(2, 2, rng)
    b = random_density(2, 2, rng)
    for c in (3.7, 1e-6, 1e-8, 1e-14):
        for alpha in (0.5, 2.0):
            plain = float(sandwiched_renyi(a, b, alpha))
            scaled = float(sandwiched_renyi(
                PositiveOperator(c * a.matrix), PositiveOperator(c * b.matrix), alpha))
            assert scaled == pytest.approx(plain, abs=1e-9)


def test_sandwiched_orthogonal_rank_one_pair():
    a = DensityOperator(mc.rank_one([1.0, 0.0], [1.0, 0.0]))
    b = DensityOperator(mc.rank_one([0.0, 1.0], [0.0, 1.0]))
    assert sandwiched_renyi(a, b, 0.5).is_inf


def test_sandwiched_support_dichotomy_matches_ranks():
    rng = SeededRng(43)
    for _ in range(20):
        a = random_density(3, 1 + rng.integer(0, 2), rng)
        b = random_density(3, 1 + rng.integer(0, 2), rng)
        val = sandwiched_renyi(a, b, 2.0)
        assert val.is_finite == support_contains(b, a)


def test_sandwiched_rejects_zero_operator():
    zero = PositiveOperator(np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        sandwiched_renyi(zero, PositiveOperator(np.eye(2)), 2.0)


def test_sandwiched_commuting_oracle():
    rng = np.random.default_rng(47)
    for alpha in (0.5, 2.0):
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        got = float(sandwiched_renyi(diag_density(a), diag_density(b), alpha))
        assert got == pytest.approx(scalar_sandwiched(a, b, alpha), abs=1e-10)


def test_sandwiched_n8_smoke():
    rng = SeededRng(53)
    a = random_density(8, 8, rng)
    b = random_density(8, 8, rng)
    u = haar_unitary(8, rng)
    before = float(sandwiched_renyi(a, b, 2.0))
    after = float(sandwiched_renyi(
        DensityOperator(u @ a.matrix @ u.conj().T),
        DensityOperator(u @ b.matrix @ u.conj().T), 2.0))
    assert after == pytest.approx(before, abs=1e-9)


# ------------------------------------------- kernels against numpy's eigh
# The sandwich and overlap kernels checked against n x n pseudo-power
# products built here from numpy.linalg.eigh, with the +inf verdicts taken
# from eigh support projectors: a route that shares no code with qdiv.

def _eigh_fn(m, fn):
    """fn applied to the eigenvalues of m above 1e-12 ||m||; 0 elsewhere."""
    w, v = np.linalg.eigh(m)
    keep = w > 1e-12 * w[-1]
    return (v[:, keep] * fn(w[keep])) @ v[:, keep].conj().T


def _eigh_verdicts(a, b):
    """(supp A <= supp B, supp A orthogonal to supp B) from eigh projectors."""
    pa = _eigh_fn(a, np.ones_like)
    pb = _eigh_fn(b, np.ones_like)
    overlap = np.trace(pa @ pb).real
    return np.trace(pa).real - overlap < 1e-8, overlap < 1e-8


def _numpy_density(cols, rank, rng):
    """Density of the given rank with support inside span(cols)."""
    shape = (cols.shape[1], rank)
    basis = cols @ np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
    m = (basis * rng.dirichlet(np.ones(rank))) @ basis.conj().T
    return 0.5 * (m + m.conj().T)


@pytest.mark.parametrize("layout", ["independent", "nested", "orthogonal"])
def test_kernels_match_eigh_pseudo_powers(layout):
    rng = np.random.default_rng(71)
    for trial in range(8):
        n = 3 + trial % 3
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u = np.linalg.qr(z)[0]
        rb = int(rng.integers(2, n))  # B is singular, of rank at least 2
        b = _numpy_density(u[:, :rb], rb, rng)
        if layout == "independent":
            a = _numpy_density(np.eye(n), int(rng.integers(1, n + 1)), rng)
        elif layout == "nested":
            a = _numpy_density(u[:, :rb], int(rng.integers(1, rb + 1)), rng)
        else:
            a = _numpy_density(u[:, rb:], int(rng.integers(1, n - rb + 1)), rng)
        contained, orthogonal = _eigh_verdicts(a, b)
        da, db = DensityOperator(a), DensityOperator(b)

        for alpha in (0.5, 2.0, 3.0):
            bp = _eigh_fn(b, lambda w, e=(1.0 - alpha) / (2.0 * alpha): w**e)
            s = np.linalg.eigvalsh(bp @ a @ bp)
            bound = np.linalg.norm(bp, 2) ** 2 * np.linalg.norm(a, 2)
            want = math.inf if alpha > 1.0 and not contained else \
                float(np.sum(s[s > 1e-12 * bound] ** alpha))
            got = sandwiched_core(da, db, alpha)
            assert got.is_inf == (want == math.inf)
            if got.is_finite:
                assert got.value == pytest.approx(want, rel=1e-9, abs=1e-12)

            t = np.trace(_eigh_fn(a, lambda w: w**alpha)
                         @ _eigh_fn(b, lambda w: w ** (1.0 - alpha))).real
            inf = orthogonal if alpha < 1.0 else not contained
            got = renyi_traditional(da, db, alpha)
            assert got.is_inf == inf
            if not inf:
                assert got.value == pytest.approx(math.log(t) / (alpha - 1.0),
                                                  rel=1e-9, abs=1e-12)

        got = umegaki(da, db)
        assert got.is_inf == (not contained)
        if contained:
            want = np.trace(a @ (_eigh_fn(a, np.log) - _eigh_fn(b, np.log))).real
            assert got.value == pytest.approx(want, rel=1e-9, abs=1e-12)


# -------------------------------------------------------------------- d_fg

def test_dfg_specializes_to_sandwiched_core():
    rng = SeededRng(59)
    for alpha in (0.25, 0.5, 2.0, 3.0):
        e = (1.0 - alpha) / (2.0 * alpha)
        f, g = power_fn(e), power_fn(alpha)
        for _ in range(5):
            a = random_density(3, 1 + rng.integer(0, 2), rng)
            b = random_density(3, 1 + rng.integer(0, 2), rng)
            lhs = d_fg(a, b, f, g)
            rhs = sandwiched_core(a, b, alpha)
            assert lhs.is_inf == rhs.is_inf
            if lhs.is_finite:
                assert lhs.value == pytest.approx(rhs.value, abs=1e-9)


def test_dfg_rank_one_pair_closed_form():
    rng = SeededRng(61)
    f, g = power_fn(0.5), power_fn(2)
    for _ in range(5):
        p = random_density(3, 1, rng)
        q = random_density(3, 1, rng)
        overlap = mc.hs_inner(p.matrix, q.matrix).real
        want = g(f(1.0) ** 2 * overlap)
        assert float(d_fg(p, q, f, g)) == pytest.approx(want, abs=1e-10)


def test_dfg_zero_product_gives_zero():
    a = diag_density([1.0, 0.0, 0.0])
    b = DensityOperator(np.diag([0.0, 0.5, 0.5]))
    assert float(d_fg(a, b, power_fn(0.5), power_fn(2))) == pytest.approx(0.0, abs=1e-14)


def test_dfg_commuting_oracle():
    rng = np.random.default_rng(67)
    f, g = power_fn(0.5), power_fn(2)
    a = rng.dirichlet(np.ones(3))
    b = rng.dirichlet(np.ones(3))
    got = float(d_fg(diag_density(a), diag_density(b), f, g))
    assert got == pytest.approx(scalar_dfg(a, b, f, g), abs=1e-10)


def test_dfg_requires_g_zero():
    with pytest.raises(DomainError):
        d_fg(diag_density([0.5, 0.5]), diag_density([0.5, 0.5]),
             power_fn(1), linear_fn(1.0))


def test_dfg_requires_declared_limit_for_singular():
    from qdiv.functions import ScalarFunctionSpec

    opaque = ScalarFunctionSpec(name="opaque", fn=lambda t: t)
    with pytest.raises(DomainError):
        d_fg(diag_density([0.5, 0.5]), diag_density([1.0, 0.0]),
             opaque, power_fn(2))


def test_dfg_case_two_needs_unbounded_increasing_g():
    from qdiv.functions import bounded_ratio_fn

    a = diag_density([0.5, 0.5])
    b = diag_density([1.0, 0.0])
    with pytest.raises(DomainError):
        d_fg(a, b, power_fn(-1), bounded_ratio_fn())


def test_dfg_finite_nonzero_limit_rejected_for_singular():
    a = diag_density([0.5, 0.5])
    b = diag_density([1.0, 0.0])
    with pytest.raises(DomainError):
        d_fg(a, b, power_fn(0), power_fn(2))


def test_dfg_case_two_support_split():
    f, g = power_fn(-0.5), power_fn(2)
    inside = diag_density([1.0, 0.0])
    outside = diag_density([0.5, 0.5])
    b = diag_density([1.0, 0.0])
    assert d_fg(inside, b, f, g).is_finite
    assert d_fg(outside, b, f, g).is_inf


# -------------------------------------------------------------- limit probe

def test_probe_constant_for_definite_b():
    rng = SeededRng(71)
    a = random_density(3, 3, rng)
    b = random_density(3, 3, rng)
    f, g = power_fn(0.5), power_fn(2)
    values, estimate = d_fg_limit_probe(a, b, f, g, np.geomspace(1e-1, 1e-8, 8))
    closed = float(d_fg(a, b, f, g))
    assert estimate.is_finite
    assert estimate.value == pytest.approx(closed, abs=1e-8)


def test_probe_converges_on_singular_case_one():
    rng = SeededRng(73)
    f, g = power_fn(1), power_fn(2)
    b = random_density(3, 2, rng)
    a = random_density(3, 3, rng)
    values, estimate = d_fg_limit_probe(a, b, f, g, np.geomspace(1e-1, 1e-8, 8))
    closed = float(d_fg(a, b, f, g))
    assert estimate.value == pytest.approx(closed, abs=1e-6)


def test_probe_flags_divergence_in_case_two():
    f, g = power_fn(-0.5), power_fn(2)
    a = diag_density([0.5, 0.5])
    b = diag_density([1.0, 0.0])
    values, estimate = d_fg_limit_probe(a, b, f, g, np.geomspace(1e-1, 1e-8, 8))
    assert estimate.is_inf
    assert values[-1] > 1e12


def test_probe_rejects_bad_schedule():
    a = diag_density([0.5, 0.5])
    with pytest.raises(ValueError):
        d_fg_limit_probe(a, a, power_fn(1), power_fn(2), [1e-3, 1e-2])
    with pytest.raises(ValueError):
        d_fg_limit_probe(a, a, power_fn(1), power_fn(2), [])
    # a NaN step once read as rank 0, an empty trace of value 0.0, and an inf
    # step raised NonFiniteResultError (a ValueError) as an overflow
    for step in (math.nan, math.inf):
        for schedule in ([step], [1e-1, step, 1e-3]):
            with pytest.raises(ValueError, match="positive finite numbers"):
                d_fg_limit_probe(a, diag_density([1.0, 0.0]), power_fn(1), power_fn(2),
                                 schedule)


# ----------------------------------------------- conjugation invariance

def test_invariance_under_unitary_and_antiunitary():
    rng = SeededRng(79)
    n = 3
    u = haar_unitary(n, rng)
    anti = random_antiunitary(n, rng)
    divergences = [
        make_divergence("umegaki"),
        make_divergence("renyi", alpha=2),
        make_divergence("sandwiched", alpha=0.5),
        make_divergence("sandwiched", alpha=3),
        make_divergence("fdiv", f=power_fn(2)),
        make_divergence("dfg", f=power_fn(0.5), g=power_fn(2)),
    ]
    umap = StateMap.unitary_conjugation(u)
    for _ in range(5):
        a = random_density(n, 1 + rng.integer(0, 2), rng)
        b = random_density(n, 1 + rng.integer(0, 2), rng)
        for div in divergences:
            before = div(a, b)
            for m in (umap, anti):
                after = div(DensityOperator(m.apply(a.matrix)),
                            DensityOperator(m.apply(b.matrix)))
                assert before.is_inf == after.is_inf
                if before.is_finite:
                    assert after.value == pytest.approx(before.value, abs=1e-9)


def test_supports_orthogonal_helper():
    assert supports_orthogonal(diag_density([1.0, 0.0]), diag_density([0.0, 1.0]))
    assert not supports_orthogonal(diag_density([0.5, 0.5]), diag_density([0.5, 0.5]))


def test_support_verdicts_convert_their_operands():
    assert support_contains(np.eye(2), np.eye(2))
    assert support_contains(np.eye(2), np.diag([1.0, 0.0]))
    assert not support_contains(np.diag([1.0, 0.0]), np.eye(2))
    assert supports_orthogonal(np.diag([1.0, 0.0]), [[0.0, 0.0], [0.0, 2.0]])
    assert support_contains([np.eye(2)], [np.diag([0.0, 1.0])]).tolist() == [True]
    with pytest.raises(ValidationError):
        support_contains(np.eye(2), -np.eye(2))


@pytest.mark.parametrize("verdict", [support_contains, supports_orthogonal])
def test_support_verdicts_reject_a_dimension_mismatch(verdict):
    with pytest.raises(ValueError, match="dimension mismatch"):
        verdict(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        verdict([np.eye(2), np.eye(2)], [np.eye(2), np.eye(3)])


def test_make_divergence_unknown_tag():
    with pytest.raises(KeyError):
        make_divergence("nonsense")
    with pytest.raises(KeyError):
        make_divergence("renyi")
    with pytest.raises(KeyError):
        make_divergence("dfg", f=power_fn(1))


@pytest.mark.parametrize("tag, params", [
    ("umegaki", {"alpha": 2}),
    ("renyi", {"alpha": 2, "f": "xlogx"}),
    ("sandwiched", {"alpha": 2, "g": "power:2"}),
    ("sandwiched-core", {"alpha": 0.5, "f": power_fn(2)}),
    ("fdiv", {"f": "xlogx", "g": "power:2"}),
    ("fdiv", {"f": "xlogx", "alpha": 7}),
    ("dfg", {"f": "power:0.5", "g": "power:2", "alpha": 2}),
])
def test_make_divergence_rejects_a_parameter_the_tag_does_not_take(tag, params):
    with pytest.raises(KeyError, match="takes no"):
        make_divergence(tag, **params)


# the divergence function of each tag, by its name in the module, and the
# parameters the tag takes
TAG_FUNCTIONS = {
    "umegaki": ("umegaki", {}),
    "renyi": ("renyi_traditional", {"alpha": 2.0}),
    "sandwiched": ("sandwiched_renyi", {"alpha": 0.5}),
    "sandwiched-core": ("sandwiched_core", {"alpha": 3.0}),
    "fdiv": ("f_divergence", {"f": "xlogx"}),
    "dfg": ("d_fg", {"f": "power:0.5", "g": "power:2"}),
}


@pytest.mark.parametrize("tag", dv.DIVERGENCE_TAGS)
def test_make_divergence_sees_a_later_rebinding_of_the_function(tag, monkeypatch):
    # a tracer wraps the module's names after the callables exist; each call
    # must go through the wrapper
    name, params = TAG_FUNCTIONS[tag]
    div = make_divergence(tag, **params)
    a, b = diag_density([0.5, 0.5]), diag_density([0.25, 0.75])
    want = div(a, b)
    calls = []
    original = getattr(dv, name)

    def wrapper(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(dv, name, wrapper)
    assert repr(div(a, b)) == repr(want)
    assert calls == [(a, b)]


@pytest.mark.parametrize("call", [
    lambda a, b: f_divergence(a, b, xlogx_fn()),
    lambda a, b: f_divergence(a, b, power_fn(-1)),
    umegaki,
    lambda a, b: renyi_traditional(a, b, 2.0),
    lambda a, b: renyi_traditional(a, b, 0.5),
])
def test_petz_type_divergences_form_the_overlaps_once_per_call(call, monkeypatch):
    # W = |U_A* U_B|^2 is one product of the two eigenvector matrices per pair:
    # its support verdicts and its value read the same W
    rng = SeededRng(97)
    pairs = [(random_density(3, r, rng), random_density(3, s, rng))
             for r, s in ((1, 2), (3, 2), (2, 2), (2, 3), (1, 1))]
    reads = []  # one entry per read of an operator's eigenvectors
    prop = PositiveOperator.eigenvectors
    monkeypatch.setattr(PositiveOperator, "eigenvectors", property(
        lambda op: reads.append(op) or prop.fget(op)))
    for x, y in pairs:
        call(x, y)
        assert reads == [x, y]
        reads.clear()
    call([x for x, _ in pairs], [y for _, y in pairs])
    assert len(reads) == 2 * len(pairs)


# ------------------------------------------------- positivity on densities
# D(A||B) >= 0 for density operators: Klein's inequality for Umegaki,
# Müller-Lennert et al. (arXiv:1306.3142) for sandwiched Renyi and Petz
# (Rep. Math. Phys. 23 (1986) 57) for the traditional one.
NONNEGATIVE = [
    lambda a, b: sandwiched_renyi(a, b, 0.5),
    lambda a, b: sandwiched_renyi(a, b, 2.0),
    lambda a, b: renyi_traditional(a, b, 0.5),
    lambda a, b: renyi_traditional(a, b, 2.0),
    umegaki,
]
ROUNDOFF = 64 * np.finfo(float).eps


@pytest.mark.parametrize("div", NONNEGATIVE)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_divergences_of_density_pairs_are_nonnegative(div, n):
    pairs = invariance_pairs(n, n_samples=30, seed=n)
    values = div([a for a, _ in pairs], [b for _, b in pairs])
    assert min(values) >= -ROUNDOFF


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: the flat SUPPORT_TRACE_TOL calls supp A inside supp B "
    "at sin^2 = 1e-8, so alpha = 2 takes a finite branch and goes negative"))
@pytest.mark.parametrize("div", [sandwiched_renyi, renyi_traditional])
def test_nearly_contained_supports_keep_the_divergence_nonnegative(div):
    # A = diag(1, 0), B = yy*/|y|^2 with y = (1, 1e-4): the value at alpha = 2
    # is +inf, and the flat tolerance gives -2.0e-8 (sandwiched), -1.0e-8 (Petz)
    y = np.array([1.0, 1e-4])
    b = DensityOperator(np.outer(y, y) / (y @ y))
    assert div(diag_density([1.0, 0.0]), b, 2.0) >= -ROUNDOFF


# ------------------------------------ log-domain Renyi and the finite gate
# Definite pairs whose values a float holds, though intermediate powers
# (1e-9^-49, s^50, (1e160)^2) do not.
HALF = np.diag([0.5, 0.5])
SKEWED = np.diag([1.0 - 1e-9, 1e-9])
TINY = 1e-160 * np.diag([1.0, 0.5])


def test_alpha_50_on_a_definite_pair_is_finite():
    # both traces are 0.5^50 (1-1e-9)^-49 + 0.5^50 (1e-9)^-49 in closed form
    want = (50 * math.log(0.5) + 49 * 9 * math.log(10.0)
            + math.log1p((1e-9 / (1.0 - 1e-9)) ** 49)) / 49
    assert want == pytest.approx(20.0159727956, abs=1e-10)
    for div in (renyi_traditional, sandwiched_renyi):
        assert float(div(HALF, SKEWED, 50)) == pytest.approx(want, rel=1e-12)


def test_sandwiched_on_a_tiny_second_operand_is_finite():
    # D(A || cB) = D(A || B) - log c
    want = float(sandwiched_renyi(HALF, TINY / 1e-160, 3)) + 160 * math.log(10.0)
    got = float(sandwiched_renyi(HALF, TINY, 3))
    assert got == pytest.approx(368.178613064, abs=1e-9)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("c", [1e308, 1e-320])
def test_sandwiched_at_the_ends_of_the_float_range_is_finite(c):
    # D(c I || I/2) = log(2c) at n = 2; 1e-320 is subnormal
    for alpha in (0.5, 2.0):
        got = float(sandwiched_renyi(PositiveOperator(c * np.eye(2)), HALF, alpha))
        assert got == pytest.approx(math.log(2.0) + math.log(c), rel=1e-12)


def _normal_exponents(*matrices, step=61):
    """k on a grid for which 2^k times each nonzero entry stays normal."""
    parts = np.abs(np.concatenate([np.ravel(m).view(np.float64) for m in matrices]))
    lo, hi = np.frexp(parts[parts > 0.0].min())[1], np.frexp(parts.max())[1]
    return range(-1021 - lo, 1024 - hi, step)


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0, 50.0])
def test_sandwiched_scale_covariance_over_the_exponent_range(alpha):
    # D(2^k A || B) = D(A || B) + k log 2 and D(A || 2^k B) = D(A || B) - k log 2,
    # for k keeping every nonzero entry a normal float
    rng = SeededRng(83)
    pairs = [(HALF, SKEWED),
             (random_positive_definite(3, 10.0, rng).matrix, random_density(3, 3, rng).matrix)]
    for a, b in pairs:
        base = float(sandwiched_renyi(a, b, alpha))
        for k in _normal_exponents(a, b):
            for got, shift in ((sandwiched_renyi(2.0**k * a, b, alpha), k),
                               (sandwiched_renyi(a, 2.0**k * b, alpha), -k)):
                want = base + shift * math.log(2.0)
                assert float(got) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_renyi_scale_covariance_over_the_exponent_range():
    base = float(renyi_traditional(HALF, SKEWED, 50))
    for k in _normal_exponents(HALF, SKEWED):
        for got, shift in ((renyi_traditional(2.0**k * HALF, SKEWED, 50), k),
                           (renyi_traditional(HALF, 2.0**k * SKEWED, 50), -k)):
            want = base + shift * math.log(2.0)
            assert float(got) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_overflow_on_a_finite_branch_raises_the_typed_error():
    big, one = PositiveOperator(1e308 * np.eye(2)), PositiveOperator(np.eye(2))
    cases = [
        # the sum of l^3/m^2 over the diagonal is about 6.25e319
        lambda: f_divergence(HALF, TINY, power_fn(3)),
        lambda: d_fg(big, one, power_fn(0.5), power_fn(2)),
        lambda: sandwiched_core(big, HALF, 2.0),
        lambda: f_divergence(big, HALF, xlogx_fn()),
    ]
    for case in cases:
        with pytest.raises(NonFiniteResultError):
            case()


def test_a_vanished_trace_on_a_finite_branch_raises_the_typed_error(monkeypatch):
    monkeypatch.setattr(dv, "_sandwich_eigs", lambda ops, *args: np.zeros((len(ops), 2)))
    for alpha in (0.5, 2.0):
        with pytest.raises(NonFiniteResultError):
            sandwiched_renyi(HALF, HALF, alpha)
        assert float(sandwiched_core(HALF, HALF, alpha)) == 0.0


def test_inf_comes_only_from_a_support_decision():
    # INF itself, returned by the support split before any arithmetic that
    # would overflow on these pairs
    singular = PositiveOperator(np.diag([1.0, 0.0]))
    assert f_divergence(HALF, singular, power_fn(2)) is dv.INF
    assert sandwiched_renyi(HALF, singular, 50) is dv.INF


def test_limit_probe_overflow_raises_the_typed_error():
    big, one = PositiveOperator(1e200 * np.eye(2)), PositiveOperator(np.eye(2))
    # g(t) = t^2 of the 1e200-sized sandwich overflows
    with pytest.raises(NonFiniteResultError, match="d_fg_limit_probe"):
        d_fg_limit_probe(big, one, power_fn(0.5), power_fn(2), [1e-1, 1e-2])


def test_sandwich_bound_does_not_overflow_before_the_sandwich():
    # f(B) = 1e160 I, so max|f|^2 alone overflows, but the sandwich
    # f(B) A f(B) = 1e150 I and its trace of squares, 2e300, fit a float
    a, b = 1e-170 * np.eye(2), 1e-160 * np.eye(2)
    got = d_fg(a, b, power_fn(-1), power_fn(2))
    assert float(got) == pytest.approx(2e300, rel=1e-14)
    values, _ = d_fg_limit_probe(a, np.zeros((2, 2)), power_fn(-1), power_fn(2),
                                 [1e-100, 1e-160])
    assert values == pytest.approx([2e60, 2e300], rel=1e-14)


def test_a_sandwich_bound_that_overflows_raises_the_typed_error():
    # f(B) = diag(1e140, 1e150) and the sandwich diag(1e290, 1e290) is
    # finite, but its norm bound max|f|^2 ||A|| = 1e300 * 1e10 is not: an
    # overflow, never eigenvalues snapped to 0 against an infinite bound
    a, b = np.diag([1e10, 1e-10]), np.diag([1e-140, 1e-150])
    with pytest.raises(NonFiniteResultError, match="d_fg"):
        d_fg(a, b, power_fn(-1), power_fn(1))
    with pytest.raises(NonFiniteResultError, match="d_fg_limit_probe"):
        d_fg_limit_probe(a, b, power_fn(-1), power_fn(1), [1e-300])


def test_limit_probe_schedule_matches_one_step_at_a_time():
    rng = SeededRng(75)
    a, b = random_density(3, 3, rng), random_density(3, 2, rng)
    f, g = power_fn(1), power_fn(2)
    schedule = list(np.geomspace(1e-1, 1e-8, 8))
    values, _ = d_fg_limit_probe(a, b, f, g, schedule)
    assert all(type(v) is float for v in values)
    for eps, v in zip(schedule, values):
        shifted = PositiveOperator(b.matrix + eps * np.eye(3))
        assert v == pytest.approx(float(d_fg(a, shifted, f, g)), rel=1e-12)


# ------------------------------------------------- declared perspectives

def test_fdiv_perspective_keeps_a_representable_value_finite():
    # l/m = 2^1070 overflows; the value is l log(l/m) = 1070 log 2
    got = f_divergence(np.array([[1.0]]), np.array([[2.0**-1070]]), xlogx_fn())
    assert float(got) == pytest.approx(1070 * math.log(2.0), rel=1e-15)
    # (l/m)^2 overflows; the value is the sum of l^2/m, 7.5e159
    got = f_divergence(HALF, TINY, power_fn(2))
    assert float(got) == pytest.approx(7.5e159, rel=1e-12)
    # l/m underflows; for p = 0.5 the value is sqrt(l m)
    got = f_divergence(np.array([[2.0**-1060]]), np.array([[2.0**20]]), power_fn(0.5))
    assert float(got) == pytest.approx(2.0**-520, rel=1e-14)
    got = f_divergence(np.array([[2.0**20]]), np.array([[2.0**-1060]]), linear_fn(2.0))
    assert float(got) == 2.0 * (2.0**20 - 2.0**-1060)


@pytest.mark.parametrize("f", [xlogx_fn(), power_fn(2), power_fn(0.5), power_fn(-0.5),
                               linear_fn(-3.0)], ids=lambda f: f.name)
def test_fdiv_is_covariant_under_a_common_scale(f):
    # D_f(cA || cB) = c D_f(A || B) for c = 2^k over the double range
    rng = SeededRng(77)
    a, b = random_density(3, 3, rng), random_density(3, 3, rng)
    base = float(f_divergence(a, b, f))
    for k in (-1000, -300, 300, 1000):
        got = f_divergence(2.0**k * a.matrix, 2.0**k * b.matrix, f)
        assert float(got) == pytest.approx(2.0**k * base, rel=1e-12)


def test_sandwiched_core_scales_back_without_rounding_the_log():
    # tr (B^e A B^e)^2 = 0.25e160 + 0.5e160; exp(log core) read 7.499999999999575e159
    got = float(sandwiched_core(HALF, TINY, 2.0))
    assert got == 7.5e159
    want = float(d_fg(HALF, TINY, power_fn(-0.25), power_fn(2)))
    assert got == pytest.approx(want, rel=1e-15)


# ------------------------------------- whole-spectrum calls, per-element oracle
# The f-divergence and tr g(f(B) A f(B)) written one term at a time, as sums
# of scalar formulas over the operators' own snapped spectral data.  Each
# returns the value and the sum of the terms' magnitudes, the scale of its
# rounding.

PER_ELEMENT = {
    "xlogx": lambda t: t * math.log(t),
    "power:2": lambda t: t**2.0,
    "power:0.5": lambda t: t**0.5,
    "power:-0.5": lambda t: t**-0.5,
    "linear:-3": lambda t: -3.0 * (t - 1.0),
    "ratio": lambda t: t / (1.0 + t),
}


def fdiv_one_term_at_a_time(a, b, f):
    b_in_a, a_in_b = support_contains(a, b), support_contains(b, a)
    if (not b_in_a and f.limit_at_zero == math.inf) or (not a_in_b and f.gamma == math.inf):
        return math.inf, 0.0
    f0 = 0.0 if b_in_a else f.limit_at_zero
    gamma = 0.0 if a_in_b else f.gamma
    w = (np.abs(a.eigenvectors.conj().T @ b.eigenvectors) ** 2).tolist()
    terms = []
    for i, lam in enumerate(a.eigenvalues.tolist()):
        for j, mu in enumerate(b.eigenvalues.tolist()):
            if lam > 0.0 and mu > 0.0 and w[i][j] > 0.0:
                terms.append(w[i][j] * mu * PER_ELEMENT[f.name](lam / mu))
            elif lam == 0.0:
                terms.append(f0 * w[i][j] * mu)
            elif mu == 0.0:
                terms.append(gamma * w[i][j] * lam)
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def dfg_one_term_at_a_time(a, b, f, g):
    if f.limit_at_zero == math.inf and not support_contains(b, a):
        return math.inf, 0.0
    keep = b.eigenvalues > 0.0
    fb = np.diag([PER_ELEMENT[f.name](mu) for mu in b.eigenvalues[keep].tolist()])
    v = b.eigenvectors[:, keep]
    s = fb @ v.conj().T @ a.matrix @ v @ fb
    terms = [PER_ELEMENT[g.name](max(x, 0.0)) for x in np.linalg.eigvalsh(s).tolist()]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


@pytest.fixture(scope="module")
def mixed_rank_pairs():
    pairs = invariance_pairs(4, n_samples=200, seed=16)
    return [x for x, _ in pairs], [y for _, y in pairs]


def _assert_matches_the_per_element_sums(got, want):
    for value, (ref, scale) in zip(got, want):
        assert (value == math.inf) == (ref == math.inf)
        if ref != math.inf:
            assert abs(value - ref) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["xlogx", "power:2", "power:0.5", "linear:-3", "ratio"])
def test_fdiv_matches_the_per_element_formula(name, mixed_rank_pairs):
    f = bounded_ratio_fn() if name == "ratio" else spec_from_name(name)
    a, b = mixed_rank_pairs
    want = [fdiv_one_term_at_a_time(x, y, f) for x, y in zip(a, b)]
    _assert_matches_the_per_element_sums(f_divergence(a, b, f), want)


@pytest.mark.parametrize("names", [("power:0.5", "power:2"), ("power:-0.5", "power:2")])
def test_dfg_matches_the_per_element_formula(names, mixed_rank_pairs):
    f, g = map(spec_from_name, names)
    a, b = mixed_rank_pairs
    want = [dfg_one_term_at_a_time(x, y, f, g) for x, y in zip(a, b)]
    got = d_fg(a, b, f, g)
    _assert_matches_the_per_element_sums(got, want)
    # the mixed ranks reach the +inf branch exactly when f diverges at 0+
    assert (math.inf in got) == (f.limit_at_zero == math.inf)
