import math

import numpy as np
import pytest

import qdiv.matrixcore as mc
from qdiv.divergence import make_divergence
from qdiv.functions import DomainError, linear_fn, power_fn
from qdiv.maps import StateMap, depolarizing_channel
from qdiv.operators import DensityOperator, PositiveOperator
from qdiv.preserver import (
    WignerError,
    check_invariance,
    functional_eq_residual,
    invariance_pairs,
    invariance_reports,
    order_dominance_test,
    orthogonality_indicator,
    prop1_evaluate,
    prop1_refutation,
    thm4_scalar_test,
    trace_similarity_check,
    verify_conjugation,
    wigner_probe_projections,
    wigner_reconstruct,
)
from qdiv.sampling import SeededRng, haar_unitary, random_density, \
    random_positive_definite
from qdiv.suites import suite_invariance


# ------------------------------------------------------------- state maps

def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        StateMap.kraus_channel([np.eye(2) * 0.5])
    StateMap.kraus_channel([np.eye(2)])


def test_depolarizing_channel_action():
    ch = depolarizing_channel(0.5, 2)
    a = np.diag([1.0, 0.0]).astype(complex)
    out = ch.apply(a)
    want = 0.5 * a + 0.5 * np.eye(2) / 2.0
    assert np.allclose(out, want, atol=1e-12)


# -------------------------------------------------------- check_invariance

def test_identity_map_has_zero_deviation():
    rep = check_invariance(
        StateMap.unitary_conjugation(np.eye(2)),
        make_divergence("sandwiched", alpha=2),
        n_samples=30, seed=3,
    )
    assert rep.max_abs_deviation == 0.0
    assert rep.infinity_mismatches == 0
    assert rep.passed


def test_haar_conjugation_is_invariant():
    rng = SeededRng(5)
    rep = check_invariance(
        StateMap.unitary_conjugation(haar_unitary(3, rng)),
        make_divergence("sandwiched", alpha=2),
        n_samples=60, seed=4, tol=1e-9,
    )
    assert rep.passed
    assert rep.max_abs_deviation < 1e-9


def test_depolarizing_channel_is_caught():
    rep = check_invariance(
        depolarizing_channel(0.5, 2),
        make_divergence("sandwiched", alpha=2),
        n_samples=200, seed=7, tol=1e-8,
    )
    assert rep.witness is not None
    assert rep.max_abs_deviation > 1e-3


def test_check_invariance_accepts_tag_dispatch():
    rng = SeededRng(9)
    rep = check_invariance(
        StateMap.unitary_conjugation(haar_unitary(2, rng)),
        "sandwiched", alpha=2, n_samples=20, seed=4,
    )
    assert rep.passed
    with pytest.raises(TypeError):
        check_invariance(
            StateMap.unitary_conjugation(np.eye(2)),
            make_divergence("umegaki"), alpha=2,
        )


def test_invariance_pairs_need_a_sample():
    for n_samples in (0, -3):
        with pytest.raises(ValueError):
            invariance_pairs(2, n_samples=n_samples, seed=0)


def test_invariance_reports_match_separate_checks():
    maps = [StateMap.unitary_conjugation(haar_unitary(3, SeededRng(11))),
            depolarizing_channel(0.5, 3)]
    divs = [make_divergence("sandwiched", alpha=0.5), make_divergence("umegaki")]
    pairs = invariance_pairs(3, n_samples=30, seed=8)
    reports = invariance_reports(pairs, maps, divs, tol=1e-9)
    assert [len(row) for row in reports] == [2, 2]
    for state_map, row in zip(maps, reports):
        for div, rep in zip(divs, row):
            want = check_invariance(state_map, div, n_samples=30, seed=8, tol=1e-9)
            assert rep.samples == want.samples == 30
            assert rep.max_abs_deviation == want.max_abs_deviation
            assert rep.infinity_mismatches == want.infinity_mismatches
            assert rep.passed == want.passed
            if rep.witness is not None:
                assert np.array_equal(rep.witness[0], want.witness[0])
                assert rep.witness[2:] == want.witness[2:]
    assert reports[0][0].passed and not reports[1][0].passed


def test_suite_invariance_builds_each_operator_once(monkeypatch):
    # N pairs, then one image of each operator under each of the two maps.
    # Stacked construction bypasses __init__, so count at the validation
    # helper that every construction goes through, and count the stacked
    # eigensolver calls: one for the pairs and one per map, whatever N is.
    built = []
    stacked = []
    validated = PositiveOperator._validated.__func__
    eig = mc.eig_hermitian

    def counting_validated(cls, m):
        built.append(1 if np.ndim(m) == 2 else len(m))
        return validated(cls, m)

    def counting_eig(a):
        if np.ndim(a) == 3:
            stacked.append(len(a))
        return eig(a)

    monkeypatch.setattr(PositiveOperator, "_validated", classmethod(counting_validated))
    monkeypatch.setattr(mc, "eig_hermitian", counting_eig)
    for n_samples in (1, 7):
        built.clear()
        stacked.clear()
        passed, assertions = suite_invariance(dim=3, samples=n_samples, seed=2,
                                              tol=1e-8)
        assert passed and len(assertions) == 10
        assert sum(built) == 6 * n_samples
        assert stacked == [2 * n_samples] * 3


def test_witness_invariant_of_report():
    rep = check_invariance(
        depolarizing_channel(0.5, 2),
        make_divergence("sandwiched", alpha=2),
        n_samples=50, seed=7, tol=1e-8,
    )
    assert (rep.witness is not None) == (
        rep.max_abs_deviation > rep.tol or rep.infinity_mismatches > 0
    )


# ------------------------------------------------------------------ wigner

def test_probe_set_shape():
    probes = wigner_probe_projections(3)
    assert len(probes) == 6
    for p in probes:
        assert abs(np.trace(p) - 1.0) < 1e-12
        assert mc.frobenius(p @ p - p) < 1e-12


def test_wigner_identity_map():
    probes = wigner_probe_projections(3)
    u, kind, residual = wigner_reconstruct(probes)
    assert kind == "unitary"
    assert residual < 1e-10
    assert np.allclose(u, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wigner_round_trip_unitary(n):
    rng = SeededRng(100 + n)
    u0 = haar_unitary(n, rng)
    m = StateMap.unitary_conjugation(u0)
    images = [m.apply(p) for p in wigner_probe_projections(n)]
    u, kind, residual = wigner_reconstruct(images)
    assert kind == "unitary"
    assert residual < 1e-8
    # compare on fresh random projections
    for _ in range(50):
        p = random_density(n, 1, rng).matrix
        assert mc.frobenius(u @ p @ u.conj().T - u0 @ p @ u0.conj().T) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wigner_round_trip_antiunitary(n):
    rng = SeededRng(200 + n)
    u0 = haar_unitary(n, rng)
    m = StateMap.antiunitary_conjugation(u0)
    images = [m.apply(p) for p in wigner_probe_projections(n)]
    u, kind, residual = wigner_reconstruct(images)
    assert kind == "antiunitary"
    assert residual < 1e-8
    rep = verify_conjugation(m, u, kind, n_samples=50, seed=17)
    assert rep.max_deviation < 1e-8


def test_wigner_transpose_map_is_antiunitary():
    n = 3
    images = [p.T.copy() for p in wigner_probe_projections(n)]
    u, kind, residual = wigner_reconstruct(images)
    assert kind == "antiunitary"
    assert residual < 1e-10


def test_wigner_detects_tampering():
    rng = SeededRng(33)
    u0 = haar_unitary(3, rng)
    m = StateMap.unitary_conjugation(u0)
    images = [m.apply(p) for p in wigner_probe_projections(3)]
    images[1] = images[0].copy()  # duplicate breaks pairwise overlaps
    with pytest.raises(WignerError, match="probes"):
        wigner_reconstruct(images)


def test_wigner_reconstruct_needs_no_eigensolver(monkeypatch):
    # rank-one images give their vectors directly, and all transition
    # probabilities come from one Gram matrix
    def forbidden(*args, **kwargs):
        raise AssertionError("not expected in wigner_reconstruct")

    rng = SeededRng(37)
    m = StateMap.antiunitary_conjugation(haar_unitary(4, rng))
    images = [m.apply(p) for p in wigner_probe_projections(4)]
    monkeypatch.setattr(mc, "eig_hermitian", forbidden)
    monkeypatch.setattr(mc, "hs_inner", forbidden)
    u, kind, residual = wigner_reconstruct(images)
    assert kind == "antiunitary"
    assert residual < 1e-10
    images[3], images[5] = images[5], images[3]
    with pytest.raises(WignerError, match="between probes 0 and 3 is not"):
        wigner_reconstruct(images)


def test_wigner_rejects_non_projection():
    images = wigner_probe_projections(2)
    images[0] = np.eye(2) * 0.5
    with pytest.raises(WignerError):
        wigner_reconstruct(images)


# ------------------------------------------------------- verify_conjugation

def test_verify_conjugation_exact_match():
    rng = SeededRng(41)
    u0 = haar_unitary(3, rng)
    m = StateMap.unitary_conjugation(u0)
    rep = verify_conjugation(m, u0, "unitary", seed=2)
    assert rep.max_deviation < 1e-10
    assert rep.matched


def test_verify_conjugation_ignores_global_phase():
    rng = SeededRng(43)
    u0 = haar_unitary(3, rng)
    m = StateMap.unitary_conjugation(u0)
    phased = u0 * np.exp(0.71j)
    rep = verify_conjugation(m, phased, "unitary", seed=2)
    assert rep.max_deviation < 1e-10


def test_verify_conjugation_flags_wrong_unitary():
    rng = SeededRng(47)
    u0 = haar_unitary(3, rng)
    u1 = haar_unitary(3, rng)
    m = StateMap.unitary_conjugation(u0)
    rep = verify_conjugation(m, u1, "unitary", seed=2)
    assert rep.max_deviation > 0.1
    assert not rep.matched


def test_verify_conjugation_needs_a_sample():
    m = StateMap.unitary_conjugation(np.eye(2))
    with pytest.raises(ValueError):
        verify_conjugation(m, np.eye(2), "unitary", n_samples=0)


def test_verify_conjugation_rejects_non_unitary():
    m = StateMap.unitary_conjugation(np.eye(2))
    with pytest.raises(ValueError):
        verify_conjugation(m, np.diag([1.0, 2.0]), "unitary")


# --------------------------------------------------- orthogonality indicator

def test_orthogonality_indicator_orthogonal_pair():
    f, g = power_fn(0.5), power_fn(2)
    a = DensityOperator(np.diag([1.0, 0.0]))
    b = DensityOperator(np.diag([0.0, 1.0]))
    assert orthogonality_indicator(a, b, f, g)


def test_orthogonality_indicator_overlapping_pair():
    f, g = power_fn(0.5), power_fn(2)
    a = DensityOperator(np.eye(2) / 2.0)
    assert not orthogonality_indicator(a, a, f, g)


def test_orthogonality_indicator_agrees_with_product_norm():
    f, g = power_fn(0.5), power_fn(2)
    rng = SeededRng(51)
    for _ in range(10):
        a = random_density(3, 1, rng)
        b = random_density(3, 1, rng)
        want = mc.frobenius(a.matrix @ b.matrix) <= 1e-10
        assert orthogonality_indicator(a, b, f, g) == want


def test_orthogonality_indicator_checks_hypotheses():
    a = DensityOperator(np.eye(2) / 2.0)
    with pytest.raises(DomainError):
        orthogonality_indicator(a, a, power_fn(-1), power_fn(2))


# ------------------------------------------------------- trace similarity

def test_trace_similarity_identity_argument():
    b = random_positive_definite(3, 5.0, SeededRng(53))
    assert trace_similarity_check(np.eye(3), b, power_fn(2)) < 1e-10


@pytest.mark.parametrize("hname,tol", [("square", 1e-9), ("sqrt", 1e-8)])
def test_trace_similarity_random_pairs(hname, tol):
    h = {"square": power_fn(2), "sqrt": power_fn(0.5)}[hname]
    rng = SeededRng(57)
    for _ in range(20):
        a = random_positive_definite(3, 10.0, rng)
        b = random_density(3, 3, rng)
        assert trace_similarity_check(a, b, h) <= tol
    # singular B, every rank below n: the noise eigenvalues of BAB count as 0
    # (sqrt would turn 1e-17 of noise into 3e-9)
    rng = SeededRng(5)
    for n in (3, 4):
        a = random_positive_definite(n, 10.0, rng)
        for rank in range(1, n):
            b = random_density(n, rank, rng)
            assert trace_similarity_check(a, b, h) <= 1e-9


# --------------------------------------------------------- order dominance

def test_order_dominance_comparable():
    res = order_dominance_test(np.eye(2), 2.0 * np.eye(2), power_fn(1), seed=1)
    assert res.verdict == "consistent"
    assert res.counterexample is None


def test_order_dominance_equal_operators():
    # the scale comes from the inputs, not from C^2 - B^2, which is 0 here
    for c in (1.0, 1e-6, 1e6):
        b = c * random_positive_definite(3, 4.0, SeededRng(61)).matrix
        res = order_dominance_test(b, b, power_fn(1), seed=1)
        assert res.verdict == "consistent"
        assert res.dominated_spectrally
        assert res.max_violation <= 1e-10 * c**2


def test_order_dominance_incomparable_pair_yields_counterexample():
    for scale in (1.0, 1e-6):
        b, c = scale * np.diag([2.0, 1.0]), scale * np.diag([1.0, 2.0])
        res = order_dominance_test(b, c, power_fn(1), seed=1)
        assert res.verdict == "counterexample"
        assert not res.dominated_spectrally
        assert res.counterexample is not None
        # the probe really violates the trace inequality
        a = res.counterexample
        lhs = np.trace(b @ a @ b).real
        rhs = np.trace(c @ a @ c).real
        assert lhs > rhs


def test_order_dominance_spectral_agreement_on_random_pairs():
    # Verdicts must track the spectral comparison of the squares: dominated
    # pairs are always "consistent"; non-dominated ones are found out by the
    # targeted most-negative-eigenvector probe.
    rng = SeededRng(63)
    h = power_fn(1)
    for k in range(200):
        b = random_positive_definite(3, 6.0, rng)
        bump = random_positive_definite(3, 4.0, rng).matrix
        if k % 2 == 0:
            c2 = b.matrix @ b.matrix + bump  # comparable: C^2 = B^2 + PSD
        else:
            flip = np.diag([1.0, 1.0, -1.0])
            c2 = b.matrix @ b.matrix + flip @ bump @ flip - 0.8 * bump
            evals = mc.eig_hermitian(c2)[0]
            if evals[0] <= 1e-6:  # keep C^2 positive so C exists
                c2 = c2 + (1e-3 - evals[0]) * np.eye(3)
        evals, vecs = mc.eig_hermitian(c2)
        c = (vecs * np.sqrt(np.clip(evals, 0, None))) @ vecs.conj().T
        diff_min = mc.eig_hermitian(c2 - b.matrix @ b.matrix)[0][0]
        res = order_dominance_test(b.matrix, c, h, n_samples=10, seed=5)
        if diff_min >= -1e-10:
            assert res.verdict == "consistent"
        elif diff_min < -1e-6:
            assert res.verdict == "counterexample"


def test_order_dominance_requires_increasing_h():
    with pytest.raises(DomainError):
        order_dominance_test(np.eye(2), np.eye(2), power_fn(-1))


# ------------------------------------------------- functional equation

def test_functional_eq_linear_families_vanish():
    for c in (-3.0, 0.5, 1.0, 10.0):
        res = functional_eq_residual(linear_fn(c), 3, n_samples=500, seed=9)
        assert res <= 1e-12


def test_functional_eq_scaled_linear():
    assert functional_eq_residual(linear_fn(2.0), 3, n_samples=500, seed=9) <= 1e-12


def test_functional_eq_power_betrays_itself():
    res = functional_eq_residual(power_fn(2), 2, n_samples=100, seed=11)
    assert res > 0.01


def test_functional_eq_specific_sample():
    # direct check of the oracle: a = (0.9, 0.1), b = (0.5, 0.5), f = t^2
    a, b = (0.9, 0.1), (0.5, 0.5)
    val = sum(bk * (ak / bk) ** 2 for ak, bk in zip(a, b))
    assert val == pytest.approx(1.64, abs=1e-12)


def test_functional_eq_perturbed_linear():
    f = lambda t: t**0.5 + 0.5 * (t - 1.0)
    res = functional_eq_residual(f, 3, n_samples=200, seed=13)
    assert res > 1e-3


def test_functional_eq_needs_two_entries():
    with pytest.raises(ValueError):
        functional_eq_residual(linear_fn(1.0), 1)


# ------------------------------------------------------- prop1 refutation

def test_prop1_canonical_pair_alpha_two():
    lhs, rhs = prop1_evaluate(2.0, 0.5, 0.25)
    assert lhs == pytest.approx(3.0, abs=1e-15)
    assert rhs == pytest.approx(((math.sqrt(2.0) + 2.0) / 2.0) ** 2, abs=1e-15)
    assert abs(lhs - rhs) == pytest.approx(0.08578643762690485, abs=1e-12)


def test_prop1_evaluation_orders_agree():
    for alpha in (0.5, 2.0, 3.0):
        for (t, s) in ((0.5, 0.25), (0.3, 0.07), (0.001, 0.4)):
            l1, r1 = prop1_evaluate(alpha, t, s)
            l2, r2 = prop1_evaluate(alpha, t, s, via_exp=True)
            assert l1 == pytest.approx(l2, rel=1e-12)
            assert r1 == pytest.approx(r2, rel=1e-12)


def test_prop1_diagonal_degenerates():
    lhs, rhs = prop1_evaluate(2.0, 0.3, 0.3)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
def test_prop1_witness_found(alpha):
    w = prop1_refutation(alpha)
    assert w.gap > 1e-3
    lhs, rhs = prop1_evaluate(alpha, w.t, w.s)
    assert lhs == pytest.approx(w.lhs, rel=1e-12)
    assert rhs == pytest.approx(w.rhs, rel=1e-12)


def test_prop1_rejects_alpha_one():
    with pytest.raises(ValueError):
        prop1_refutation(1.0)


# ------------------------------------------------------- thm4 scalar test

def test_thm4_scalar_operator():
    res = thm4_scalar_test(3.0 * np.eye(3), 2.0)
    assert res.verdict == "scalar_multiple_of_identity"
    assert res.spectral_scalar


def test_thm4_diag_one_two_at_alpha_two():
    res = thm4_scalar_test(np.diag([1.0, 2.0]), 2.0)
    assert res.verdict == "violation"
    assert res.mean_xy == pytest.approx(0.501953125, abs=1e-15)
    assert res.mean_x_mean_y == pytest.approx(0.2822265625, abs=1e-15)
    assert abs(res.gap) == pytest.approx(0.501953125 - 0.2822265625, abs=1e-12)


@pytest.mark.parametrize("c", [1e-12, 0.1, 1.0, 7.3, 1e6])
def test_thm4_any_scalar_multiple(c):
    for alpha in (0.5, 2.0):
        res = thm4_scalar_test(c * np.eye(4), alpha)
        assert res.verdict == "scalar_multiple_of_identity"


def test_thm4_agrees_with_spectral_test():
    # the verdicts on c*T are those on T
    for c in (1.0, 1e-12, 1e3):
        rng = SeededRng(67)
        for _ in range(10):
            t = c * random_positive_definite(3, 9.0, rng).matrix
            res = thm4_scalar_test(t, 2.0)
            assert res.is_scalar == res.spectral_scalar
        res = thm4_scalar_test(c * np.diag([1.0, 2.0, 3.0]), 2.0)
        assert not res.is_scalar and not res.spectral_scalar


def test_thm4_rejects_singular():
    with pytest.raises(ValueError):
        thm4_scalar_test(np.diag([1.0, 0.0]), 2.0)
