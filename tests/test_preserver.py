import math
import numbers
import warnings

import numpy as np
import pytest

import qdiv.matrixcore as mc
import qdiv.preserver as preserver
from qdiv.divergence import NonFiniteResultError, make_divergence
from qdiv.functions import DomainError, linear_fn, power_fn
from qdiv.maps import StateMap, conjugate_by, depolarizing_channel
from qdiv.operators import DensityOperator, OperatorStack, PositiveOperator
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
    random_positive_definite, random_simplex
from qdiv.suites import run_suite, suite_invariance


# ------------------------------------------------------------- state maps

def test_map_kinds_are_the_words_of_the_conjugation():
    u = haar_unitary(3, SeededRng(3))
    assert StateMap.unitary_conjugation(u).kind == "unitary"
    assert StateMap.antiunitary_conjugation(u).kind == "antiunitary"
    assert depolarizing_channel(0.3, 3).kind == "kraus"
    # the kinds were once spelled as the constructors are named; those go
    for constructor in (StateMap.unitary_conjugation, StateMap.antiunitary_conjugation,
                        StateMap.kraus_channel):
        with pytest.raises(ValueError, match="unknown conjugation kind"):
            conjugate_by(u, constructor.__name__, np.eye(3))
    with pytest.raises(ValueError, match="unknown conjugation kind"):
        conjugate_by(u, "kraus", np.eye(3))


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        StateMap.kraus_channel([np.eye(2) * 0.5])
    StateMap.kraus_channel([np.eye(2)])


def test_kraus_operators_of_two_orders_are_rejected():
    with pytest.raises(ValueError, match="one order"):
        StateMap.kraus_channel([np.eye(3), np.eye(2)])


@pytest.mark.parametrize("n", [0, -1])
def test_depolarizing_channel_rejects_an_order_below_one(n):
    with pytest.raises(ValueError, match="at least 1"):
        depolarizing_channel(0.1, n)


def test_maps_compare_and_hash_by_identity():
    # the generated == and hash over ndarray fields once raised
    for make in (lambda: depolarizing_channel(0.3, 2),
                 lambda: StateMap.unitary_conjugation(np.eye(2)),
                 lambda: StateMap.antiunitary_conjugation(np.eye(2))):
        m, other = make(), make()
        assert (m == m) is True and (m == other) is False and (m != other) is True
        assert {m: 1, other: 2}[m] == 1 and len({m, m, other}) == 2


@pytest.mark.parametrize("fields, message", [
    ({"kind": "unitary", "unitary": 2.0 * np.eye(2)}, "not unitary"),
    ({"kind": "antiunitary", "unitary": np.ones((2, 2))}, "not unitary"),
    ({"kind": "unitary"}, "a unitary map needs its unitary"),
    ({"kind": "kraus"}, "a kraus map needs its superop"),
    ({"kind": "kraus", "unitary": np.eye(2)}, "a kraus map needs its superop"),
    ({"kind": "foo", "unitary": np.eye(2)}, "unknown map kind 'foo'"),
])
def test_a_map_built_directly_is_checked_when_it_is_built(fields, message):
    # 2I once applied as 4I, and the other two failed only at apply
    with pytest.raises(ValueError, match=message):
        StateMap(**fields)


def test_a_map_built_directly_holds_a_complex_copy_of_its_unitary():
    u = np.array([[0, 1], [1, 0]])
    m = StateMap(kind="unitary", unitary=u)
    assert m.unitary.dtype == np.complex128 and m.unitary is not u
    assert np.array_equal(m.apply(np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))


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


def test_check_invariance_accepts_tag_dispatch(monkeypatch):
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
    # a bad alpha fails when the tag is resolved, before any pair is drawn
    def forbidden(*args, **kwargs):
        raise AssertionError("pairs drawn before alpha was checked")

    monkeypatch.setattr(preserver, "_pair_stack", forbidden)
    with pytest.raises(ValueError, match="alpha must lie"):
        check_invariance(StateMap.unitary_conjugation(np.eye(2)), "sandwiched", alpha=1)


def test_a_nan_or_minus_inf_value_raises_and_names_the_pair():
    # a callable that gives sandwiched values on the drawn pairs and a bad
    # value on the images: a NaN deviation is not above tol, so it once
    # passed with max_abs_deviation 0.0
    m = StateMap.unitary_conjugation(haar_unitary(3, SeededRng(5)))
    sandwiched = make_divergence("sandwiched", alpha=0.5)
    drawn = {a.matrix.tobytes() for a, _ in invariance_pairs(3, n_samples=50, seed=1)}
    for bad in (math.nan, -math.inf):
        def partial(a, b):
            return [v if x.tobytes() in drawn else bad
                    for v, x in zip(sandwiched(a, b), a.matrices)]
        with pytest.raises(ValueError, match=f"divergence partial gave {bad!r} on "
                                             "pair 0 under map 0"):
            check_invariance(m, partial, n_samples=50, seed=1)
    # on the drawn pairs themselves, the pair is named alone
    umegaki = make_divergence("umegaki")

    def third_nan(a, b):
        values = umegaki(a, b)
        values[2] = math.nan
        return values

    pairs = invariance_pairs(3, n_samples=4, seed=2)
    with pytest.raises(ValueError, match="divergence third_nan gave nan on pair 2$"):
        invariance_reports(pairs, [m], [third_nan], tol=1e-9)
    # a callable of make_divergence is named by its tag and parameters
    assert sandwiched.__name__ == "sandwiched(alpha=0.5)" and umegaki.__name__ == "umegaki()"
    assert make_divergence("dfg", f="power:0.5", g="power:2").__name__ == (
        "dfg(f=power:0.5, g=power:2)")


def test_check_invariance_builds_no_per_member_view(monkeypatch):
    # the drawn stack goes to the divergences as it is; only the public
    # invariance_pairs hands out one view per operator
    views = []
    getitem = OperatorStack.__getitem__

    def counting(stack, key):
        if isinstance(key, numbers.Integral):
            views.append(key)
        return getitem(stack, key)

    monkeypatch.setattr(OperatorStack, "__getitem__", counting)
    m = StateMap.antiunitary_conjugation(haar_unitary(3, SeededRng(6)))
    for tag, params in (("sandwiched", {"alpha": 2}), ("umegaki", {}),
                        ("renyi", {"alpha": 2})):
        assert check_invariance(m, tag, n_samples=20, seed=3, **params).passed
    assert all(a["pass"] for a in suite_invariance(dim=3, samples=5, seed=1, tol=1e-8))
    assert views == []
    invariance_pairs(3, n_samples=4, seed=0)
    assert len(views) == 8


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
    # Stacked construction (from_stack) does not call __init__, so count at
    # the validation helper that every construction goes through, and count
    # the stacked constructions: one for the pairs and one per map, whatever
    # N is.  The divergences read these stacks and validate nothing again
    # (their sandwich kernels make eigensolver calls of their own).
    built = []
    stacked = []
    validated = PositiveOperator._validated.__func__

    def counting_validated(cls, m):
        built.append(1 if np.ndim(m) == 2 else len(m))
        if np.ndim(m) == 3:
            stacked.append(len(m))
        return validated(cls, m)

    monkeypatch.setattr(PositiveOperator, "_validated", classmethod(counting_validated))
    for n_samples in (1, 7):
        built.clear()
        stacked.clear()
        assertions = suite_invariance(dim=3, samples=n_samples, seed=2, tol=1e-8)
        passed = all(a["pass"] for a in assertions)
        assert passed and len(assertions) == 10
        assert sum(built) == 6 * n_samples
        assert stacked == [2 * n_samples] * 3


def test_invariance_reports_reject_an_empty_list_of_pairs():
    # an empty search would read as a pass; with a map it once failed in the
    # map's shape check ("got shape (0,)")
    umegaki = make_divergence("umegaki")
    for maps in ([], [depolarizing_channel(0.3, 2)]):
        with pytest.raises(ValueError, match="need at least one sample"):
            invariance_reports([], maps, [umegaki], tol=1e-9)
    # the divergences themselves still take empty stacks
    assert umegaki([], []) == []


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
    for n in (2, 3, 5):
        probes = wigner_probe_projections(n)
        assert isinstance(probes, np.ndarray) and probes.shape == (2 * n, n, n)
        for p in probes:
            assert abs(np.trace(p) - 1.0) < 1e-12
            assert mc.frobenius(p @ p - p) < 1e-12
        # the documented order, built one probe at a time
        eye = np.eye(n, dtype=np.complex128)
        vecs = [eye[:, i] for i in range(n)]
        vecs += [(eye[:, 0] + eye[:, j]) / math.sqrt(2.0) for j in range(1, n)]
        vecs.append((eye[:, 0] + 1j * eye[:, 1]) / math.sqrt(2.0))
        want = np.array([mc.rank_one(x, x) for x in vecs])
        assert probes.tobytes() == want.tobytes()


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


def test_wigner_names_the_first_image_that_is_not_a_rank_one_projection():
    # the images are checked as one stack; the message names the first one
    n = 4
    m = StateMap.unitary_conjugation(haar_unitary(n, SeededRng(61)))
    good = m.apply(wigner_probe_projections(n))
    rank_two = good[0] + good[1]              # a projection of trace 2
    not_hermitian = good[2] + 0.1 * np.triu(np.ones((n, n)), 1)
    for bad in ((1, rank_two), (3, not_hermitian), (5, np.full((n, n), np.nan))):
        for later in ((), ((7, rank_two),)):
            images = list(good)
            for k, img in (bad, *later):
                images[k] = img
            with pytest.raises(WignerError, match=f"^image {bad[0]}: "):
                wigner_reconstruct(images)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_wigner_takes_a_list_of_images_or_one_array_alike(n):
    rng = SeededRng(70 + n)
    for m in (StateMap.unitary_conjugation(haar_unitary(n, rng)),
              StateMap.antiunitary_conjugation(haar_unitary(n, rng))):
        stack = m.apply(wigner_probe_projections(n))
        for images in (list(stack), [img.tolist() for img in stack]):
            u, kind, residual = wigner_reconstruct(images)
            want_u, want_kind, want_residual = wigner_reconstruct(stack)
            assert np.array_equal(u, want_u) and kind == want_kind == m.kind
            assert repr(residual) == repr(want_residual)


def test_wigner_names_the_first_image_of_a_wrong_shape():
    good = list(wigner_probe_projections(3))
    for count in (0, 1, 2, 5):
        with pytest.raises(ValueError, match="expected the 2n probe images"):
            wigner_reconstruct(good[:count])
    for bad in (np.eye(2), np.ones((3, 2)), np.ones(3), 1.0):
        for later in ((), ((4, np.eye(4)),)):
            images = list(good)
            for k, img in ((2, bad), *later):
                images[k] = img
            with pytest.raises(ValueError, match=r"^image 2 has shape .*, expected \(3, 3\)"):
                wigner_reconstruct(images)


# ------------------------------------------------------- verify_conjugation

def test_verify_conjugation_exact_match():
    rng = SeededRng(41)
    u0 = haar_unitary(3, rng)
    m = StateMap.unitary_conjugation(u0)
    rep = verify_conjugation(m, u0, "unitary", seed=2)
    assert rep.max_deviation < 1e-10
    assert rep.max_deviation <= rep.tol


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
    assert not rep.max_deviation <= rep.tol


def test_verify_conjugation_needs_a_sample():
    m = StateMap.unitary_conjugation(np.eye(2))
    with pytest.raises(ValueError):
        verify_conjugation(m, np.eye(2), "unitary", n_samples=0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_passed_tolerances_must_be_finite_and_non_negative(tol):
    # NaN and +inf would pass every deviation, so a depolarizing channel or a
    # wrong unitary would pass
    rng = SeededRng(47)
    m = StateMap.unitary_conjugation(haar_unitary(3, rng))
    with pytest.raises(ValueError, match="tol must be"):
        verify_conjugation(m, haar_unitary(3, rng), "unitary", seed=2, tol=tol)
    with pytest.raises(ValueError, match="tol must be"):
        check_invariance(depolarizing_channel(0.3, 4), "sandwiched", alpha=0.5,
                         n_samples=30, seed=3, tol=tol)
    pairs = invariance_pairs(2, n_samples=3, seed=0)
    with pytest.raises(ValueError, match="tol must be"):
        invariance_reports(pairs, [], [make_divergence("umegaki")], tol=tol)


def test_verify_conjugation_rejects_non_unitary():
    m = StateMap.unitary_conjugation(np.eye(2))
    with pytest.raises(ValueError):
        verify_conjugation(m, np.diag([1.0, 2.0]), "unitary")


@pytest.mark.parametrize("n", [2, 3, 8, 16])
@pytest.mark.parametrize("p", [1e-8, 1e-3, 0.3])
def test_verify_conjugation_depolarizing_closed_form(n, p):
    # phi(rho) - rho = p (I/n - rho), and ||I/n - rho||_F^2 = 1 - 1/n for every
    # pure rho, the supremum over density operators: each probe reaches it.
    # The map's own image (1 - p) rho rounds by a few ulps of ||rho||_F = 1,
    # so the difference carries about eps/p relative error; that bound
    # replaces 1e-12 only where it is the larger, at p = 1e-8.
    want = p * math.sqrt(1.0 - 1.0 / n)
    rel = max(1e-12, 8.0 * np.finfo(float).eps / p)
    state_map = depolarizing_channel(p, n)
    for seed in (0, 1, 7, 2**64 - 1):
        for n_samples in (1, 20):
            rep = verify_conjugation(state_map, np.eye(n), "unitary",
                                     n_samples=n_samples, seed=seed)
            assert abs(rep.max_deviation - want) <= rel * want


def test_verify_conjugation_fails_a_wrong_unitary_and_a_wrong_kind():
    rng = SeededRng(53)
    u0, u1 = haar_unitary(16, rng), haar_unitary(16, rng)
    # ||U x x* U* - V x x* V*||_F^2 = 2 - 2 |<U x, V x>|^2, near 2 for Haar U, V
    rep = verify_conjugation(StateMap.unitary_conjugation(u0), u1, "unitary", seed=4)
    assert rep.max_deviation > 1.0
    # U conj(rho) U* - U rho U* has the norm of 2 Im(rho), nonzero for a
    # generic pure state
    for n in (2, 16):
        u = haar_unitary(n, rng)
        rep = verify_conjugation(StateMap.antiunitary_conjugation(u), u, "unitary",
                                 seed=4)
        assert rep.max_deviation > 0.1
        assert not rep.max_deviation <= rep.tol


def test_verify_conjugation_checks_order_and_kind_before_drawing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("states drawn before the candidate was checked")

    monkeypatch.setattr(preserver, "random_unit_vector", forbidden)
    m = StateMap.unitary_conjugation(haar_unitary(3, SeededRng(59)))
    with pytest.raises(ValueError, match="order 2, but the map acts on dimension 3"):
        verify_conjugation(m, np.eye(2), "unitary")
    with pytest.raises(ValueError, match="order 4, but the map acts on dimension 3"):
        verify_conjugation(m, np.eye(4), "antiunitary")
    with pytest.raises(ValueError, match="unknown conjugation kind 'kraus'"):
        verify_conjugation(m, np.eye(3), "kraus")


@pytest.mark.parametrize("n_samples", [True, False, 2.5, 3.0, "3", None])
def test_sample_counts_must_be_integers(n_samples):
    # True once ran as one sample and reported samples=True; 2.5 raised a bare
    # TypeError from range
    m = StateMap.unitary_conjugation(np.eye(2))
    calls = [
        lambda: verify_conjugation(m, np.eye(2), "unitary", n_samples=n_samples),
        lambda: invariance_pairs(2, n_samples=n_samples, seed=0),
        lambda: check_invariance(m, "umegaki", n_samples=n_samples),
        lambda: run_suite("wigner", dim=2, samples=n_samples),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="sample count must be an integer"):
            call()
    # a numpy integer is a count
    rep = verify_conjugation(m, np.eye(2), "unitary", n_samples=np.int64(3))
    assert rep.samples == 3


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


def test_scalar_criteria_reject_operands_of_two_orders():
    # trace similarity and order dominance once raised numpy's matmul or
    # broadcast messages
    two, three = np.eye(2) / 2.0, np.eye(3) / 3.0
    checks = [
        lambda a, b: trace_similarity_check(a, b, power_fn(2)),
        lambda a, b: order_dominance_test(a, b, power_fn(1), n_samples=3),
        lambda a, b: orthogonality_indicator(a, b, power_fn(0.5), power_fn(2)),
    ]
    for check in checks:
        for a, b in ((two, three), (three, two)):
            with pytest.raises(ValueError,
                               match="dimension mismatch between the two operators"):
                check(a, b)


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


def test_trace_similarity_overflow_is_typed():
    # BAB = 1e400 I once raised the eigensolver's "matrix has a non-finite
    # entry" after numpy's matmul overflow warnings
    want = "trace_similarity: the value overflows a float"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResultError, match=f"^{want}$"):
            trace_similarity_check(1e200 * np.eye(2), 1e100 * np.eye(2), power_fn(2))
        # on stacks, the first pair that fails alone raises its error
        with pytest.raises(NonFiniteResultError, match=f"^{want}$"):
            trace_similarity_check([np.eye(2), 1e200 * np.eye(2), np.eye(2)],
                                   [np.eye(2) / 2, 1e100 * np.eye(2), np.eye(2) / 2],
                                   power_fn(2))


# --------------------------------------------------------- order dominance

def test_order_dominance_comparable():
    res = order_dominance_test(np.eye(2), 2.0 * np.eye(2), power_fn(1), seed=1)
    assert res.verdict == "consistent"
    assert res.counterexample is None


def test_order_dominance_equal_operators():
    # the scale comes from the inputs, not from C^2 - B^2, which is 0 here;
    # at c = 0 every trace is h(0) = 0, once misreported as leaving the float range
    for c in (1.0, 1e-6, 1e6, 0.0):
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


def test_order_dominance_is_decided_independently_of_scale():
    # once the squares underflowed to 0 at 1e-200 ("consistent"), and
    # overflowed at 1e160 (numpy's ValueError after RuntimeWarnings)
    b, c = np.diag([2.0, 1.0, 1.0]), np.diag([1.0, 2.0, 1.0])
    one = order_dominance_test(b, c, power_fn(1), n_samples=20, seed=3)
    assert one.verdict == "counterexample" and not one.dominated_spectrally
    small = order_dominance_test(1e-150 * b, 1e-150 * c, power_fn(1), n_samples=20, seed=3)
    assert small.verdict == "counterexample" and not small.dominated_spectrally
    assert order_dominance_test(1e-150 * b, 1e-150 * b, power_fn(1), n_samples=20,
                                seed=3).dominated_spectrally
    # at 1e-160 the probe bound is subnormal and the h-traces sink below
    # roundoff; at 1e-170 and 1e-200 the blind search once came back
    # "inconclusive", with a max_violation of 0; at 1e-320 the top itself is
    # subnormal, but not 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-160, 1e-170, 1e-200, 1e-320, 1e160):
            with pytest.raises(NonFiniteResultError, match="float range"):
                order_dominance_test(scale * b, scale * c, power_fn(1), n_samples=20,
                                     seed=3)


@pytest.mark.parametrize("n_samples", [0, -3])
def test_scalar_criteria_need_a_sample(n_samples):
    # an empty search once read as a vanishing residual (0.0), or raised
    # numpy's zero-size reduction error
    with pytest.raises(ValueError, match="need at least one sample"):
        functional_eq_residual(linear_fn(2), 3, n_samples=n_samples)
    with pytest.raises(ValueError, match="need at least one sample"):
        order_dominance_test(np.eye(2), 2.0 * np.eye(2), power_fn(1), n_samples=n_samples)


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


def test_functional_eq_matches_the_per_sample_loop():
    # the residual sums each sample as one array row; the loop adds term by term
    draws = random_simplex(3, SeededRng(13), count=400)
    want = max(abs(math.fsum(bk * (ak / bk) ** 2 for ak, bk in zip(a, b)))
               for a, b in zip(draws[0::2].tolist(), draws[1::2].tolist()))
    got = functional_eq_residual(power_fn(2), 3, n_samples=200, seed=13)
    assert got == pytest.approx(want, rel=1e-14)


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


@pytest.mark.parametrize("alpha", [0.0, math.nan, -1.0, 1.0])
def test_prop1_evaluate_rejects_an_alpha_outside_the_two_intervals(alpha):
    # 0 once raised ZeroDivisionError, and NaN gave (nan, nan)
    for via_exp in (False, True):
        with pytest.raises(ValueError, match="alpha must lie in"):
            prop1_evaluate(alpha, 0.5, 0.25, via_exp=via_exp)


def test_prop1_diagonal_degenerates():
    lhs, rhs = prop1_evaluate(2.0, 0.3, 0.3)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _prop1_cell(alpha, t, s):
    """|lhs - rhs| of one grid cell in plain floats; None where it overflows."""
    try:
        lhs = 0.5 * (t ** (1.0 - alpha) + s ** (1.0 - alpha))
        e = (1.0 - alpha) / alpha
        rhs = (0.5 * (t**e + s**e)) ** alpha
    except OverflowError:
        return None
    gap = abs(lhs - rhs)
    return (gap, lhs, rhs) if math.isfinite(gap) else None


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0, 7.0, 400.0])
def test_prop1_witness_found(alpha):
    w = prop1_refutation(alpha)
    assert w.gap > 1e-3 and math.isfinite(w.gap)
    lhs, rhs = prop1_evaluate(alpha, w.t, w.s)
    assert lhs == pytest.approx(w.lhs, rel=1e-12)
    assert rhs == pytest.approx(w.rhs, rel=1e-12)
    # the largest finite gap of a cell-by-cell scan of the same grid
    grid = [float(x) for x in np.geomspace(1e-3, 0.5, 64)]
    cells = [(c, t, s) for t in grid for s in grid
             if (c := _prop1_cell(alpha, t, s)) is not None]
    (gap, lhs, rhs), t, s = max(cells, key=lambda cell: cell[0][0])
    assert (w.t, w.s) == (t, s)
    assert (w.lhs, w.rhs) == (pytest.approx(lhs, rel=1e-12), pytest.approx(rhs, rel=1e-12))


def test_scalar_criteria_beyond_the_float_range():
    # once RuntimeWarnings and a NaN verdict (prop1 at 400, a [pass] for thm4
    # at 0.999999), or an ArithmeticError (prop1 near 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert prop1_refutation(400.0).gap == pytest.approx(6.889408073880821e307)
        for via_exp in (False, True):
            assert prop1_evaluate(400.0, 1e-3, 0.5, via_exp=via_exp) == (math.inf,) * 2
        for alpha in (1.0000001, 1e5):
            with pytest.raises(NonFiniteResultError, match="no finite gap"):
                prop1_refutation(alpha)
        with pytest.raises(NonFiniteResultError, match="not finite"):
            thm4_scalar_test(np.diag([1.0, 2.0, 3.0]), 0.999999)


def test_prop1_rejects_alpha_one():
    with pytest.raises(ValueError):
        prop1_refutation(1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_scalar_criteria_reject_a_non_finite_alpha(alpha):
    # these once passed the check: thm4 then passed diag(1, 2) on a NaN gap
    with pytest.raises(ValueError, match="alpha must lie"):
        prop1_refutation(alpha)
    with pytest.raises(ValueError, match="alpha must lie"):
        thm4_scalar_test(np.diag([1.0, 2.0]), alpha)


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


def test_thm4_never_reads_a_spread_spectrum_as_scalar():
    # these read as scalar once: gap 8.2e-11 under the old 1e-10 bound at
    # alpha = 1e-5, roundoff or 0.0 at alpha = 1e-8 and 1e-300, and t^(-2a)
    # underflowing to 0 for 1e160 diag(1, 2, 3)
    t = np.diag([1.0, 2.0, 3.0])
    res = thm4_scalar_test(t, 1e-5)
    assert not res.is_scalar and not res.spectral_scalar
    assert res.gap == pytest.approx(-8.23e-11, rel=1e-3)
    for op, alpha in ((t, 1e-8), (t, 1e-300), (1e160 * t, 2.0)):
        with pytest.raises(NonFiniteResultError, match="do not resolve"):
            thm4_scalar_test(op, alpha)
    # a scalar operator has no spread to resolve
    for alpha in (1e-5, 1e-300):
        assert thm4_scalar_test(3.0 * np.eye(3), alpha).is_scalar


def test_stacked_draws_make_one_sampler_call(monkeypatch):
    # invariance_pairs lays out its draws first and fills every matrix with
    # one Ginibre stack and one Haar stack; verify_conjugation draws all its
    # pure states as one stack of unit vectors
    import qdiv.sampling as sampling
    calls = []
    for name in ("ginibre", "haar_unitary"):
        def counting(*args, _fn=getattr(sampling, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(sampling, name, counting)
    unit_draws = []
    def unit_vectors(*args, _fn=preserver.random_unit_vector, **kwargs):
        unit_draws.append(kwargs.get("count"))
        return _fn(*args, **kwargs)
    monkeypatch.setattr(preserver, "random_unit_vector", unit_vectors)
    for n_samples in (1, 30):
        calls.clear()
        invariance_pairs(3, n_samples=n_samples, seed=4)
        assert sorted(calls) == ["ginibre", "haar_unitary"]
        calls.clear()
        u = haar_unitary(4, SeededRng(5))
        calls.clear()
        unit_draws.clear()
        verify_conjugation(StateMap.unitary_conjugation(u), u, "unitary",
                           n_samples=n_samples, seed=6)
        assert calls == [] and unit_draws == [n_samples]
