"""The stacked path: a divergence on two stacks of operators, a map on a stack
of matrices and the stacked conjugation check, each against the same
computation on one pair or one matrix at a time, bit for bit."""

import math
import re

import numpy as np
import pytest

import qdiv.divergence as dv
import qdiv.matrixcore as mc
from qdiv.divergence import (
    DIVERGENCE_TAGS,
    NonFiniteResultError,
    d_fg,
    make_divergence,
    sandwiched_core,
    support_contains,
    supports_orthogonal,
    umegaki,
)
from qdiv.maps import StateMap, conjugate_by, depolarizing_channel
from qdiv.operators import DensityOperator, PositiveOperator, ValidationError
from qdiv.preserver import (
    _conjugation_deviation,
    check_invariance,
    invariance_pairs,
    invariance_reports,
    verify_conjugation,
    wigner_probe_projections,
    wigner_reconstruct,
)
from qdiv.functions import DomainError, power_fn
from qdiv.sampling import SeededRng, haar_unitary, random_density, \
    random_density_matrices, random_unit_vector
from qdiv.suites import _singular_pair

# at least one parameter set per tag; the dfg pairs take both limits of f at 0+
PARAMS = {
    "umegaki": [{}],
    "renyi": [{"alpha": 0.5}, {"alpha": 2.0}],
    "sandwiched": [{"alpha": 0.5}, {"alpha": 2.0}, {"alpha": 3.0}],
    "sandwiched-core": [{"alpha": 0.5}, {"alpha": 3.0}],
    "fdiv": [{"f": "xlogx"}, {"f": "power:2"}, {"f": "power:0.5"},
             {"f": "linear:-3"}],
    "dfg": [{"f": "power:0.5", "g": "power:2"}, {"f": "power:-0.5", "g": "power:2"}],
}
DIMS = (1, 2, 3, 4, 8)


def test_every_tag_is_covered():
    assert set(PARAMS) == set(DIVERGENCE_TAGS)


def _pairs(n):
    """Full, rank-one and intermediate ranks from ``invariance_pairs``, plus
    nested and orthogonal supports (n > 1)."""
    pairs = invariance_pairs(n, n_samples=12, seed=n)
    if n > 1:
        rng = SeededRng(100 + n)
        for contained in (True, False, True):
            a, b = _singular_pair(n, rng, contained)
            pairs.append((DensityOperator(a.matrix), b))
        b = random_density(n, n - 1, rng)
        kernel = b.eigenvectors[:, b.eigenvalues == 0.0][:, 0]
        pairs.append((DensityOperator(mc.rank_one(kernel, kernel)), b))
    return pairs


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type and message
        return exc


def _same(x, y):
    if isinstance(x, Exception) or isinstance(y, Exception):
        return type(x) is type(y) and str(x) == str(y)
    return repr(x) == repr(y) and type(x) is type(y)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("tag", DIVERGENCE_TAGS)
def test_stack_member_equals_the_single_call_bit_for_bit(tag, n):
    pairs = _pairs(n)
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    for params in PARAMS[tag]:
        div = make_divergence(tag, **params)
        single = [_outcome(lambda: div(x, y)) for x, y in pairs]
        stacked = _outcome(lambda: div(a, b))
        first_error = next((s for s in single if isinstance(s, Exception)), None)
        if first_error is not None:
            assert _same(stacked, first_error), (tag, params)
            continue
        assert isinstance(stacked, list) and len(stacked) == len(pairs)
        for k, (x, y) in enumerate(zip(single, stacked)):
            assert _same(x, y), (tag, params, n, k, x, y)
        # a stack of raw matrices converts each operand as the single call does
        assert [repr(v) for v in div(np.array([x.matrix for x in a]),
                                     [y.matrix for y in b])] == [repr(v) for v in single]


def test_the_stacks_hit_both_branches():
    # the pairs above reach +inf and finite values for the Renyi split
    pairs = _pairs(4)
    values = make_divergence("sandwiched", alpha=2.0)(*map(list, zip(*pairs)))
    assert math.inf in values and any(v != math.inf for v in values)
    values = make_divergence("sandwiched", alpha=0.5)(*map(list, zip(*pairs)))
    assert math.inf in values


def test_support_verdicts_on_stacks():
    pairs = _pairs(3)
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    assert support_contains(b, a).tolist() == [support_contains(y, x) for x, y in pairs]
    assert supports_orthogonal(a, b).tolist() == [supports_orthogonal(x, y)
                                                  for x, y in pairs]
    assert support_contains([], []).tolist() == []


def test_a_stack_raises_the_first_failing_pair_error():
    big, one = PositiveOperator(1e308 * np.eye(2)), PositiveOperator(np.eye(2))
    half = PositiveOperator(np.diag([0.5, 0.5]))
    # the scalar call's error, for the pair whose finite branch overflows
    with pytest.raises(NonFiniteResultError) as single:
        sandwiched_core(big, half, 2.0)
    with pytest.raises(NonFiniteResultError) as stacked:
        sandwiched_core([half, big, half], [half, half, one], 2.0)
    assert str(stacked.value) == str(single.value)
    with pytest.raises(NonFiniteResultError) as single:
        d_fg(big, one, power_fn(0.5), power_fn(2))
    with pytest.raises(NonFiniteResultError) as stacked:
        d_fg([one, big, big], [one, one, half], power_fn(0.5), power_fn(2))
    assert str(stacked.value) == str(single.value)
    # pair order decides between errors of different kinds
    singular = PositiveOperator(np.diag([1.0, 0.0]))
    flat = power_fn(0.0)  # f(0+) = 1: no extension to a singular B
    with pytest.raises(DomainError):
        d_fg([one, half, big], [singular, one, one], flat, power_fn(2))
    with pytest.raises(NonFiniteResultError):
        d_fg([one, big, half], [one, one, singular], flat, power_fn(2))


@pytest.mark.parametrize("div", [
    lambda a, b: sandwiched_core(a, b, 2.0),
    lambda a, b: d_fg(a, b, power_fn(0.5), power_fn(2)),
])
def test_a_stack_raises_the_error_of_the_first_failing_pair_whatever_its_stage(div):
    # the value of (big, half) overflows in the kernel or its gate; -I fails
    # conversion, which runs for every pair before the kernel runs
    big, minus, half, one = 1e308 * np.eye(2), -np.eye(2), 0.5 * np.eye(2), np.eye(2)
    with pytest.raises(NonFiniteResultError) as single:
        div(big, half)
    with pytest.raises(NonFiniteResultError) as stacked:
        div([big, minus], [half, one])
    assert str(stacked.value) == str(single.value)
    with pytest.raises(ValidationError, match="not PSD"):
        div([minus, big], [one, half])


def _counted(monkeypatch, name):
    calls = []
    inner = getattr(dv, name)

    def counted(*args):
        calls.append(len(args[0]))
        return inner(*args)

    monkeypatch.setattr(dv, name, counted)
    return calls


def test_a_stack_that_does_not_fail_runs_each_kernel_once(monkeypatch):
    pairs = _pairs(3)
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    for name, div in (("_sandwich_eigs", lambda: dv.sandwiched_renyi(a, b, 2.0)),
                      ("_sandwich_eigs", lambda: d_fg(a, b, power_fn(-0.5), power_fn(2))),
                      ("_overlaps", lambda: d_fg(a, b, power_fn(-0.5), power_fn(2))),
                      ("_overlaps", lambda: umegaki(a, b))):
        calls = _counted(monkeypatch, name)
        values = div()
        assert len(calls) == 1 and len(values) == len(pairs), name
        monkeypatch.undo()
    # a failing stack runs once more, a pair at a time, up to the first failure
    big, half = PositiveOperator(1e308 * np.eye(2)), PositiveOperator(0.5 * np.eye(2))
    calls = _counted(monkeypatch, "_sandwich_eigs")
    with pytest.raises(NonFiniteResultError):
        sandwiched_core([half, big, half], [half, half, half], 2.0)
    assert calls == [3, 1, 1]


def test_each_side_is_eigendecomposed_at_most_once(monkeypatch):
    # a raw (N, n, n) array is validated by one stacked eigensolver call;
    # operators are stacked from their cached spectra, and a PositiveOperator
    # of unit trace passes Umegaki's density check without a second one
    pairs = _pairs(3)
    a, b = (np.array([p[k].matrix for p in pairs]) for k in (0, 1))
    ops_a, ops_b = ([PositiveOperator(m) for m in side] for side in (a, b))
    want = umegaki(ops_a, ops_b)
    shapes = []
    eig = mc.eig_hermitian
    monkeypatch.setattr(mc, "eig_hermitian",
                        lambda m: shapes.append(np.shape(m)) or eig(m))
    assert [repr(v) for v in umegaki(a, b)] == [repr(v) for v in want]
    assert shapes == [a.shape, b.shape]
    shapes.clear()
    assert [repr(v) for v in umegaki(ops_a, ops_b)] == [repr(v) for v in want]
    assert [repr(v) for v in support_contains(ops_a, ops_b)] == [
        repr(v) for v in support_contains(a, b)]
    assert shapes == [a.shape, b.shape]  # the raw call above; none for operators


def test_stacks_must_come_in_equal_length_pairs():
    one = PositiveOperator(np.eye(2))
    with pytest.raises(ValueError, match="two operators or two stacks"):
        sandwiched_core(one, [one], 2.0)
    with pytest.raises(ValueError, match="stacks of 2 and 1"):
        sandwiched_core([one, one], [one], 2.0)
    for tag, plist in PARAMS.items():
        for params in plist:
            assert make_divergence(tag, **params)([], []) == [], (tag, params)
    assert dv.f_divergence_superop([], [], power_fn(2)) == []
    assert umegaki(np.zeros((0, 2, 2)), []) == []


def test_a_malformed_later_member_raises_its_own_error():
    # the pair-by-pair re-run of a failing stack does not classify its
    # members again, so a (1, 2, 2) member raises its own conversion error
    m = np.eye(2) / 2
    for tag in DIVERGENCE_TAGS:
        div = make_divergence(tag, **PARAMS[tag][0])
        for a, b in (([m, m[None]], [m, m]), ([m, m], [m, m[None]])):
            with pytest.raises(ValueError, match=re.escape(
                    "expected a square matrix, got shape (1, 2, 2)")):
                div(a, b)


def test_two_orders_are_a_dimension_mismatch():
    # the members of a stack have one order: a list mixing n = 2 and n = 3
    # fails though none of its pairs does, as does an n = 2 stack against n = 3
    rng = SeededRng(41)
    two, three = random_density(2, 2, rng), random_density(3, 3, rng)
    divs = [make_divergence(tag, **params)
            for tag in DIVERGENCE_TAGS for params in PARAMS[tag]]
    for div in [*divs, support_contains, supports_orthogonal]:
        for a, b in (([two, three], [two, three]), ([two, two], [three, three])):
            with pytest.raises(ValueError, match="dimension mismatch"):
                div(a, b)
    with pytest.raises(ValueError, match="dimension mismatch"):
        dv.d_fg_limit_probe(two.matrix, three.matrix, power_fn(-0.5), power_fn(2),
                            [1e-1, 1e-2])


def _kraus_ops(n, rng, k=3):
    """k Kraus operators of order n: the n x n blocks of an isometry, the
    first n columns of a Haar unitary of order k n."""
    return haar_unitary(k * n, rng)[:, :n].reshape(k, n, n)


def _maps(n, rng):
    u = haar_unitary(n, rng)
    return [StateMap.unitary_conjugation(u), StateMap.antiunitary_conjugation(u),
            depolarizing_channel(0.3, n), StateMap.kraus_channel(_kraus_ops(n, rng))]


@pytest.mark.parametrize("n", DIMS)
def test_stacked_map_application_equals_the_per_matrix_one(n):
    rng = SeededRng(n)
    states = random_density_matrices(n, [n, 1, max(1, n - 1)] * 5, rng)
    for state_map in _maps(n, rng):
        stacked = state_map.apply(states)
        assert stacked.shape == states.shape
        for s, img in zip(states, stacked):
            assert np.array_equal(state_map.apply(s), img)
        # any leading shape
        assert np.array_equal(state_map.apply(states.reshape(3, 5, n, n)),
                              stacked.reshape(3, 5, n, n))
        # an operand of another order, alone or stacked, is named as such
        for other in (np.eye(n + 1), np.zeros((2, n + 1, n + 1))):
            with pytest.raises(ValueError, match=f"on order {n} got an operand of order {n + 1}"):
                state_map.apply(other)
    with pytest.raises(ValueError, match="square"):
        state_map.apply(np.zeros((2, n, n + 1)))


@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_a_kraus_channel_applies_the_sum_of_its_operators(n):
    rng = SeededRng(60 + n)
    ops = _kraus_ops(n, rng)
    channel = StateMap.kraus_channel(ops)
    assert channel.dim == n
    for a in [*random_density_matrices(n, [n, 1], rng), haar_unitary(n, rng) * 3.0]:
        want = sum(k @ a @ k.conj().T for k in ops)
        assert mc.frobenius(channel.apply(a) - want) <= 1e-14 * mc.frobenius(a)


@pytest.mark.parametrize("n", (2, 5, 16))
def test_stacked_conjugation_check_equals_the_per_state_loop(n):
    rng = SeededRng(40 + n)
    u, other = haar_unitary(n, rng), haar_unitary(n, rng)
    for state_map in _maps(n, rng):
        for kind in ("unitary", "antiunitary"):
            for cand in (u, other):
                rep = verify_conjugation(state_map, cand, kind, n_samples=50, seed=n)
                # the per-state loop over the same pure states, one at a time
                draw = SeededRng(n)
                states = []
                for _ in range(50):
                    x = random_unit_vector(n, draw)
                    states.append(np.outer(x, x.conj()))
                states = np.array(states)
                want = 0.0
                for a in states:
                    want = max(want, mc.frobenius(state_map.apply(a)
                                                  - conjugate_by(cand, kind, a)))
                assert repr(rep.max_deviation) == repr(want)
                assert repr(_conjugation_deviation(
                    cand, kind, states, state_map.apply(states))) == repr(want)
        if state_map.kind == "kraus":
            continue
        # the reconstruction residual, on the probe stack mapped in one call
        probes = wigner_probe_projections(n)
        u_rec, kind, residual = wigner_reconstruct(state_map.apply(probes))
        want = max(mc.frobenius(conjugate_by(u_rec, kind, p) - state_map.apply(p))
                   for p in probes)
        assert kind == state_map.kind and repr(residual) == repr(want)


def test_invariance_reports_call_a_divergence_once_per_stack():
    pairs = invariance_pairs(4, n_samples=30, seed=4)
    maps = _maps(4, SeededRng(5))
    stacks = []

    def counted(a, b):
        stacks.append((len(a), len(b)))
        return umegaki(a, b)

    want = invariance_reports(pairs, maps, [make_divergence("umegaki")], tol=1e-9)
    for div in (umegaki, counted):
        got = invariance_reports(pairs, maps, [div], tol=1e-9)
        assert repr(got) == repr(want)
    # one call on the pairs followed by each map's image pairs
    assert stacks == [((1 + len(maps)) * len(pairs),) * 2]
    rep = check_invariance(maps[2], umegaki, n_samples=30, seed=4)
    assert repr(rep) == repr(want[2][0])


@pytest.mark.parametrize("returns", [
    lambda a, b: umegaki(a[0], b[0]),        # one value, not one per pair
    lambda a, b: umegaki(a, b)[1:],          # one value short
])
def test_a_divergence_must_return_one_value_per_pair(returns):
    pairs = invariance_pairs(3, n_samples=4, seed=4)
    with pytest.raises(TypeError, match="one value per pair"):
        invariance_reports(pairs, [], [returns], tol=1e-9)
