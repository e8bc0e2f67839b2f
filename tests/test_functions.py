import math

import numpy as np
import pytest

from qdiv.functions import DomainError, ScalarFunctionSpec, bounded_ratio_fn, \
    linear_fn, power_fn, spec_from_name, xlogx_fn


def test_power_positive_exponent():
    f = power_fn(2)
    assert f(3.0) == 9.0
    assert f(0.0) == 0.0
    assert f.gamma == math.inf
    assert f.strictly_increasing and f.injective
    assert f.diverges_at_infinity


def test_power_fractional():
    f = power_fn(0.5)
    assert f(4.0) == 2.0
    assert f.gamma == 0.0


def test_power_negative_exponent():
    f = power_fn(-1)
    assert f(4.0) == 0.25
    assert f.limit_at_zero == math.inf
    with pytest.raises(DomainError):
        f(0.0)


def test_power_identity_gamma():
    assert power_fn(1).gamma == 1.0


def test_xlogx():
    f = xlogx_fn()
    assert f(1.0) == 0.0
    assert f(0.0) == 0.0
    assert abs(f(2.0) - 2.0 * math.log(2.0)) < 1e-15
    assert f.gamma == math.inf
    assert not f.injective


def test_linear():
    f = linear_fn(-3.0)
    assert f(1.0) == 0.0
    assert f(0.0) == 3.0
    assert f.gamma == -3.0
    assert f.injective


def test_bounded_ratio():
    h = bounded_ratio_fn()
    assert h(0.0) == 0.0
    assert h(1.0) == 0.5
    assert h.strictly_increasing and not h.diverges_at_infinity


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        power_fn(2)(-1.0)


def test_flag_spot_check_catches_lies():
    with pytest.raises(DomainError):
        ScalarFunctionSpec(name="bad", fn=lambda t: -t, strictly_increasing=True)
    with pytest.raises(DomainError):
        ScalarFunctionSpec(name="bad", fn=lambda t: 1.0, injective=True)


def test_registry_parse():
    assert spec_from_name("power:0.5").name == "power:0.5"
    assert spec_from_name("xlogx").name == "xlogx"
    assert spec_from_name("linear:-3")(0.0) == 3.0
    with pytest.raises(KeyError):
        spec_from_name("nope")
    with pytest.raises(KeyError):
        spec_from_name("power")
    with pytest.raises(KeyError):
        spec_from_name("xlogx:1")
    with pytest.raises(KeyError):
        spec_from_name("power:abc")


def test_undeclared_zero_raises():
    f = ScalarFunctionSpec(name="opaque", fn=lambda t: t + 1.0)
    with pytest.raises(DomainError):
        f(0.0)


def test_perspective_spot_check_catches_lies():
    with pytest.raises(DomainError, match="perspective"):
        ScalarFunctionSpec(name="bad", fn=lambda t: t * t,
                           perspective=lambda lam, mu: lam * lam)


def test_declared_perspectives_agree_with_the_direct_form():
    for f in (power_fn(2), power_fn(0.5), power_fn(-1), power_fn(0), xlogx_fn(),
              linear_fn(-3)):
        for lam, mu in ((0.3, 0.7), (2.0, 1e-3), (1e-5, 4.0)):
            want = mu * f(lam / mu)
            assert f.perspective(lam, mu) == pytest.approx(want, rel=1e-14, abs=1e-300)


# ------------------------------------------------- whole-spectrum calls

@pytest.mark.parametrize("name", ["power:2", "power:0.5", "power:0", "power:-1",
                                  "power:-0.5", "xlogx", "linear:-3", "linear:2"])
def test_array_call_is_the_scalar_call_entry_by_entry(name):
    f = spec_from_name(name)
    t = np.array([[0.0, 1e-300, 0.3], [1.0, 2.5, 1e10]])
    if f.limit_at_zero == math.inf:
        t[0, 0] = 0.7
    got = f(t)
    assert isinstance(got, np.ndarray) and got.shape == t.shape
    assert got.tolist() == [[f(x) for x in row] for row in t.tolist()]
    assert type(f(2.0)) is float and type(f(np.float64(2.0))) is float


def test_array_call_checks_every_entry():
    with pytest.raises(DomainError, match="negative"):
        power_fn(2)(np.array([1.0, -2.0, 3.0]))
    for f in (power_fn(-1), ScalarFunctionSpec(name="opaque", fn=lambda t: t + 1.0)):
        with pytest.raises(DomainError, match="undefined at 0"):
            f(np.array([1.0, 0.0]))
    assert linear_fn(-3.0)(np.array([0.0, 1.0])).tolist() == [3.0, 0.0]


def test_a_scalar_result_broadcasts():
    const = ScalarFunctionSpec(name="one", fn=lambda t: 1.0, limit_at_zero=1.0)
    assert const(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]
    assert const(np.array([0.5, 2.0])).tolist() == [1.0, 1.0]


def test_fn_that_takes_only_floats_fails_at_construction():
    with pytest.raises(TypeError):
        ScalarFunctionSpec(name="m", fn=math.log)
