import math

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
