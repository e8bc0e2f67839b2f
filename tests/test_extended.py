import json
import math

import pytest

from qdiv.extended import INF, ExtendedReal, ExtendedRealError, fmt_extended


def test_rejects_nan_and_minus_inf():
    with pytest.raises(ExtendedRealError):
        ExtendedReal(float("nan"))
    with pytest.raises(ExtendedRealError):
        ExtendedReal(-math.inf)


def test_immutable():
    x = ExtendedReal(1.0)
    with pytest.raises(AttributeError):
        x.value = 2.0


def test_ordering_and_float():
    assert float(INF) == math.inf
    assert float(ExtendedReal(2.0)) == 2.0


def test_formatting():
    assert fmt_extended(INF) == "inf"
    assert fmt_extended(0.0) == "0.000000000000"
    assert fmt_extended(math.log(2.0)) == "0.693147180560"


def test_is_a_float_with_floats_equality_hash_and_text():
    x = ExtendedReal(1.5)
    assert isinstance(x, float) and x == 1.5 and hash(x) == hash(1.5)
    assert repr(x) == "1.5" and repr(INF) == "inf"
    assert json.dumps({"v": x}) == json.dumps({"v": 1.5})
    assert INF == math.inf and INF.is_inf and not INF.is_finite
    assert x.value == 1.5 and type(x.value) is float
    with pytest.raises(AttributeError):
        x.other = 1.0
