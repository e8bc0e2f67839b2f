import math

import pytest

from qdiv.extended import INF, ExtendedReal, ExtendedRealError, as_extended, \
    fmt_extended


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


def test_coercion():
    assert as_extended(INF) is INF
    assert as_extended(1.0) == ExtendedReal(1.0)
