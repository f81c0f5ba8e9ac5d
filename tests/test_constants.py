"""Named constants: dual quadratures, closed forms, argmin scan.

The integral has a closed form in dilogarithms; mpmath evaluates it as the
independent oracle for the frozen value.
"""

import math

import mpmath
import pytest

from pretentious.constants import (
    all_constants,
    delta0,
    delta1,
    repulsion_constant,
    repulsion_minimum,
)
from pretentious.errors import PreconditionError

DELTA1 = -0.6569990137169279  # mpmath dilogarithm closed form, frozen


def test_delta1_frozen_value():
    d = delta1()
    assert d.value == pytest.approx(DELTA1, abs=1e-12)
    assert d.estimated_error <= 1e-9
    assert d.name == "delta1"


def test_delta1_against_dilogarithm():
    # integral_1^sqrt(e) log t/(t+1) dt
    #   = (1/2) log(1 + sqrt(e)) + Li2(-sqrt(e)) - Li2(-1)  by parts
    mpmath.mp.dps = 30
    se = mpmath.sqrt(mpmath.e)
    integral = mpmath.log(1 + se) / 2 + mpmath.polylog(2, -se) - mpmath.polylog(2, -1)
    closed = float(1 - 2 * mpmath.log(1 + se) + 4 * integral)
    assert delta1().value == pytest.approx(closed, abs=1e-12)
    assert closed == pytest.approx(DELTA1, abs=1e-15)


def test_delta1_tolerance_scaling():
    loose = delta1(1e-6)
    tight = delta1(1e-12)
    assert loose.value == pytest.approx(tight.value, abs=1e-6)
    assert tight.value == pytest.approx(DELTA1, abs=1e-13)


def test_delta1_rejects_tolerance_below_floor():
    with pytest.raises(PreconditionError):
        delta1(1e-13)


def test_delta1_rejects_nan_tolerance():
    # a NaN tolerance slips past a plain `< floor` check and never converges
    with pytest.raises(PreconditionError):
        delta1(math.nan)


def test_delta0_is_midpoint():
    d0 = delta0()
    d1 = delta1()
    assert d0.value == pytest.approx((1 + d1.value) / 2, abs=1e-15)
    assert d0.value == pytest.approx(0.17150049314153604, abs=1e-12)
    # about 17.15% of the progression mass survives in square classes
    assert 0.17 < d0.value < 0.172


def test_integrand_vanishes_at_one():
    # log 1 = 0 pins the integrand at the left endpoint
    from pretentious.constants import _integrand

    assert _integrand(1.0) == 0.0
    assert _integrand(math.sqrt(math.e)) == pytest.approx(
        0.5 / (1 + math.sqrt(math.e))
    )


def test_repulsion_closed_forms():
    assert repulsion_constant(3) == pytest.approx(1 - 1 / (3 * math.sin(math.pi / 6)))
    assert repulsion_constant(3) == pytest.approx(1 / 3, abs=1e-12)
    assert repulsion_constant(2) == pytest.approx(1 - 1 / (2 * math.tan(math.pi / 4)))
    assert repulsion_constant(2) == pytest.approx(0.5, abs=1e-15)
    assert repulsion_constant(4) == pytest.approx(1 - 1 / (4 * math.tan(math.pi / 8)))
    assert repulsion_constant(5) == pytest.approx(1 - 1 / (5 * math.sin(math.pi / 10)))
    assert repulsion_constant("continuous") == pytest.approx(1 - 2 / math.pi, abs=1e-15)


def test_repulsion_returns_bare_float():
    v = repulsion_constant(3)
    assert isinstance(v, float)
    assert v == 0.33333333333333326


def test_repulsion_rejects_bad_orders():
    for bad in (1, 0, -3, 2.5, "cont", None):
        with pytest.raises(PreconditionError):
            repulsion_constant(bad)


def test_repulsion_minimum_at_three():
    val, arg = repulsion_minimum()
    assert arg == 3
    assert val == pytest.approx(1 / 3, abs=1e-12)
    # every integer order and the continuous phase sit above the m = 3 value
    assert repulsion_constant("continuous") > val
    for m in range(2, 200):
        assert repulsion_constant(m) >= val - 1e-15


def test_repulsion_minimum_small_range():
    val, arg = repulsion_minimum(2)
    assert arg == 2 and val == pytest.approx(0.5)
    with pytest.raises(PreconditionError):
        repulsion_minimum(1)


def test_repulsion_large_m_limit():
    # m sin(pi/2m) and m tan(pi/2m) both tend to pi/2
    assert repulsion_constant(10**6) == pytest.approx(1 - 2 / math.pi, abs=1e-11)
    assert repulsion_constant(10**6 + 1) == pytest.approx(1 - 2 / math.pi, abs=1e-11)


def test_all_constants_listing():
    consts = all_constants()
    names = [c.name for c in consts]
    assert names == ["delta1", "delta0", "repulsion_m3", "repulsion_continuous"]
    by_name = {c.name: c.value for c in consts}
    assert by_name["delta1"] == pytest.approx(DELTA1, abs=1e-12)
    assert by_name["repulsion_m3"] == pytest.approx(1 / 3, abs=1e-12)
