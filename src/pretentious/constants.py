"""Named constants of the theory, computed rather than hardcoded.

delta1 = 1 - 2 log(1 + sqrt(e)) + 4 * integral_1^sqrt(e) (log t)/(t+1) dt
       = -0.656999...

is the asymptotic infimum of normalized progression sums over square
classes; delta0 = (1 + delta1)/2 = 0.1715... is the corresponding lower
bound on how much of a progression's mass survives.  The integral runs
through two quadrature rules (adaptive Simpson and Romberg) that must
agree on one integrand, which the tests check against its closed form.

repulsion_constant(m) = 1 - 1/(m sin(pi/2m))    (m odd)
                        1 - 1/(m tan(pi/2m))    (m even)

is the coefficient of loglog x in the floor for the second-best twist
distance when the best approximation has order m; the continuous-phase
version is 1 - 2/pi and the minimum over all m >= 2 is 1/3, at m = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

DEFAULT_TOLERANCE = 1e-10
_MIN_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ConstantValue:
    name: str
    value: float
    method: str
    estimated_error: float


def _integrand(t: float) -> float:
    return math.log(t) / (t + 1.0)


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    def simpson(lo, mid, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = (lo + hi) / 2.0
        lm, rm = (lo + mid) / 2.0, (mid + hi) / 2.0
        flm, frm = f(lm), f(rm)
        left = simpson(lo, lm, mid, flo, flm, fmid)
        right = simpson(mid, rm, hi, fmid, frm, fhi)
        if depth > 60:
            return left + right
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth + 1)
                + recurse(mid, hi, fmid, frm, fhi, right, eps / 2.0, depth + 1))

    mid = (a + b) / 2.0
    fa, fm, fb = f(a), f(mid), f(b)
    whole = simpson(a, mid, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def _romberg(f, a: float, b: float, tol: float, max_level: int = 24) -> float:
    h = b - a
    rows = [[(f(a) + f(b)) * h / 2.0]]
    for k in range(1, max_level):
        h /= 2.0
        mids = a + h * np.arange(1, 2**k, 2)
        trap = rows[-1][0] / 2.0 + h * float(np.sum([f(float(t)) for t in mids]))
        row = [trap]
        for j in range(1, k + 1):
            row.append(row[j - 1] + (row[j - 1] - rows[-1][j - 1]) / (4.0**j - 1.0))
        if k > 3 and abs(row[-1] - rows[-1][-1]) < tol / 4.0:
            return row[-1]
        rows.append(row)
    return rows[-1][-1]


def delta1(tolerance: float = DEFAULT_TOLERANCE) -> ConstantValue:
    """The square-class infimum constant, two quadratures deep."""
    if not tolerance >= _MIN_TOLERANCE:  # NaN fails this too
        raise PreconditionError(f"tolerance must be >= {_MIN_TOLERANCE}")
    lo, hi = 1.0, math.sqrt(math.e)
    i1 = _adaptive_simpson(_integrand, lo, hi, tolerance / 64.0)
    i2 = _romberg(_integrand, lo, hi, tolerance / 64.0)
    if abs(i1 - i2) > tolerance:
        raise AssertionError(
            f"quadratures disagree: simpson {i1!r} vs romberg {i2!r}"
        )
    value = 1.0 - 2.0 * math.log(1.0 + hi) + 4.0 * i1
    return ConstantValue(
        name="delta1", value=value, method="adaptive-simpson/romberg",
        estimated_error=max(abs(i1 - i2) * 4.0, 1e-15),
    )


def delta0(tolerance: float = DEFAULT_TOLERANCE) -> ConstantValue:
    """(1 + delta1)/2: the guaranteed surviving fraction, about 17.15%."""
    d1 = delta1(tolerance)
    return ConstantValue(
        name="delta0", value=(1.0 + d1.value) / 2.0, method=d1.method,
        estimated_error=d1.estimated_error / 2.0,
    )


def repulsion_constant(m) -> float:
    """Coefficient of loglog x in the order-m second-distance floor.

    Accepts an integer m >= 2 or the string "continuous" for the
    free-phase limit 1 - 2/pi.
    """
    if m == "continuous":
        return 1.0 - 2.0 / math.pi
    if not isinstance(m, int) or m < 2:
        raise PreconditionError(f"order must be an int >= 2 or 'continuous', got {m!r}")
    half = math.pi / (2.0 * m)
    if m % 2:
        return 1.0 - 1.0 / (m * math.sin(half))
    return 1.0 - 1.0 / (m * math.tan(half))


def repulsion_minimum(m_max: int = 10**6) -> tuple[float, int]:
    """(min, argmin) of repulsion_constant over integer orders 2..m_max."""
    if m_max < 2:
        raise PreconditionError("m_max must be >= 2")
    ms = np.arange(2, m_max + 1, dtype=np.float64)
    half = math.pi / (2.0 * ms)
    odd = (np.arange(2, m_max + 1) % 2) == 1
    vals = np.where(odd, 1.0 - 1.0 / (ms * np.sin(half)), 1.0 - 1.0 / (ms * np.tan(half)))
    i = int(np.argmin(vals))
    return float(vals[i]), i + 2


def all_constants(tolerance: float = DEFAULT_TOLERANCE) -> list[ConstantValue]:
    d1 = delta1(tolerance)
    d0 = delta0(tolerance)
    cont = ConstantValue(name="repulsion_continuous", value=repulsion_constant("continuous"),
                         method="closed-form", estimated_error=1e-16)
    m3 = ConstantValue(name="repulsion_m3", value=repulsion_constant(3),
                       method="closed-form", estimated_error=1e-16)
    return [d1, d0, m3, cont]
