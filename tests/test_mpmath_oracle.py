"""Independent 30-digit mpmath checks of the pair integrals and the
curve-Gram entries, on hypothesis-drawn pairs.

The reference integrates exp(2 pi i (d p(t) + e t)) w(t) with mpmath.quad
on pieces of at most one oscillation each, with p and its derivative
written out again here in mpmath: nothing is shared with the engine.
Each drawn case checks three things:

- oscillatory_integral is within its tol of the reference;
- its abs_error_estimate bounds the true error, with no allowance for
  rounding: the estimate carries its own rounding term;
- the matching entry of the two-index curve Gram is within tol / J.

The Muntz curve t^(1/2) + t^(5/2) is drawn with the Lebesgue weight only:
its arc-length weight blows up like t^(-1/2) at 0, where halving panels
converges too slowly to meet a tight tol.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from inghamlab import curves, oscint, riesz

TOL = 1e-9
# Each reference piece holds at most one oscillation, and a case holds at
# most this many cycles, which keeps one case under about half a second.
_MAX_CYCLES = 40.0

# derandomize: every run draws the same cases.
_SETTINGS = settings(max_examples=5, derandomize=True, deadline=None,
                     database=None, suppress_health_check=[HealthCheck.too_slow])
_STATIONARY_SETTINGS = settings(_SETTINGS, max_examples=3)


def _monomial(alpha):
    a = float(alpha)
    return (("Monomial", {"a": 0.0, "b": 1.0, "alpha": a}),
            lambda t: t ** alpha, lambda t: alpha * t ** (alpha - 1),
            lambda t: t ** a, lambda t: a * t ** (a - 1))


def _arctan(t):
    return (1 + 2 / mpmath.pi * mpmath.atan(t)) * t ** 3 / 3


def _arctan_dp(t):
    return (2 / (3 * mpmath.pi * (1 + t * t)) * t ** 3
            + (1 + 2 / mpmath.pi * mpmath.atan(t)) * t * t)


# name -> (curve spec, p and p' on mpf arguments, p and p' on float arrays)
_CURVES = {
    "mono2": _monomial(2),
    "mono3": _monomial(3),
    "mono1.5": _monomial(mpmath.mpf(3) / 2),
    "arctan": (("ArctanModulated", {}), _arctan, _arctan_dp,
               lambda t: (1 + 2 / np.pi * np.arctan(t)) * t ** 3 / 3,
               lambda t: (2 / (3 * np.pi * (1 + t * t)) * t ** 3
                          + (1 + 2 / np.pi * np.arctan(t)) * t * t)),
    "muntz": (("Muntz", {"coefficients": [[1.0, 0.5], [1.0, 2.5]], "t0": 0.0}),
              lambda t: mpmath.sqrt(t) + t ** mpmath.mpf(2.5),
              lambda t: 1 / (2 * mpmath.sqrt(t)) + mpmath.mpf(2.5) * t ** 1.5,
              lambda t: np.sqrt(t) + t ** 2.5,
              lambda t: 0.5 / np.sqrt(t) + 2.5 * t ** 1.5),
}
_BUILT = {name: curves.build_curve(*c[0]) for name, c in _CURVES.items()}


def _turned(name, d, e, grid):
    """Cycles turned by d p(t) + e t from grid[0] to each grid point."""
    phase = d * _CURVES[name][3](grid) + e * grid
    return np.concatenate([[0.0], np.cumsum(np.abs(np.diff(phase)))])


def _cycles(name, d, e, T):
    """Total variation of d p(t) + e t over [0, T], on a fine grid."""
    return float(_turned(name, d, e, np.linspace(0.0, T, 2001))[-1])


def _reference(name, d, e, T, arclength):
    """30-digit value of integral_0^T exp(2 pi i (d p + e t)) w dt, on pieces
    split where the phase has turned by one more cycle."""
    _, p, dp, _, _ = _CURVES[name]
    grid = np.linspace(0.0, T, 4001)
    turned = _turned(name, d, e, grid)
    cuts = np.unique(np.searchsorted(turned, np.arange(1.0, turned[-1], 1.0)))
    with mpmath.workdps(30):
        d, e = mpmath.mpf(d), mpmath.mpf(e)

        def f(t):
            val = mpmath.expj(2 * mpmath.pi * (d * p(t) + e * t))
            return val * mpmath.sqrt(1 + dp(t) ** 2) if arclength else val

        pts = [mpmath.mpf(0)] + [mpmath.mpf(float(grid[k])) for k in cuts
                                 if 0 < k < grid.size - 1] + [mpmath.mpf(T)]
        return complex(mpmath.quad(f, pts))


def _check(name, n, m, s, T, arclength=False):
    curve = _BUILT[name]
    d, e = n - m, abs(n) ** s - abs(m) ** s
    exact = _reference(name, d, e, T, arclength)
    w = (lambda t: np.sqrt(1.0 + curve.dp(t) ** 2)) if arclength else None
    res = oscint.oscillatory_integral(n, m, s, curve, T, tol=TOL, weight=w)
    err = abs(res.value - exact)
    case = (name, n, m, s, T, arclength, err, res.abs_error_estimate)
    assert err <= TOL, case
    assert err <= res.abs_error_estimate, case
    idx = sorted((n, m))
    system = riesz.curve_system(idx, s, curve, T,
                                weight="arclength" if arclength else "lebesgue")
    G = riesz.gram_matrix(system, tol=TOL).entries
    entry = G[idx.index(n), idx.index(m)]
    assert abs(entry - exact) <= TOL / len(idx), case + (abs(entry - exact),)
    return res


def _capped_T(name, d, e, T):
    """T, shrunk by factors of 0.8 until the phase holds at most
    _MAX_CYCLES cycles."""
    while _cycles(name, d, e, T) > _MAX_CYCLES:
        T *= 0.8
    return T


@st.composite
def _pairs(draw, name):
    n = draw(st.integers(-12, 12))
    m = draw(st.integers(-12, 12).filter(lambda k: k != n))
    s = draw(st.sampled_from((1.2, 1.5, 2.0, 2.5)))
    T = draw(st.floats(0.3, 2.0))
    arclength = name != "muntz" and draw(st.booleans())
    return n, m, s, _capped_T(name, n - m, abs(n) ** s - abs(m) ** s, T), arclength


@pytest.mark.parametrize("name", list(_CURVES))
def test_pairs_match_mpmath(name):
    @_SETTINGS
    @given(_pairs(name))
    def check(case):
        _check(name, *case)
    check()


@st.composite
def _large_pairs(draw):
    # |n| from 30 to 80 with m = +-n + k for a small k: the antidiagonal
    # and its neighbours keep the phase moderate at large |n|.
    name = draw(st.sampled_from(list(_CURVES)))
    n = draw(st.integers(30, 80)) * draw(st.sampled_from((1, -1)))
    m = draw(st.sampled_from((1, -1))) * n + draw(st.integers(-2, 2))
    if m == n:
        m += 1
    s = draw(st.sampled_from((1.2, 1.5, 2.0)))
    T = draw(st.floats(0.05, 1.0))
    return name, n, m, s, _capped_T(name, n - m, abs(n) ** s - abs(m) ** s, T)


@settings(_SETTINGS, max_examples=8)
@given(_large_pairs())
def test_large_index_pairs_match_mpmath(case):
    _check(*case)


def _stationary_cases(name, lo, hi):
    """(n, m, s, T) with exactly one stationary point t* of the pair's
    phase on the curve, where t* / T lies in [lo, hi] and the phase holds
    at most _MAX_CYCLES cycles."""
    t = np.geomspace(1e-6, 8.0, 200_001)
    dp = _CURVES[name][4](t)   # increasing from p'(0) = 0
    cases = []
    for n in range(-12, 13):
        for m in range(-12, 13):
            for s in (1.2, 1.5, 2.0):
                d, e = n - m, abs(n) ** s - abs(m) ** s
                if d == 0 or e == 0 or (d > 0) == (e > 0):
                    continue
                star = float(np.interp(-e / d, dp, t))   # d p'(t*) + e = 0
                for u in np.linspace(lo, hi, 3):
                    T = star / u
                    if 0.05 <= T <= 4.0 and _cycles(name, d, e, T) <= _MAX_CYCLES:
                        cases.append((n, m, s, T))
    return cases


# t* / T bands near 0 and near T.  On the alpha = 3 curves the phase
# grows like t^3 past t*, so with |n|, |m| <= 12 the 40-cycle budget
# reaches down to t* / T = 0.1 only.
_BANDS = [(name, lo, hi) for name in ("mono2", "mono3", "mono1.5", "arctan")
          for lo, hi in ((0.1, 0.2) if name in ("mono3", "arctan")
                         else (0.02, 0.08), (0.92, 0.99))]


@pytest.mark.parametrize("name, lo, hi", _BANDS)
def test_stationary_points_near_the_ends_match_mpmath(name, lo, hi):
    @_STATIONARY_SETTINGS
    @given(st.sampled_from(_stationary_cases(name, lo, hi)))
    def check(case):
        assert _check(name, *case).stationary_points
    check()


@pytest.mark.parametrize("name, n, m, s, T", [
    ("mono2", 30, 31, 1.2, 0.05), ("mono3", -5, -4, 1.2, 0.7696)])
def test_error_estimate_bounds_rounding_level_errors(name, n, m, s, T):
    # Smooth integrals of little phase: the Kronrod-Gauss discrepancy
    # alone reads below the true error, which is at rounding level.
    _check(name, n, m, s, T)
