"""Adaptive oscillatory integrals and stationary-phase decay bounds."""

import numpy as np
import pytest
from scipy import special

from _oracles import vdc_ratio_scan
from inghamlab import oscint
from inghamlab.errors import InadmissibleEta, ToleranceNotMet

TWO_PI = 2.0 * np.pi


def _simpson_oracle(d, e, curve, T, n_points=200_001):
    t = np.linspace(0.0, T, n_points)
    h = t[1] - t[0]
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    f = np.exp(2j * np.pi * (d * curve.p(t) + e * t))
    return (h / 3.0) * np.dot(w, f)


def test_diagonal_pairs_integrate_exactly(mono2, mono3):
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(-40, 41))
        s = float(rng.uniform(1.1, 3.0))
        T = float(rng.uniform(0.3, 5.0))
        for curve in (mono2, mono3):
            res = oscint.oscillatory_integral(n, n, s, curve, T)
            assert res.value == complex(T)
            assert res.abs_error_estimate == 0.0
            assert res.panels == 1


def test_pure_quadratic_phase_matches_fresnel(mono2):
    # int_0^T exp(2 pi i t^2) dt = (C(2T) + i S(2T)) / 2 in the scipy
    # normalization S, C = fresnel(z) with integrand sin/cos(pi u^2 / 2).
    for T in (0.5, 1.0, 2.0):
        S, C = special.fresnel(2.0 * T)
        want = 0.5 * (C + 1j * S)
        res = oscint.phase_integral(1.0, 0.0, mono2, T)
        assert abs(res.value - want) < 1e-9
        assert res.abs_error_estimate < 1e-9


def test_conjugating_both_multipliers_conjugates_the_integral(mono3):
    a = oscint.phase_integral(3.0, -7.7, mono3, 2.0)
    b = oscint.phase_integral(-3.0, 7.7, mono3, 2.0)
    assert abs(a.value - np.conj(b.value)) < 2e-9


def test_adaptive_matches_simpson_oracle(mono2, mono3):
    cases = [
        (4.0, -2.3, 2.0), (1.0, -1.0, 2.0), (-6.0, 0.4, 1.5), (9.0, 9.0, 1.0),
    ]
    for curve in (mono2, mono3):
        for d, e, T in cases:
            want = _simpson_oracle(d, e, curve, T)
            got = oscint.phase_integral(d, e, curve, T).value
            assert abs(got - want) < 1e-7


def test_tabulated_curve_matches_piecewise_linear_closed_form():
    # p = t^2 tabulated on 41 points is piecewise linear, so on each
    # segment [a, a + h] the phase is A + B t and the integral is
    # h exp(i (A + B (a + h/2))) sinc(B h / 2 pi).  Kinks inside a panel
    # would hide from the |K21 - G10| estimate.
    from inghamlab.curves import build_curve
    t = np.linspace(0.0, 4.0, 41)
    p = t ** 2
    curve = build_curve("UserTabulated", {"t": t, "p": p, "dp": 2.0 * t,
                                          "d2p": np.full_like(t, 2.0)})
    s, T, tol = 2.5, 4.0, 4e-10
    a, h = t[:-1], np.diff(t)
    slope = np.diff(p) / h
    worst = 0.0
    for n in range(-12, 13):
        for m in range(-12, n):
            d, e = n - m, abs(n) ** s - abs(m) ** s
            B = TWO_PI * (d * slope + e)
            A = TWO_PI * d * (p[:-1] - slope * a)
            exact = np.sum(h * np.exp(1j * (A + B * (a + h / 2)))
                           * np.sinc(B * h / TWO_PI))
            res = oscint.oscillatory_integral(n, m, s, curve, T, tol)
            worst = max(worst, abs(res.value - exact))
    assert worst <= tol


def test_stationary_point_location(mono2):
    # phi'(t) = 1 + A p'(t) with signed A = (n - m) / (|n|^s - |m|^s):
    # the pair (0, -1) at s = 2 gives A = -1 and a root at t = 1/2.
    def roots(n, m):
        return oscint.oscillatory_integral(n, m, 2.0, mono2, 2.0) \
            .stationary_points

    assert roots(0, -1) == pytest.approx([0.5], abs=1e-12)
    assert roots(0, 1) == []
    assert roots(-1, 0) == pytest.approx([0.5], abs=1e-12)
    with pytest.raises(ValueError):
        oscint.oscillatory_integral(0, 1, 2.0, mono2, 0.0)


def test_tolerance_controls_the_error(mono2):
    loose = oscint.phase_integral(12.0, -5.0, mono2, 2.0, tol=1e-6)
    tight = oscint.phase_integral(12.0, -5.0, mono2, 2.0, tol=1e-12)
    assert loose.abs_error_estimate <= 1e-6
    assert tight.abs_error_estimate <= 1e-12
    assert abs(loose.value - tight.value) < 1e-6
    assert loose.panels <= tight.panels


def test_smooth_phase_panels_hold_more_than_half_an_oscillation(mono2):
    # No stationary point on [0, 2]: psi' = 2 pi (48 t + 40) > 0.  Panels
    # of at most half an oscillation would need at least
    # |psi(T) - psi(0)| / pi of them; the K21/G10 certificate lets each
    # hold more.
    d, e, T = 24.0, 40.0, 2.0
    res = oscint.phase_integral(d, e, mono2, T, tol=1e-9)
    assert res.stationary_points == []
    assert res.abs_error_estimate <= 1e-9
    phase_change = TWO_PI * abs(d * (T ** 2) + e * T)
    assert res.panels < phase_change / np.pi


def test_exhausted_panel_budget_raises(mono2, monkeypatch):
    monkeypatch.setattr(oscint, "_PANEL_BUDGET", 4)
    with pytest.raises(ToleranceNotMet):
        oscint.phase_integral(5e4, 1.0, mono2, 2.0, tol=1e-13)


def test_weighted_integrals(mono2):
    res = oscint.phase_integral(0.0, 0.0, mono2, 2.0, weight=lambda t: t)
    assert abs(res.value - 2.0) < 1e-12
    res = oscint.oscillatory_integral(3, 3, 2.0, mono2, 2.0, weight=lambda t: t)
    assert abs(res.value - 2.0) < 1e-12


def test_degenerate_arguments_raise(mono2):
    with pytest.raises(ValueError):
        oscint.phase_integral(1.0, 0.0, mono2, 0.0)
    with pytest.raises(ValueError):
        oscint.phase_integral(1.0, 0.0, mono2, -1.0)
    with pytest.raises(ValueError):
        oscint.phase_integral(1.0, 0.0, mono2, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        oscint.oscillatory_integral(2, 2, 2.0, mono2, 0.0)


def test_eta_admissible_range_and_checks():
    # Wide regime s >= 1 + 1/alpha: eta in (-(alpha-1), 1].
    lo, hi, inclusive = oscint.eta_admissible_range(2.0, 2.0)
    assert (lo, hi, inclusive) == (-1.0, 1.0, True)
    oscint.check_eta(1.0, 2.0, 2.0)
    oscint.check_eta(-0.99, 2.0, 2.0)
    with pytest.raises(InadmissibleEta):
        oscint.check_eta(-1.0, 2.0, 2.0)
    with pytest.raises(InadmissibleEta):
        oscint.check_eta(1.01, 2.0, 2.0)
    # Narrow regime 1 < s < 1 + 1/alpha: open upper end (s-1)(alpha-1)/(2-s).
    lo, hi, inclusive = oscint.eta_admissible_range(1.25, 2.0)
    assert lo == -1.0 and not inclusive
    assert hi == pytest.approx(0.25 / 0.75)
    oscint.check_eta(0.3, 1.25, 2.0)
    with pytest.raises(InadmissibleEta):
        oscint.check_eta(hi, 1.25, 2.0)
    assert oscint.default_eta(2.0, 2.0) == 1.0
    assert oscint.default_eta(1.25, 2.0) == pytest.approx(0.5 * hi)


def test_window_floors(mono2):
    assert oscint.antidiagonal_t0(mono2) \
        == pytest.approx(np.sqrt(3.0 / (8.0 * np.pi)))


def test_theoretical_bounds_by_tag(mono2):
    # tau = 2 c2 T^(alpha-1) = 8 for the parabola at T = 2.
    assert oscint.vdc_theoretical_bound(4, 4, 2.0, mono2, 2.0) is None
    assert oscint.vdc_theoretical_bound(3, -3, 2.0, mono2, 2.0) \
        == pytest.approx(3.0 ** -0.5)
    # (5, 4): ratio 9 > 0, a good pair with bound 1 / ||n|^s - |m|^s|.
    assert oscint.vdc_theoretical_bound(5, 4, 2.0, mono2, 2.0) \
        == pytest.approx(1.0 / 9.0)
    # (1, -9): ratio -8 = -tau lands in GoodMinus, |1 - 81| = 80.
    assert oscint.vdc_theoretical_bound(1, -9, 2.0, mono2, 2.0) \
        == pytest.approx(1.0 / 80.0)
    # (1, -2): ratio -1 in (-tau, 0), a bad pair; eta is mandatory there.
    with pytest.raises(InadmissibleEta):
        oscint.vdc_theoretical_bound(1, -2, 2.0, mono2, 2.0)
    got = oscint.vdc_theoretical_bound(1, -2, 2.0, mono2, 2.0, eta=0.5)
    assert got == pytest.approx(2.0 ** 0.25 * 3.0 ** -0.5)
    with pytest.raises(InadmissibleEta):
        oscint.vdc_theoretical_bound(1, -2, 2.0, mono2, 2.0, eta=5.0)


def test_ratio_scan_stays_bounded(mono2):
    scan = vdc_ratio_scan(mono2, 2.0, 2.0, 4)
    assert scan.pairs == 36
    assert 0.0 < scan.max_ratio < 5.0
    assert isinstance(scan.argmax, tuple)
