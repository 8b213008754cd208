"""Curve admissibility checks and planar measure construction."""

import json

import numpy as np
import pytest
from scipy import integrate, special

from _oracles import curve_to_dict, measure_to_dict
from inghamlab import curves
from inghamlab.errors import InsufficientDecay, NonAdmissible

TWO_PI = 2.0 * np.pi

# Envelope antinodes of J0(2*pi*R): the oscillatory factor is exactly 1
# there up to O(R^-2), so a log fit of the sampled sup recovers the
# envelope exponent instead of scatter from the Bessel zeros.
BESSEL_ANTINODE_RADII = np.arange(26) * 0.5 + 0.125

# J0(2*pi*r) at 20 significant digits (mpmath, 40 dps working precision).
BESSEL_LITERALS = {
    0.76: -0.24776636870974192112,
    5.0: 0.10025099457300633708,
    20.0: 0.050278926495896048485,
}


# ---------------------------------------------------------------------------
# curve constructors and validation
# ---------------------------------------------------------------------------

def test_monomial_parabola_constants(mono2):
    assert mono2.alpha == 2.0
    assert (mono2.c1, mono2.c2, mono2.c3) == (2.0, 2.0, 2.0)
    report = curves.validate_H_alpha(mono2, 10.0)
    assert report.passed
    assert report.sign_constant
    assert report.lower_ratio_min >= 1.0 - 1e-9
    assert report.upper_ratio_max <= 1.0 + 1e-9
    assert report.failures == []


def test_monomial_cubic_constants(mono3):
    assert mono3.alpha == 3.0
    assert (mono3.c1, mono3.c2, mono3.c3) == (3.0, 3.0, 6.0)
    assert curves.validate_H_alpha(mono3, 10.0).passed


def test_arctan_modulated_is_admissible(arctan3):
    assert arctan3.alpha == 3.0
    assert (arctan3.c1, arctan3.c2, arctan3.c3) == (1.0, 2.0, 2.0)
    # At t = 1 the modulation factor is (1 + 1/2) / 3 = 1/2.
    assert arctan3.p(1.0) == pytest.approx(0.5, abs=1e-15)
    assert curves.validate_H_alpha(arctan3, 10.0).passed


def test_affine_always_fails_validation():
    line = curves.build_curve("Affine", {"slope": 2.0, "intercept": 1.0})
    assert line.alpha == 1.0
    report = curves.validate_H_alpha(line, 10.0)
    assert not report.passed
    assert any("curvature" in msg for msg in report.failures)


def test_muntz_single_term_finds_zero_shift():
    c = curves.build_curve("Muntz", {"coefficients": [[1.0, 3.0]]})
    assert c.params["t0"] == 0.0
    assert c.alpha == 3.0
    assert (c.c1, c.c2, c.c3) == (1.5, 4.5, 3.0)
    assert curves.validate_H_alpha(c, 10.0).passed


def test_muntz_explicit_shift_is_honored():
    c = curves.build_curve("Muntz", {"coefficients": [[2.0, 2.5]], "t0": 0.0})
    assert c.alpha == 2.5
    assert (c.c1, c.c2, c.c3) == (2.5, 7.5, 3.75)
    assert curves.validate_H_alpha(c, 10.0).passed


def test_muntz_multi_term_has_no_admissible_shift():
    # With a lower-order term present, p'(t0 + t) stays bounded away from
    # zero as t -> 0 while the declared envelope c2 * t^(alpha-1) vanishes,
    # so no shift can satisfy the two-sided derivative bound.
    with pytest.raises(NonAdmissible):
        curves.build_curve("Muntz", {"coefficients": [[1.0, 1.5], [0.5, 2.5]]})


def test_monomial_rejects_degenerate_parameters():
    with pytest.raises(NonAdmissible):
        curves.build_curve("Monomial", {"a": 0.0, "b": 1.0, "alpha": 1.0})
    with pytest.raises(NonAdmissible):
        curves.build_curve("Monomial", {"a": 0.0, "b": 1.0, "alpha": 0.5})
    with pytest.raises(NonAdmissible):
        curves.build_curve("Monomial", {"a": 0.0, "b": 0.0, "alpha": 2.0})


def test_unknown_curve_kind_raises():
    with pytest.raises(ValueError):
        curves.build_curve("Nonsense", {})
    with pytest.raises(ValueError, match="Nonsense"):
        curves.CurveSpec("Nonsense", {}, 2.0, 1.0, 1.0, 1.0)


def test_user_tabulated_parabola_validates():
    t = np.geomspace(1e-6, 10.0, 2001)
    c = curves.build_curve("UserTabulated", {
        "t": t, "p": t ** 2, "dp": 2.0 * t, "d2p": np.full_like(t, 2.0),
        "alpha": 2.0, "c1": 2.0, "c2": 2.0, "c3": 2.0,
    })
    assert curves.validate_H_alpha(c, 10.0).passed
    # Linear interpolation reproduces the (linear) derivative table exactly.
    probe = np.array([2e-5, 0.013, 0.8, 4.4, 9.9])
    np.testing.assert_allclose(c.dp(probe), 2.0 * probe, rtol=0, atol=1e-12)


def test_user_tabulated_requires_increasing_grid():
    t = np.array([0.0, 1.0, 1.0, 2.0])
    with pytest.raises(NonAdmissible):
        curves.build_curve("UserTabulated", {
            "t": t, "p": t, "dp": t, "d2p": t,
        })


def test_curve_round_trips_through_json(mono2, arctan3):
    muntz = curves.build_curve("Muntz", {"coefficients": [[1.0, 3.0]]})
    grid = np.geomspace(1e-4, 10.0, 57)
    for c in (mono2, arctan3, muntz):
        doc = json.loads(json.dumps(curve_to_dict(c)))
        back = curves.curve_from_dict(doc)
        assert back.kind == c.kind
        assert (back.alpha, back.c1, back.c2, back.c3) == (
            c.alpha, c.c1, c.c2, c.c3)
        for attr in ("p", "dp", "d2p"):
            np.testing.assert_allclose(
                getattr(back, attr)(grid), getattr(c, attr)(grid),
                rtol=1e-12, atol=0)


def test_validation_rejects_bad_arguments(mono2):
    with pytest.raises(ValueError):
        curves.validate_H_alpha(mono2, 0.0)
    with pytest.raises(ValueError):
        curves.validate_H_alpha(mono2, 1.0, grid_size=8)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def _all_measures(mono2, full_circle, quarter_circle):
    graph = curves.build_measure(
        "ArcLengthOnGraph", {"curve": mono2, "T": 1.0}, resolution=4096)
    bump = curves.build_measure(
        "SmoothBump", {"box": [0.0, 1.0, 0.0, 1.0], "order": 4},
        resolution=16384)
    nu = curves.build_measure(
        "ProductNuDelta", {"delta": 0.5}, resolution=2048)
    return [graph, full_circle, quarter_circle, bump, nu]


def test_measures_are_probability_measures(mono2, full_circle, quarter_circle):
    for m in _all_measures(mono2, full_circle, quarter_circle):
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(m.weights > 0)
        assert m.nodes.shape == (m.weights.size, 2)


def test_measure_claimed_delta_values(mono2):
    graph = curves.build_measure("ArcLengthOnGraph", {"curve": mono2, "T": 1.0})
    circle = curves.build_measure("ArcLengthOnCircle", {"radius": 1.0})
    bump = curves.build_measure(
        "SmoothBump", {"box": [0.0, 1.0, 0.0, 1.0], "order": 4})
    nu = curves.build_measure("ProductNuDelta", {"delta": 0.7})
    assert graph.claimed_delta == 0.5
    assert circle.claimed_delta == 0.5
    assert bump.claimed_delta == 5.0
    assert nu.claimed_delta == 0.7


def test_measure_constructor_guards():
    with pytest.raises(ValueError):
        curves.build_measure("ArcLengthOnCircle", {"radius": 1.0}, resolution=32)
    with pytest.raises(ValueError):
        curves.build_measure("NoSuchKind", {})
    with pytest.raises(ValueError):
        curves.build_measure("ProductNuDelta", {"delta": 1.5})


def test_circle_transform_matches_bessel(full_circle):
    # Closed form: mu_hat(xi) = J0(2 pi |xi|) for normalized arc length on
    # the unit circle.  scipy's j0 is pinned against frozen high-precision
    # literals first so the oracle itself is checked.
    for r, lit in BESSEL_LITERALS.items():
        assert special.j0(TWO_PI * r) == pytest.approx(lit, abs=1e-14)
    angles = np.array([0.0, 0.9, 2.2, 4.0])
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    for r in (0.76, 5.0, 12.5, 20.0):
        want = special.j0(TWO_PI * r)
        got = curves.mu_hat_grid(full_circle, r * dirs)
        assert np.max(np.abs(got - want)) < 1e-8
        assert np.max(np.abs(got.imag)) < 1e-10


def test_quarter_circle_transform_by_direct_quadrature(quarter_circle):
    for xi in (np.array([3.3, -1.7]), np.array([0.4, 2.0])):
        def phase(th):
            return -TWO_PI * (xi[0] * np.cos(th) + xi[1] * np.sin(th))
        re, _ = integrate.quad(lambda th: np.cos(phase(th)), 0.0, np.pi / 2,
                               limit=200, epsabs=1e-12)
        im, _ = integrate.quad(lambda th: np.sin(phase(th)), 0.0, np.pi / 2,
                               limit=200, epsabs=1e-12)
        want = (re + 1j * im) / (np.pi / 2)
        got = curves.mu_hat_grid(quarter_circle, xi[None, :])[0]
        assert abs(got - want) < 1e-9


def test_mu_hat_invariants(mono2, full_circle, quarter_circle):
    rng = np.random.default_rng(11)
    for m in _all_measures(mono2, full_circle, quarter_circle):
        assert curves.mu_hat_grid(m, np.zeros((1, 2)))[0] \
            == pytest.approx(1.0, abs=1e-13)
        xis = rng.uniform(-30.0, 30.0, size=(24, 2))
        vals = curves.mu_hat_grid(m, xis)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
        flipped = curves.mu_hat_grid(m, -xis)
        np.testing.assert_allclose(flipped, np.conj(vals), rtol=0, atol=1e-13)
        lip = TWO_PI * m.diameter()
        for _ in range(8):
            a, b = rng.uniform(-10.0, 10.0, size=(2, 2))
            at_a, at_b = curves.mu_hat_grid(m, np.stack([a, b]))
            gap = abs(at_a - at_b)
            assert gap <= lip * np.hypot(*(a - b)) * (1.0 + 1e-9) + 1e-15


def test_resolution_doubling_is_converged(mono2):
    rng = np.random.default_rng(7)
    xis = rng.uniform(-50.0, 50.0, size=(40, 2))
    xis = np.vstack([xis, [[50.0, 0.0], [0.0, 50.0], [35.4, -35.4]]])
    cases = [
        ("ArcLengthOnCircle", {"radius": 1.0}, 8192),
        ("ArcLengthOnGraph", {"curve": mono2, "T": 1.0}, 4096),
        ("ProductNuDelta", {"delta": 0.5}, 2048),
        ("SmoothBump", {"box": [0.0, 1.0, 0.0, 1.0], "order": 4}, 65536),
    ]
    for kind, params, res in cases:
        m1 = curves.build_measure(kind, params, resolution=res)
        m2 = m1.with_resolution(2 * res)
        diff = np.max(np.abs(curves.mu_hat_grid(m1, xis)
                             - curves.mu_hat_grid(m2, xis)))
        assert diff < 1e-8, f"{kind}: {diff}"


def test_measure_round_trips_through_json(mono2):
    m = curves.build_measure(
        "ArcLengthOnGraph", {"curve": mono2, "T": 1.0}, resolution=2048)
    doc = json.loads(json.dumps(measure_to_dict(m)))
    back = curves.measure_from_dict(doc)
    assert back.kind == m.kind
    assert back.resolution == m.resolution
    np.testing.assert_allclose(back.nodes, m.nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(back.weights, m.weights, rtol=0, atol=1e-18)


# ---------------------------------------------------------------------------
# Fourier decay fits
# ---------------------------------------------------------------------------

def test_decay_fit_circle_envelope(full_circle):
    fit = curves.fit_fourier_decay(full_circle, BESSEL_ANTINODE_RADII)
    assert fit.delta_hat == pytest.approx(0.5, abs=0.1)
    assert 0.0 < fit.eta_hat < 1.0
    assert np.all(fit.fit_radii >= fit.radii.max() / 10.0)


def test_decay_fit_parabola_graph(mono2):
    graph = curves.build_measure(
        "ArcLengthOnGraph", {"curve": mono2, "T": 1.0}, resolution=4096)
    fit = curves.fit_fourier_decay(graph, np.geomspace(1.0, 100.0, 33))
    assert 0.35 <= fit.delta_hat <= 0.75


def test_decay_fit_smooth_bump_is_rapid():
    bump = curves.build_measure(
        "SmoothBump", {"box": [0.0, 1.0, 0.0, 1.0], "order": 4},
        resolution=65536)
    fit = curves.fit_fourier_decay(bump, np.geomspace(0.5, 50.0, 33))
    assert fit.delta_hat >= 2.0


def test_decay_fit_product_measure():
    nu = curves.build_measure("ProductNuDelta", {"delta": 0.5}, resolution=2048)
    fit = curves.fit_fourier_decay(nu, np.geomspace(4.0, 400.0, 33))
    assert fit.delta_hat == pytest.approx(0.5, abs=0.1)
    assert fit.eta_hat <= 1.0


def test_decay_fit_sups_cover_all_64_directions(mono2, quarter_circle):
    bump = curves.build_measure(
        "SmoothBump", {"box": [0.1, 0.7, -0.2, 0.5], "order": 2}, resolution=4096)
    graph = curves.build_measure(
        "ArcLengthOnGraph", {"curve": mono2, "T": 0.8}, resolution=2048)
    ang = (np.arange(64) + 0.5) * (2.0 * np.pi / 64)
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    radii = np.geomspace(1.0, 120.0, 7)
    for measure in (quarter_circle, bump, graph):
        fit = curves.fit_fourier_decay(measure, radii)
        for r, sup in zip(radii, fit.sup_values):
            vals = np.exp(-2j * np.pi * (measure.nodes @ (r * dirs).T)).T \
                @ measure.weights
            assert abs(sup - np.abs(vals).max()) <= 1e-14


def test_product_measure_matches_closed_form_transform():
    nu = curves.build_measure("ProductNuDelta", {"delta": 0.5}, resolution=4096)
    xi_t = np.linspace(0.0, 100.0, 401)
    vals = curves.mu_hat_grid(nu, np.column_stack([xi_t, np.zeros_like(xi_t)]))
    closed = curves.product_nu_hat(0.5, xi_t)
    assert np.max(np.abs(vals - closed)) < 5e-5
    # Comparable to (1 + |xi_t|)^(-delta) within a factor of 2.
    ratio = np.abs(vals) / (1.0 + xi_t) ** -0.5
    assert ratio.min() > 0.5 and ratio.max() < 2.0


def test_decay_fit_errors():
    circle = curves.build_measure("ArcLengthOnCircle", {"radius": 1.0})
    with pytest.raises(ValueError):
        curves.fit_fourier_decay(circle, np.geomspace(1.0, 40.0, 16))
    point = curves.MeasureSpec("ArcLengthOnCircle", {}, np.zeros((4, 2)),
                               np.full(4, 0.25), 0.0, 64)
    with pytest.raises(InsufficientDecay):
        curves.fit_fourier_decay(point, np.geomspace(1.0, 100.0, 17))
