"""Tests for the low-frequency rigidity toolkit: observation curves,
the factorized N = 1 Wronskian, the vanishing-case classifier and its
witnesses, the power-Vandermonde determinant, the three-point test, and
the zero-set probe."""

import numpy as np
import pytest

from _oracles import vandermonde_rank, wronskian_n1_fd
from inghamlab.errors import AmbiguousCurve, InadmissiblePoints
from inghamlab.rigidity import (
    LowFreqSystem,
    ObservationCurveGamma,
    n1_vanishing_classifier,
    three_point_test,
    wronskian_n1,
    zero_set_probe,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# observation curves
# ---------------------------------------------------------------------------

def test_polynomial_curve_derivatives_exact():
    gamma = ObservationCurveGamma("Polynomial", {"coeffs": [0.0, 0.0, 1.0]})
    xs = np.linspace(-2.0, 2.0, 17)
    np.testing.assert_allclose(gamma.gamma(xs), xs ** 2, rtol=0, atol=1e-14)
    np.testing.assert_allclose(gamma.dgamma(xs), 2.0 * xs, rtol=0, atol=1e-14)
    np.testing.assert_allclose(gamma.d2gamma(xs), np.full_like(xs, 2.0),
                               rtol=0, atol=1e-14)


def test_horizontal_and_affine_derivatives():
    flat = ObservationCurveGamma("Horizontal", {"x0": 0.7})
    line = ObservationCurveGamma("Affine", {"beta": -0.3, "slope": 2.5})
    xs = np.linspace(-1.0, 1.0, 9)
    np.testing.assert_array_equal(flat.gamma(xs), np.full_like(xs, 0.7))
    np.testing.assert_array_equal(flat.dgamma(xs), np.zeros_like(xs))
    np.testing.assert_array_equal(flat.d2gamma(xs), np.zeros_like(xs))
    np.testing.assert_allclose(line.gamma(xs), -0.3 + 2.5 * xs, atol=1e-15)
    np.testing.assert_array_equal(line.dgamma(xs), np.full_like(xs, 2.5))
    np.testing.assert_array_equal(line.d2gamma(xs), np.zeros_like(xs))


def test_rational_curve_derivatives_match_finite_differences():
    gamma = ObservationCurveGamma(
        "Rational", {"num": [1.0, 2.0, 1.0], "den": [1.0, 0.0, 0.3]})
    h = 1e-5
    for x in (-1.7, -0.4, 0.0, 0.9, 1.8):
        g = float(gamma.gamma(np.asarray([x]))[0])
        gp = float(gamma.gamma(np.asarray([x + h]))[0])
        gm = float(gamma.gamma(np.asarray([x - h]))[0])
        d1_fd = (gp - gm) / (2.0 * h)
        d2_fd = (gp - 2.0 * g + gm) / h ** 2
        d1 = float(gamma.dgamma(np.asarray([x]))[0])
        d2 = float(gamma.d2gamma(np.asarray([x]))[0])
        assert abs(d1 - d1_fd) <= 1e-7 * max(1.0, abs(d1))
        assert abs(d2 - d2_fd) <= 1e-4 * max(1.0, abs(d2))


def test_curve_argument_guards():
    with pytest.raises(ValueError):
        ObservationCurveGamma("Spiral", {})
    bad = ObservationCurveGamma("Rational", {"num": [1.0], "den": [0.0, 1.0]})
    with pytest.raises(ValueError):
        bad.gamma(np.linspace(-1.0, 1.0, 5))


@pytest.mark.parametrize("method", ["gamma", "dgamma", "d2gamma"])
def test_rational_curve_fails_where_denominator_vanishes(method):
    bad = ObservationCurveGamma("Rational", {"num": [1.0], "den": [0.0, 1.0]})
    with pytest.raises(ValueError, match="denominator vanishes"):
        getattr(bad, method)(np.array([0.0]))


# ---------------------------------------------------------------------------
# Wronskian criterion
# ---------------------------------------------------------------------------

def test_wronskian_closed_form_parabola():
    gamma = ObservationCurveGamma("Polynomial", {"coeffs": [0.0, 0.0, 1.0]})
    xs = np.linspace(-1.5, 1.5, 13)
    expected = (-2.0 * TWO_PI ** 2
                * (2.0 - TWO_PI * 1j * (4.0 * xs ** 2 - 1.0))
                * np.exp(2j * TWO_PI * xs ** 2))
    np.testing.assert_allclose(wronskian_n1(gamma, xs), expected,
                               rtol=1e-13, atol=0)


def test_wronskian_closed_form_slope_two_line():
    gamma = ObservationCurveGamma("Affine", {"beta": 0.0, "slope": 2.0})
    xs = np.linspace(-1.0, 1.0, 11)
    expected = 48.0 * np.pi ** 3 * 1j * np.exp(8j * np.pi * xs)
    got = wronskian_n1(gamma, xs)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
    (one,) = wronskian_n1(gamma, np.array([0.25]))
    assert one == expected[0] * np.exp(8j * np.pi * (0.25 - xs[0]))


def test_wronskian_matches_finite_difference_determinant():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for k in range(100):
        if k % 2 == 0:
            deg = int(rng.integers(3, 5))
            gamma = ObservationCurveGamma(
                "Polynomial", {"coeffs": list(rng.uniform(-1.5, 1.5, deg))})
        else:
            gamma = ObservationCurveGamma(
                "Rational",
                {"num": list(rng.uniform(-1.5, 1.5, 3)),
                 "den": [1.0, 0.0, float(rng.uniform(0.1, 0.5))]})
        x = float(rng.uniform(-2.0, 2.0))
        (exact,) = wronskian_n1(gamma, np.array([x]))
        approx = wronskian_n1_fd(gamma, x)
        worst = max(worst, abs(approx - exact) / max(abs(exact), 1e-30))
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# vanishing-case classifier and witnesses
# ---------------------------------------------------------------------------

def _triple_basis_values(gamma, coeffs, ts):
    c = np.asarray(coeffs, dtype=complex)
    g = gamma.gamma(ts)
    cols = np.stack([np.exp(2j * np.pi * (ts - g)),
                     np.ones_like(ts, dtype=complex),
                     np.exp(2j * np.pi * (ts + g))], axis=1)
    return cols @ c


@pytest.mark.parametrize("kind,params,case", [
    ("Horizontal", {"x0": 0.3}, "HorizontalCase"),
    ("Affine", {"beta": 0.7, "slope": 1.0}, "SlopePlusOneCase"),
    ("Affine", {"beta": -0.2, "slope": -1.0}, "SlopeMinusOneCase"),
])
def test_degenerate_curves_emit_annihilating_witnesses(kind, params, case):
    gamma = ObservationCurveGamma(kind, params)
    report = n1_vanishing_classifier(gamma, np.linspace(0.0, 2.0, 9))
    assert report.case == case
    assert report.witness is not None
    # complex throughout, so each entry is emitted as {"re", "im"}
    assert [type(c) for c in report.witness] == [complex] * 3
    ts = np.linspace(-3.0, 3.0, 257)
    vals = _triple_basis_values(gamma, report.witness, ts)
    assert float(np.abs(vals).max()) < 1e-12


def test_generic_curve_is_only_trivial():
    gamma = ObservationCurveGamma("Polynomial", {"coeffs": [0.0, 0.0, 1.0]})
    report = n1_vanishing_classifier(gamma, np.linspace(0.0, 2.0, 9))
    assert report.case == "OnlyTrivial"
    assert report.witness is None
    assert report.detail["wronskian_nonzero_samples"] == report.detail["samples"]


def test_classifier_needs_three_samples():
    gamma = ObservationCurveGamma("Horizontal", {"x0": 0.0})
    with pytest.raises(AmbiguousCurve):
        n1_vanishing_classifier(gamma, [0.0, 1.0])
    # Repeats of one or two points cannot tell a parabola from a line.
    parabola = ObservationCurveGamma("Polynomial", {"coeffs": [0.0, 0.0, 1.0]})
    for samples in ([1.0] * 10, [0.0, 1.0, 1.0, 0.0]):
        with pytest.raises(AmbiguousCurve, match="3 distinct samples"):
            n1_vanishing_classifier(parabola, samples)


# ---------------------------------------------------------------------------
# Vandermonde apparatus
# ---------------------------------------------------------------------------

def test_vandermonde_product_formula_value():
    report = vandermonde_rank([1.0, 2.0, 3.0])
    expected = TWO_PI ** 6 * 6.0 * 2.0  # lams product 6, pairwise product 2
    assert report.invertible
    assert not report.zero_frequency
    assert report.dim == 3
    assert abs(report.det_magnitude - expected) <= 1e-10 * expected


def test_vandermonde_flags_zero_frequency():
    report = vandermonde_rank([-1.0, 0.0, 1.0])
    assert report.zero_frequency
    assert not report.invertible
    assert report.det_magnitude == 0.0


def test_vandermonde_duplicate_frequency_not_invertible():
    report = vandermonde_rank([1.0, 2.0, 2.0])
    assert not report.invertible
    assert not report.zero_frequency
    assert report.det_magnitude == 0.0


# ---------------------------------------------------------------------------
# three-point admissibility
# ---------------------------------------------------------------------------

def test_three_point_admissible_has_rank_three():
    points = [(0.0, 0.3), (1.0, 1.1), (2.2, 2.9)]
    report = three_point_test(points, c=None)
    assert report.admissible
    assert report.rank == 3
    assert len(report.singular_values) == 3
    assert report.residual is None


def test_three_point_residual_with_coefficients():
    points = [(0.0, 0.3), (1.0, 1.1), (2.2, 2.9)]
    c = (0.5, -1.0, 0.25j)
    report = three_point_test(points, c=c)
    t = np.array([p[0] for p in points])
    x = np.array([p[1] for p in points])
    M = np.stack([np.exp(1j * (t - x)), np.ones(3, dtype=complex),
                  np.exp(1j * (t + x))], axis=1)
    expected = float(np.abs(M @ np.asarray(c)).max())
    assert report.residual == pytest.approx(expected, rel=0, abs=1e-15)
    zero = three_point_test(points, c=(0.0, 0.0, 0.0))
    assert zero.residual == 0.0


def test_three_point_progression_violations_raise():
    with pytest.raises(InadmissiblePoints, match="pi-progression"):
        three_point_test([(0.1, 0.2), (0.9, 0.2 + np.pi),
                          (1.7, 0.2 + 2.0 * np.pi)], c=None)
    with pytest.raises(InadmissiblePoints, match="2 pi-progression"):
        three_point_test([(0.0, 0.4), (2.0 * np.pi - 0.7, 1.1),
                          (6.0 * np.pi - 2.4, 2.8)], c=None)
    # identical points violate every progression condition at once
    with pytest.raises(InadmissiblePoints):
        three_point_test([(0.5, 0.8)] * 3, c=None)


def test_three_point_shape_guard():
    with pytest.raises(ValueError):
        three_point_test([(0.0, 0.1), (1.0, 0.2)], c=None)
    with pytest.raises(ValueError, match="three coefficients"):
        three_point_test([(0.0, 0.3), (1.0, 1.1), (2.2, 2.9)], c=(1.0, 2.0))


# ---------------------------------------------------------------------------
# zero-set probe
# ---------------------------------------------------------------------------

def test_low_freq_system_guards():
    with pytest.raises(ValueError):
        LowFreqSystem(1, 2.0, (-1.0, 0.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        LowFreqSystem(1, 2.0, (-1.0, 0.0, 0.0), (1.0, 1.0, 1.0))


@pytest.mark.parametrize("T", [0.0, -1.0])
def test_probe_rejects_an_empty_or_negative_interval(T):
    system = LowFreqSystem(1, 2.0, (-1.0, 0.0, 1.0), (0.0, 1.0, 1.0))
    gamma = ObservationCurveGamma("Polynomial", {"coeffs": [0.0, 0.0, 1.0]})
    with pytest.raises(ValueError, match="T must be positive"):
        zero_set_probe(system, gamma, T)


def test_probe_flags_zero_coefficients():
    system = LowFreqSystem(1, 2.0, (-1.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    gamma = ObservationCurveGamma("Horizontal", {"x0": 0.0})
    report = zero_set_probe(system, gamma, 1.0)
    assert report.verdict == "SuspectedIdenticallyZero"
    assert report.zeros == []


def test_probe_flags_witness_system_identically_zero():
    gamma = ObservationCurveGamma("Horizontal", {"x0": 0.3})
    witness = n1_vanishing_classifier(gamma, np.linspace(0.0, 2.0, 9)).witness
    system = LowFreqSystem(1, 1.0, (-1.0, 0.0, 1.0), witness)
    report = zero_set_probe(system, gamma, 2.0)
    assert report.verdict == "SuspectedIdenticallyZero"
    assert report.max_abs < 1e-10 * report.coeff_norm


def test_probe_locates_isolated_zeros():
    # F(t) = 1 + e^(2 pi i (t + 1/4)) vanishes at t = 1/4, 5/4, 9/4
    system = LowFreqSystem(1, 2.0, (-1.0, 0.0, 1.0), (0.0, 1.0, 1.0))
    gamma = ObservationCurveGamma("Horizontal", {"x0": 0.25})
    report = zero_set_probe(system, gamma, 3.0)
    assert report.verdict == "IsolatedZerosOnly"
    np.testing.assert_allclose(sorted(report.zeros), [0.25, 1.25, 2.25],
                               rtol=0, atol=1e-9)
    residuals = np.abs(system.evaluate_on_curve(gamma, np.asarray(report.zeros)))
    assert float(residuals.max()) < 1e-12


def test_probe_parabola_example_keeps_isolated_verdict():
    system = LowFreqSystem(1, 1.0, (-1.0, 0.0, 1.0), (1.0, -2.0, 1.0))
    gamma = ObservationCurveGamma("Polynomial", {"coeffs": [0.0, 0.0, 1.0]})
    report = zero_set_probe(system, gamma, 2.0)
    assert report.verdict == "IsolatedZerosOnly"
    # F(t) = 2 e^(2 pi i t) cos(2 pi t^2) - 2 has an interior zero at t = 1
    assert any(abs(z - 1.0) < 1e-9 for z in report.zeros)


def test_probe_never_flags_random_systems():
    rng = np.random.default_rng(17)
    for _ in range(100):
        N = int(rng.integers(1, 3))
        K = 2 * N + 1
        lams = np.sort(rng.uniform(-3.0, 3.0, K))
        while np.diff(lams).min() < 1e-3:
            lams = np.sort(rng.uniform(-3.0, 3.0, K))
        c = rng.normal(size=K) + 1j * rng.normal(size=K)
        system = LowFreqSystem(N, float(rng.uniform(1.0, 2.5)),
                               tuple(lams), tuple(c))
        kind = ["Horizontal", "Affine", "Polynomial"][int(rng.integers(0, 3))]
        if kind == "Horizontal":
            gamma = ObservationCurveGamma(
                kind, {"x0": float(rng.uniform(-1, 1))})
        elif kind == "Affine":
            gamma = ObservationCurveGamma(
                kind, {"beta": float(rng.uniform(-1, 1)),
                       "slope": float(rng.uniform(-2, 2))})
        else:
            gamma = ObservationCurveGamma(
                kind, {"coeffs": list(rng.uniform(-1, 1, 3))})
        report = zero_set_probe(system, gamma, 2.0)
        assert report.verdict == "IsolatedZerosOnly"
