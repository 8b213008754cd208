"""Index-pair classification and the explicit bad-region boundary."""

import math

import numpy as np
import pytest

from _oracles import classify_pair
from inghamlab import classify
from inghamlab.errors import OutOfDomain


def test_tau_threshold(mono2, mono3):
    assert classify.tau_threshold(mono2, 2.0) == 8.0
    assert classify.tau_threshold(mono3, 2.0) == 24.0
    with pytest.raises(ValueError):
        classify.tau_threshold(mono2, 0.0)


def test_abs_pow_matches_definition():
    assert classify.abs_pow(np.array([0]), 1.7).tolist() == [0.0]
    assert classify.abs_pow(np.array([-3]), 2.0) == pytest.approx([9.0])
    vals = classify.abs_pow(np.array([-2, 0, 5]), 1.5)
    np.testing.assert_allclose(vals, [2.0 ** 1.5, 0.0, 5.0 ** 1.5])
    # Within an ulp: exp(1.5 log 8) is 4 ulp below 8^1.5.
    (got,) = classify.abs_pow(np.array([-8]), 1.5)
    assert abs(got - 8.0 ** 1.5) <= math.ulp(8.0 ** 1.5)



def test_abs_pow_names_s_and_the_largest_index_when_the_power_overflows():
    # A RuntimeWarning is an error in this suite, so numpy's overflow
    # warning would fail the test before the ValueError.
    with pytest.raises(ValueError, match=r"s = 400.0 and \|n\| = 10$"):
        classify.abs_pow(np.arange(-10, 11), 400.0)
    with pytest.raises(ValueError, match=r"s = 400.0 and \|n\| = 10$"):
        classify.abs_pow(np.array([-10]), 400.0)
    # Finite powers keep their bits, up to the edge of the float range.
    for s, N in ((300.0, 10), (2.0, 100_000), (1.5, 1000)):
        n = np.arange(-N, N + 1)
        assert np.array_equal(classify.abs_pow(n, s),
                              np.abs(n).astype(float) ** s)

def test_pair_tags():
    pc = classify_pair(4, 4, 2.0, 8.0)
    assert pc.tag == "Diagonal" and pc.ratio is None
    pc = classify_pair(3, -3, 2.0, 8.0)
    assert pc.tag == "AntiDiagonal" and pc.ratio == 0.0
    pc = classify_pair(2, 1, 2.0, 8.0)
    assert pc.tag == "GoodPlus" and pc.ratio == pytest.approx(3.0)
    # Boundary ratio exactly -tau belongs to GoodMinus.
    pc = classify_pair(1, -9, 2.0, 8.0)
    assert pc.tag == "GoodMinus" and pc.ratio == pytest.approx(-8.0)
    pc = classify_pair(-5, -3, 2.0, 8.0)
    assert pc.tag == "GoodMinus" and pc.ratio == -8.0
    pc = classify_pair(1, -2, 2.0, 8.0)
    assert pc.tag == "Bad" and pc.ratio == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        classify_pair(1, 2, 2.0, 0.0)


@pytest.mark.parametrize("s,tau,N", [(2.0, 8.0, 12), (1.5, 4.0, 8)])
def test_region_grid_matches_pairwise_classification(s, tau, N):
    grid = classify.region_grid(s, tau, N)
    rows = list(grid.rows())
    assert len(rows) == (2 * N + 1) ** 2
    for n, m, tag, ratio in rows:
        pc = classify_pair(n, m, s, tau)
        assert tag == pc.tag
        if pc.ratio is None:
            assert np.isnan(ratio)
        else:
            assert ratio == pytest.approx(pc.ratio, abs=1e-12)
    assert grid.counts["Diagonal"] == 2 * N + 1
    assert grid.counts["AntiDiagonal"] == 2 * N
    assert sum(grid.counts.values()) == (2 * N + 1) ** 2


def test_region_grid_rows_hold_plain_python_values():
    grid = classify.region_grid(2.0, 8.0, 5)
    rows = list(grid.rows())
    assert {tuple(map(type, row)) for row in rows} == {(int, int, str, float)}
    assert [row[:2] for row in rows] == [(n, m) for n in range(-5, 6)
                                         for m in range(-5, 6)]


def test_region_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        classify.region_grid(2.0, 0.0, 5)
    with pytest.raises(ValueError):
        classify.region_grid(2.0, 8.0, 0)


@pytest.mark.parametrize("s, tau", [(np.nan, 2.0), (2.0, np.nan),
                                    (np.inf, 2.0), (2.0, np.inf)])
def test_non_finite_s_or_tau_raise(s, tau):
    with pytest.raises(ValueError, match="finite"):
        classify.region_grid(s, tau, 2)
    with pytest.raises(ValueError, match="finite"):
        classify_pair(2, 1, s, tau)


def test_boundary_branches_satisfy_the_equation():
    for branch in classify.BRANCHES:
        pts = classify.boundary_samples(branch, 1000)
        worst = max(abs(p.residual()) for p in pts)
        assert worst <= 1e-9, f"{branch}: {worst}"


def test_boundary_samples_need_at_least_one_point():
    for count in (0, -3):
        with pytest.raises(ValueError,
                           match=f"sample count must be at least 1, got {count}"):
            classify.boundary_samples("EllipseUV", count)
    assert len(classify.boundary_samples("EllipseUV", 1)) == 1


def test_boundary_endpoints_meet():
    # theta = pi/2 on either ellipse branch reaches an axis point that the
    # mixed branches approach as t -> 0.
    top = classify.boundary_parametrization("EllipseUV", np.pi / 2.0)
    assert top.point == pytest.approx((0.0, -16.0), abs=1e-12)
    swapped = classify.boundary_parametrization("EllipseVU", np.pi / 2.0)
    assert swapped.point == pytest.approx((-16.0, 0.0), abs=1e-12)
    near = classify.boundary_parametrization("MixedXPos", 1e-6)
    assert near.point[0] == pytest.approx(0.0, abs=1e-9)
    assert near.point[1] == pytest.approx(-16.0, abs=1e-4)


def test_boundary_domain_errors():
    with pytest.raises(OutOfDomain):
        classify.boundary_parametrization("EllipseUV", np.pi / 6.0)
    with pytest.raises(OutOfDomain):
        classify.boundary_parametrization("EllipseVU", np.pi / 2.0 + 0.01)
    with pytest.raises(OutOfDomain):
        classify.boundary_parametrization("MixedXPos", 0.0)
    with pytest.raises(OutOfDomain):
        classify.boundary_parametrization("MixedYPos", 1.0)
    with pytest.raises(ValueError):
        classify.boundary_parametrization("Parabola", 0.5)


def test_boundary_separates_bad_from_good_minus():
    # The ratio scales like lambda^(s-1) = lambda^(1/2) under (x, y) ->
    # (lambda x, lambda y), so pushing a boundary point outward crosses
    # into GoodMinus and pulling it inward lands in Bad.
    params = {"EllipseUV": [0.7, 1.1, 1.5], "EllipseVU": [0.7, 1.1, 1.5],
              "MixedXPos": [0.1, 0.4, 0.7], "MixedYPos": [0.1, 0.4, 0.7]}
    for branch, values in params.items():
        for val in values:
            x, y = classify.boundary_parametrization(branch, val).point
            out = classify_pair(1.05 * x, 1.05 * y, 1.5, 4.0)
            inn = classify_pair(0.95 * x, 0.95 * y, 1.5, 4.0)
            assert out.tag == "GoodMinus", (branch, val, out)
            assert inn.tag == "Bad", (branch, val, inn)
