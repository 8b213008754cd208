"""Pair-weight suprema and certified tail sums."""

import dataclasses

import numpy as np
import pytest
from scipy import special

from _oracles import tail_m_decay
from inghamlab import sums
from inghamlab.errors import DivergentParameters


def test_quadratic_pattern_sup_is_one():
    # (a + b) / |a^2 - b^2| = 1 / |a - b| <= 1, attained at adjacent
    # indices; (s - 1) * gamma = 1 puts this on the bounded side (<= 4).
    scan = sums.sup_M(1.0, 2.0, 300, checkpoints=[100, 300])
    assert scan.sup_value == pytest.approx(1.0, abs=1e-12)
    assert scan.sup_value <= 4.0
    a, b = abs(scan.argmax[0]), abs(scan.argmax[1])
    got = (a + b) / abs(float(a) ** 2 - float(b) ** 2)
    assert got == pytest.approx(scan.sup_value, rel=1e-12)


def test_subcritical_sup_grows_like_sqrt():
    # gamma = 1, s = 1.5: 1 - (s - 1) * gamma = 0.5, so the truncated
    # sup grows like N^0.5 across the checkpoint decades.
    scan = sums.sup_M(1.0, 1.5, 10_000, checkpoints=[100, 1000, 10_000])
    assert scan.growth_fit == pytest.approx(0.5, abs=0.05)
    ns = [cp for cp, _ in scan.checkpoints]
    vals = [v for _, v in scan.checkpoints]
    assert ns == [100, 1000, 10_000]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert vals[-1] == scan.sup_value


def test_sup_prefix_checkpoints_are_nested():
    scan = sums.sup_M(1.0, 2.0, 500, checkpoints=[10, 50, 100, 500])
    vals = [v for _, v in scan.checkpoints]
    assert vals == sorted(vals)
    assert vals[-1] == scan.sup_value


def test_sup_row_blocks_do_not_change_any_bit(monkeypatch):
    # One row, two rows and a few rows per block against the default
    # budget: sup, argmax, prefix checkpoints and growth fit are the same
    # bits, for gamma = 1 and for the power path.
    cases = [(1.0, 2.0, 300, [10, 31, 100]), (0.5, 2.0, 300, [100, 300]),
             (1.0, 1.5, 2000, [10, 100, 316, 1000]),
             (0.7, 3.1, 2000, [100, 1000, 2000])]

    def scans():
        return [repr(dataclasses.astuple(sums.sup_M(*case)))
                for case in cases]

    want = scans()
    for budget in (1, 700, 5000):
        monkeypatch.setattr(sums, "_CELL_BUDGET", budget)
        assert scans() == want


def test_sup_rejects_a_scan_above_the_time_budget(monkeypatch):
    # The cap is checked before any array exists: with numpy gone from
    # the module, the call still raises the ValueError.
    assert sums._MAX_N_TRUNC == 100_000
    monkeypatch.setattr(sums, "np", None)
    with pytest.raises(ValueError, match="N_trunc must be at most 100000"):
        sums.sup_M(0.5, 2.0, 100_000_000, [10, 100])
    with pytest.raises(ValueError, match="got 100001"):
        sums.sup_M(0.5, 2.0, 100_001, [10, 100])


def test_sup_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sums.sup_M(0.0, 2.0, 100, checkpoints=[100])
    with pytest.raises(ValueError):
        sums.sup_M(1.0, 1.0, 100, checkpoints=[100])
    with pytest.raises(ValueError):
        sums.sup_M(1.0, 2.0, 5, checkpoints=[5])


def test_inf_witness_families_contract():
    low = sums.inf_witness(0.5, 2.0, 2000)
    assert low.family == "n=m+1"
    high = sums.inf_witness(2.0, 2.0, 2000)
    assert high.family == "n=2m"
    for wit in (low, high):
        assert wit.contracted
        assert wit.ratios[-1] < wit.ratios[0] / 10.0
        tail = wit.ratios[wit.ms >= 10]
        assert np.all(np.diff(tail) < 0)
    # gamma = 0.5, s = 2, m = 1000: ratio = (2m + 1)^(-1/2) < 0.05.
    big = sums.inf_witness(0.5, 2.0, 1001)
    assert big.ratios[-1] == pytest.approx((2.0 * 1000 + 1.0) ** -0.5, rel=1e-9)
    assert big.ratios[-1] < 0.05


def test_expected_sigma_case_split():
    assert sums.expected_sigma(0.0, 1.0, 2.0) == pytest.approx(0.9)   # gd = 1
    assert sums.expected_sigma(0.0, 0.5, 2.5) == pytest.approx(0.25)  # gd < 1
    assert sums.expected_sigma(0.25, 0.25, 5.0) == pytest.approx(0.5)
    assert sums.expected_sigma(1.0, 0.9, 2.0) == pytest.approx(0.9)   # gd > 1


def test_divergent_parameters_are_rejected():
    with pytest.raises(DivergentParameters):
        sums.tail_sum(0.5, 0.2, 2.0, 0, 10)          # s*delta+gamma = 0.9
    with pytest.raises(DivergentParameters):
        sums.tail_sum(-0.5, 0.7, 2.0, 0, 10)         # 0.9 < max(1, delta)
    sums.tail_sum(-0.2, 0.7, 2.0, 0, 10)             # 1.2 > 1: fine


def test_tail_sum_zeta_identity():
    # m = 0 collapses the weight to 2 |n|^(-(gamma + s delta)), whose tail
    # is the Hurwitz zeta value 2 * zeta(q, N).
    got = sums.tail_sum(1.0, 0.5, 2.0, 0, 10).value
    assert got == pytest.approx(2.0 * special.zeta(2.0, 10), rel=1e-13)
    got = sums.tail_sum(0.0, 1.0, 2.0, 0, 10).value
    assert got == pytest.approx(2.0 * special.zeta(2.0, 10), rel=1e-13)
    assert got == pytest.approx(0.2103, abs=5e-5)


def test_tail_sum_against_brute_bracket():
    # Independent oracle: plain summation to 1e7 plus a two-sided
    # integral bracket for the remaining tail (summand ~ 2 x^(-3.1)).
    res = sums.tail_sum(1.5, 0.8, 2.0, 3, 20)
    total = 0.0
    for lo in range(20, 10 ** 7, 10 ** 6):
        n = np.arange(lo, min(lo + 10 ** 6, 10 ** 7), dtype=float)
        total += float(((n - 3.0) ** -1.5 * (n * n - 9.0) ** -0.8).sum()
                       + ((n + 3.0) ** -1.5 * (n * n - 9.0) ** -0.8).sum())
    H = 1e7
    hi = 2.0 * (H - 4.0) ** -2.1 / 2.1
    lo = 2.0 * (H + 4.0) ** -2.1 / 2.1
    assert total + lo <= res.value <= total + hi + 1e-15 * res.value
    assert res.value == pytest.approx(0.0019215671980549135, rel=1e-12)
    assert res.remainder_bound <= 1e-10 * res.value


def test_tail_sum_symmetry_and_monotonicity():
    for m in (0, 3, 17):
        plus = sums.tail_sum(1.0, 0.9, 2.0, m, 50).value
        minus = sums.tail_sum(1.0, 0.9, 2.0, -m, 50).value
        assert plus == minus
    vals = [sums.tail_sum(1.0, 0.9, 2.0, 7, N).value for N in (20, 40, 80)]
    assert vals[0] > vals[1] > vals[2]


def test_remainder_bound_covers_horizon_change():
    # The certified bound covers the truncation; the 1e-15 relative slack
    # absorbs float accumulation noise over the million-term partial sum.
    a, = sums._tail_sums(1.0, 0.9, 2.0, 7, [100], 10 ** 6)
    b, = sums._tail_sums(1.0, 0.9, 2.0, 7, [100], 2 * 10 ** 6)
    assert abs(a.value - b.value) < a.remainder_bound + 1e-15 * a.value
    assert abs(a.value - b.value) < 1e-12 * a.value


def test_tail_sum_guards():
    with pytest.raises(ValueError):
        sums.tail_sum(1.0, 0.9, 2.0, 7, 0)
    with pytest.raises(ValueError):
        sums.tail_sum(1.0, 0.0, 2.0, 7, 10)
    with pytest.raises(ValueError):
        sums.tail_sum(1.0, 0.9, 1.0, 7, 10)


@pytest.mark.parametrize("gamma,delta,s", [
    (0.0, 1.0, 2.0), (0.0, 0.5, 2.5), (0.25, 0.25, 5.0),
])
def test_tail_decay_fit_meets_expected_exponent(gamma, delta, s):
    fit = sums.tail_decay_fit(gamma, delta, s, [100, 316, 1000, 3163],
                              m_set=(0, 1, 7, 100, 1000))
    assert fit.passes
    assert fit.slope <= -fit.sigma_expected + 0.15
    assert np.all(np.diff(fit.max_per_N) < 0)
    assert fit.values.shape == (len(fit.m_set), len(fit.N_grid))


def test_tail_decay_fit_matches_each_tail_sum():
    # N = 7 = |m| sits on a segment edge; N = 200,000 has its own horizon.
    grid = [3, 7, 300, 200_000]
    for gamma, delta, s in ((0.0, 1.0, 2.0), (0.25, 0.25, 5.0)):
        fit = sums.tail_decay_fit(gamma, delta, s, grid, m_set=(0, 7, -40))
        for i, m in enumerate(fit.m_set):
            for j, N in enumerate(grid):
                want = sums.tail_sum(gamma, delta, s, m, N).value
                assert abs(fit.values[i, j] - want) <= 1e-13 * want


def test_tail_decay_fit_guards_grid_span():
    with pytest.raises(ValueError):
        sums.tail_decay_fit(0.0, 1.0, 2.0, [100, 300], m_set=(0, 1, 7, 100, 1000))


def test_tail_vanishes_in_m():
    small, large, decays = tail_m_decay(1.0, 0.9, 2.0)
    assert decays
    assert large < small
