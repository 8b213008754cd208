"""Pair-weight suprema and certified tail sums."""

import dataclasses
import time
import types
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special

from _oracles import sup_square_scan, tail_m_decay, tail_sum_mpmath
from inghamlab import sums
from inghamlab.errors import DivergentParameters, ToleranceNotMet


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


def _lemma21_checkpoints(N):
    # The checkpoints that cli.run_lemma21 passes for N.
    return [n for n in (10, 31, 100, 316, 1000, 3162, 10000, 31623) if n < N]


_SQUARE_CASES = [
    (1.0, 2.0, 300, [10, 31, 100]), (0.5, 2.0, 300, [100, 300]),
    (1.0, 1.5, 2000, [10, 100, 316, 1000]), (0.7, 3.1, 2000, [100, 1000, 2000]),
    # criterion 03
    (1.0, 2.0, 10_000, [100, 1_000, 10_000]),
    (1.0, 1.5, 10_000, [100, 1_000, 10_000]),
    # the benchmark batch's lemma21 runs
    *((gamma, s, N, _lemma21_checkpoints(N))
      for gamma, s in [(0.5, 2.0), (0.5, 2.5), (1.0, 1.5), (1.0, 2.0), (1.0, 2.5)]
      for N in (500, 1000, 2000)),
    (0.5, 2.0, 10, [1, 2, 10]),
    (0.01, 1.01, 1000, [1, 2, 10, 100, 1000]),
    (10.0, 1.5, 1000, [1, 2, 10, 100, 1000]),
    (0.05, 3.0, 1000, [1, 2, 10, 100, 1000]),
]


def test_sup_matches_the_square_scan_bit_for_bit():
    # The first off-diagonal gives the full square's sup, argmax, prefix
    # checkpoints and growth fit to the bit, for gamma = 1 and for the
    # power path.
    for case in _SQUARE_CASES:
        assert repr(dataclasses.astuple(sums.sup_M(*case))) == \
            repr(dataclasses.astuple(sup_square_scan(*case))), case


def test_sup_at_the_cap_takes_under_a_second():
    start = time.perf_counter()
    scan = sums.sup_M(0.5, 2.0, 100_000, [10, 100, 100_000])
    assert time.perf_counter() - start < 1.0
    assert scan.checkpoints[-1] == (100_000, scan.sup_value)


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


def test_sup_rejects_a_checkpoint_outside_the_scan():
    with pytest.raises(ValueError, match="checkpoint 500 "):
        sums.sup_M(1.0, 2.0, 100, [100, 500])
    with pytest.raises(ValueError, match="checkpoint 0 "):
        sums.sup_M(1.0, 2.0, 100, [0, 100])


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
    # is 2 zeta(2, 10) = 2 (pi^2/6 - sum_(k<10) k^(-2)); mpmath's Hurwitz
    # zeta is the second reference, as the library uses scipy's.
    with mpmath.workdps(30):
        closed = mpmath.pi ** 2 / 6 - mpmath.fsum(mpmath.mpf(k) ** -2
                                                  for k in range(1, 10))
        assert abs(closed - mpmath.zeta(2, 10)) < 1e-28
    want = 2.0 * float(closed)
    got = sums.tail_sum(1.0, 0.5, 2.0, 0, 10).value
    assert got == pytest.approx(want, rel=1e-13)
    got = sums.tail_sum(0.0, 1.0, 2.0, 0, 10).value
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(0.2103, abs=5e-5)


# Every (p, H) the zeta completion can reach: p = gamma + s delta + k + s j
# above 1 and up to where zeta(p, H) underflows, H from 10 to 2e6, dense
# where scipy's error peaks (p 8 to 16, H 150 to 5000).
_ZETA_P = np.concatenate([np.arange(1.05, 16.0, 0.25), np.arange(16.0, 320.0, 7.5)])
_ZETA_H = (10, 30, 70, 150, 300, 500, 700, 1000, 2000, 3000, 5000, 10 ** 4,
           31630, 10 ** 5, 10 ** 6, 2 * 10 ** 6)


def test_scipy_zeta_meets_the_error_table_of_the_bound():
    assert sums._ZETA_REL_ERR == ((8.0, 2e-15), (12.0, 1e-9), (np.inf, 1e-8))
    tops = [top for top, _ in sums._ZETA_REL_ERR]
    worst = np.zeros(len(tops))
    with mpmath.workdps(30):
        for p in _ZETA_P:
            for H in _ZETA_H:
                got = special.zeta(p, float(H))
                if got < np.finfo(float).tiny:
                    continue
                want = mpmath.zeta(mpmath.mpf(float(p)), H)
                i = int(np.searchsorted(tops, p))
                worst[i] = max(worst[i], float(abs(got - want) / want))
    errs = np.array([err for _, err in sums._ZETA_REL_ERR])
    assert np.all(worst <= errs)
    # The table is not slack by more than a decade anywhere.
    assert np.all(worst > errs / 10)


# (gamma, delta, s, m, N, horizon): horizon None is tail_sum's own; N is
# the completion alone; 3|m| puts the series' truncation in sight.  The
# last two are nearly all direct terms, and those next to |m| lose about
# 1e-14 of the value to the rounding of n^s - |m|^s.
_REFERENCE_CASES = [
    (1.0, 0.9, 2.0, 7, 100, None), (0.25, 0.25, 5.0, 1000, 100, None),
    (-0.2, 0.7, 2.0, 3, 10, None), (0.0, 0.5, 2.5, 30, 316, None),
    (0.0, 1.0, 2.0, 0, 10, None), (1.0, 0.9, 2.0, 7, 100, 100),
    (0.25, 0.25, 5.0, 1000, 10_000, 10_000), (-0.2, 0.7, 2.0, 3, 30, 30),
    (1.0, 0.9, 2.0, 30, 90, 90), (0.0, 3.0, 1.5, 300, 10, None),
    (1.0, 2.5, 2.2, 1000, 10, None),
]


def _tail(gamma, delta, s, m, N, horizon):
    if horizon is None:
        return sums.tail_sum(gamma, delta, s, m, N)
    return sums._tail_sums(gamma, delta, s, m, [N], horizon)[0]


@pytest.mark.parametrize("case", _REFERENCE_CASES)
def test_remainder_bound_covers_the_mpmath_reference(case):
    # s = 5, m = 1000 drives zeta(p, H) below the normal floats; that must
    # pass without a warning of any kind.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _tail(*case)
    want = tail_sum_mpmath(*case[:5])
    assert abs(mpmath.mpf(res.value) - want) <= res.remainder_bound
    assert res.remainder_bound <= 1e-10 * res.value


def test_remainder_bound_carries_the_zeta_error_table(monkeypatch):
    # Every zeta value off by its full table error, in one direction: the
    # bound still covers the reference.  At horizon 5|m| the terms with
    # 8 < p <= 12 carry about 1e-4 of the value.
    tops, errs = np.array(sums._ZETA_REL_ERR).T
    fake = types.SimpleNamespace(
        zeta=lambda p, H: special.zeta(p, H)
        * (1.0 + 0.99 * errs[np.searchsorted(tops, p)]))
    monkeypatch.setattr(sums, "special", fake)
    for case in [(1.5, 0.8, 2.0, 10, 50), (1.0, 0.9, 2.0, 20, 100)]:
        res, = sums._tail_sums(*case[:4], [case[4]], case[4])
        want = tail_sum_mpmath(*case)
        assert abs(mpmath.mpf(res.value) - want) <= res.remainder_bound


def test_a_horizon_too_near_m_is_refused():
    # At horizon 2|m| the binomial series converges like 2^(-level): its
    # truncation bound passes 1e-10 of the value.
    with pytest.raises(ToleranceNotMet):
        sums._tail_sums(1.0, 0.9, 2.0, 30, [60], 60)
    with pytest.raises(ValueError):
        sums._tail_sums(1.0, 0.9, 2.0, 3, [100], 50)


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
