"""Pair-weight suprema and certified tail sums.

Two families of scalar quantities attached to the frequency pattern
|n|^s:

  * the truncated supremum of |n - m| / ||n|^s - |m|^s|^gamma over an
    integer square, which stays bounded (by 4) exactly when
    (s-1) gamma >= 1 and otherwise grows like a power of the truncation;

  * the tails S_m(N) of the double-index weights
    a_(n,m) = |n - m|^(-gamma) ||n|^s - |m|^s|^(-delta), summed over
    |n| >= N, |n| != |m|, which decay like N^(-sigma) uniformly in m.

Tail sums are certified: the terms below the horizon H = 10 max(N, |m|)
are added directly, and the rest is the binomial series of each weight
summed term by term with the Hurwitz zeta function (DLMF 25.11).  The
reported bound covers the series' truncation, zeta's measured accuracy
and the rounding, and is kept below 1e-10 of the value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .classify import abs_pow
from .errors import DivergentParameters, ToleranceNotMet

_MAX_N_TRUNC = 100_000   # the range of N that lemma21 documents
# The direct part of a tail sum peaks at about 57 bytes per term below the
# horizon (tracemalloc: 54 MiB at horizon 10^6, 218 MiB at 4 * 10^6, both
# with gamma != 0), so the horizon is capped near 1 GiB of arrays.
_MAX_HORIZON = 20_000_000
_LEVELS = 24        # the zeta completion keeps the levels k + j <= _LEVELS
# Relative error of scipy.special.zeta(p, H) for p up to each bound and
# H >= 10.  Against 30-digit mpmath.zeta, for p up to zeta's underflow and
# H from 10 to 2e6, the worst is 9.3e-16, 1.8e-10 and 3.2e-9, so one
# machine epsilon would not do; tests/test_sums.py pins the table.
_ZETA_REL_ERR = ((8.0, 2e-15), (12.0, 1e-9), (np.inf, 1e-8))
_UNIT = 2.0 ** -53   # unit roundoff of float64
_CRITICAL_LOSS = 0.1   # sigma's loss on the critical line gamma + delta = 1


# ---------------------------------------------------------------------------
# truncated supremum
# ---------------------------------------------------------------------------

@dataclass
class SupScan:
    gamma: float
    s: float
    N_trunc: int
    sup_value: float
    argmax: tuple
    growth_fit: float | None
    checkpoints: list   # (N, prefix sup) pairs


def sup_M(gamma: float, s: float, N_trunc: int, checkpoints) -> SupScan:
    """Exact maximum of |n-m| / ||n|^s - |m|^s|^gamma over |n|,|m| <= N_trunc.

    The value depends on (n, m) only through (|n|, |m|) except for the
    numerator, which is maximized at opposite signs (|n - m| = |n| + |m|),
    so the quadrant a = |n|, b = |m| with value (a + b) / |a^s - b^s|^gamma
    and representative pair (-a, b) holds the supremum.  Only its first
    off-diagonal b = a + 1 is read: for a < b - 1 the pair (b - 1, b) has
    the larger numerator 2b - 1 > a + b and the smaller denominator
    b^s - (b - 1)^s < b^s - a^s, and both pairs lie in every prefix
    square [0, n]^2 that holds b.  So the supremum over [0, n]^2 is the
    largest of the first n ratios (2a + 1) / ((a + 1)^s - a^s)^gamma, and
    the first maximal ratio, at a = k, is the square's first maximal cell
    in row-major order, (k, k + 1).

    growth_fit is the log-log slope of the prefix suprema at the
    checkpoint truncations, each in 1..N_trunc; it is the interesting
    output when (s-1) gamma < 1 and the sup diverges.  N_trunc is capped
    at 10^5.
    """
    if gamma <= 0 or s <= 1:
        raise ValueError("need gamma > 0 and s > 1")
    if N_trunc < 10:
        raise ValueError("N_trunc must be at least 10")
    if N_trunc > _MAX_N_TRUNC:
        raise ValueError(f"N_trunc must be at most {_MAX_N_TRUNC}, got {N_trunc}")
    checkpoints = sorted(set(int(c) for c in checkpoints))
    for cp in checkpoints:
        if not 1 <= cp <= N_trunc:
            raise ValueError(f"checkpoint {cp} is outside 1..N_trunc = {N_trunc}")

    a = np.arange(N_trunc + 1)
    gap = np.diff(abs_pow(a, s))
    ratios = (a[:-1] + a[1:]) / (gap if gamma == 1.0 else gap ** gamma)
    k = int(np.argmax(ratios))
    running = np.maximum.accumulate(ratios)
    prefix = [(cp, float(running[cp - 1])) for cp in checkpoints]

    growth = None
    if len(prefix) >= 2:
        xs, ys = np.log(prefix).T
        growth = float(np.polyfit(xs, ys, 1)[0])
    return SupScan(gamma, s, N_trunc, float(ratios[k]), (-k, k + 1), growth, prefix)


@dataclass
class InfWitness:
    gamma: float
    s: float
    family: str
    ms: np.ndarray
    ratios: np.ndarray
    contracted: bool


def inf_witness(gamma: float, s: float, N_trunc: int) -> InfWitness:
    """Ratios along a family witnessing that the infimum of the sup_M
    quantity over pairs is 0: n = m + 1 for 0 < gamma < 1, n = 2m for
    gamma >= 1.  The final ratio must fall below a tenth of the first
    once N_trunc >= 1e3.
    """
    if gamma <= 0 or s <= 1:
        raise ValueError("need gamma > 0 and s > 1")
    if N_trunc < 10:
        raise ValueError("N_trunc must be at least 10")
    if gamma < 1.0:
        ms = np.unique(np.geomspace(1, N_trunc - 1, 64).astype(int))
        ratios = 1.0 / ((ms + 1.0) ** s - ms.astype(float) ** s) ** gamma
        family = "n=m+1"
    else:
        ms = np.unique(np.geomspace(1, N_trunc // 2, 64).astype(int))
        ratios = ms / ((2.0 * ms) ** s - ms.astype(float) ** s) ** gamma
        family = "n=2m"
    contracted = bool(ratios[-1] < ratios[0] / 10.0)
    if N_trunc >= 1000 and not contracted:
        raise ToleranceNotMet(
            f"witness family {family} failed to contract by 10x at N={N_trunc}")
    return InfWitness(gamma, s, family, ms, ratios, contracted)


# ---------------------------------------------------------------------------
# tail sums
# ---------------------------------------------------------------------------

def expected_sigma(gamma: float, delta: float, s: float) -> float:
    """Decay exponent sigma with S_m(N) <= C N^(-sigma), by the case split
    on gamma + delta (less _CRITICAL_LOSS on the critical line)."""
    gd = gamma + delta
    if gd > 1.0:
        return (s - 1.0) * delta
    if gd < 1.0:
        return s * delta + gamma - max(1.0, delta)
    return (s - 1.0) * delta - _CRITICAL_LOSS


def _check_convergence(gamma: float, delta: float, s: float) -> None:
    q = s * delta + gamma
    floor = 1.0 if gamma >= 0 else max(1.0, delta)
    if not q > floor:
        raise DivergentParameters(
            f"s*delta+gamma = {q} must exceed {floor} for the tail to converge")


@dataclass
class TailSum:
    gamma: float
    delta: float
    s: float
    m: int
    N: int
    value: float
    sigma_expected: float
    horizon: int             # terms below it are added directly, the rest by zeta
    remainder_bound: float   # bound on |value - S_m(N)|


def _rising_binom(alpha: float, count: int) -> np.ndarray:
    """Coefficients of (1-z)^(-alpha) = sum_k coef[k] z^k for k < count,
    i.e. coef[k] = alpha (alpha+1) ... (alpha+k-1) / k!.
    """
    coef = np.empty(count)
    coef[0] = 1.0
    for k in range(1, count):
        coef[k] = coef[k - 1] * (alpha + k - 1.0) / k
    return coef


def _pairwise_rounding(count: int) -> float:
    """Relative rounding bound, per unit of sum |x|, of numpy's pairwise sum
    of count floats (8 interleaved runs of at most 16 below 128, halving
    above), with the few operations that follow it."""
    return _UNIT * (24.0 + np.log2(count + 1.0))


def _zeta_completion(gamma, delta, s, m, horizon):
    """Sum over integers n >= H = horizon of the two branches
    ((n-m)^(-gamma) + (n+m)^(-gamma)) (n^s - |m|^s)^(-delta), as
    (value, bound).

    Each factor expands binomially in m/n and |m|^s/n^s.  Summed over
    n >= H, the power n^(-p), p = q + k + s j with q = gamma + s delta,
    gives coef * H^(p-q) zeta(p, H) (Hurwitz), where coef carries
    (m/H)^k (|m|^s/H^s)^j; the levels k + j <= _LEVELS form one triangle.
    The bound adds
      * eps(p) |term| per term, eps from _ZETA_REL_ERR;
      * |coef| H^(-q) (1 + H/(p-1)) >= |term| for each term whose zeta is
        not a normal float, which is dropped (H^(p-q) would overflow);
      * the rounding of the sum;
      * the levels past _LEVELS, majorised by the geometric tail of
        2 rising(|gamma| + delta, level) (|m|/H)^level H^(-q) (1 + H/(p-1)).
    """
    H = float(horizon)
    q = gamma + s * delta
    r = abs(m) / H
    lv = np.arange(_LEVELS + 1)
    cg = _rising_binom(gamma, _LEVELS + 1) * ((m / H) ** lv + (-m / H) ** lv)
    cd = _rising_binom(delta, _LEVELS + 1) * (r ** s) ** lv
    coef = np.outer(cg, cd)
    # Odd k cancel between the branches, and m = 0 or gamma = 0 leaves one
    # row or one term: only the nonzero coefficients reach zeta.
    keep = (lv[:, None] + lv[None, :] <= _LEVELS) & (coef != 0.0)
    coef, p = coef[keep], (q + lv[:, None] + s * lv[None, :])[keep]
    z = special.zeta(p, H)
    normal = z >= np.finfo(float).tiny
    terms = coef[normal] * (H ** (p[normal] - q) * z[normal])
    tops, errs = np.array(_ZETA_REL_ERR).T
    eps = errs[np.searchsorted(tops, p[normal])]
    majorant = H ** -q * (1.0 + H / (p[~normal] - 1.0))
    bound = float((eps * np.abs(terms)).sum()
                  + _pairwise_rounding(terms.size) * np.abs(terms).sum()
                  + (np.abs(coef[~normal]) * majorant).sum())
    if r > 0.0:
        alpha, top = abs(gamma) + delta, _LEVELS + 1
        ratio = r * max(1.0, (alpha + top) / (top + 1.0))
        tail = (2.0 * _rising_binom(alpha, top + 1)[top] * r ** top
                * H ** -q * (1.0 + H / (q + _LEVELS)))
        bound += tail / (1.0 - ratio) if ratio < 1.0 else np.inf
    return float(terms.sum()), bound


def _tail_horizon(gamma: float, delta: float, s: float, m: int, Ns) -> int:
    """Check the arguments of S_m(N) for the ascending Ns and return their
    one horizon, 10*max(max(Ns), |m|), which must be at most _MAX_HORIZON."""
    if delta <= 0 or s <= 1:
        raise ValueError("need delta > 0 and s > 1")
    if Ns[0] < 1:
        raise ValueError("N must be a positive count")
    _check_convergence(gamma, delta, s)
    horizon = 10 * max(Ns[-1], abs(m))
    if horizon > _MAX_HORIZON:
        raise ValueError(f"the tail horizon 10 max(N, |m|) = {horizon} exceeds "
                         f"the cap {_MAX_HORIZON}")
    return horizon


def _tail_sums(gamma: float, delta: float, s: float, m: int, Ns,
               horizon: int) -> list:
    """S_m(N) for each N of the ascending Ns, summed directly over
    N <= n < horizon and completed past it by _zeta_completion.  Every
    direct term is evaluated once: the segment [N_j, N_(j+1)) is summed
    pairwise (np.sum), and the segments are accumulated from the top,
    S(N_j) = segment_j + S(N_(j+1)), so the rounding error does not grow
    with the horizon as a running sum's would.  Each bound adds the
    completion's bound and the rounding of the direct part: per term,
    unit roundoff times 6 + delta (1 + 2 (n^s + |m|^s) / |n^s - |m|^s|),
    the conditioning of the difference, and the pairwise sum's rounding."""
    if horizon < Ns[-1]:
        raise ValueError("the horizon must be at least the largest N")
    am, bs = abs(m), float(abs(m)) ** s
    n = np.arange(Ns[0], horizon, dtype=float)
    keep = n != am
    n = n[keep]
    pair = 2.0
    if gamma != 0.0:
        # For n >= 0, {|n - m|, |n + m|} = {|n - |m||, n + |m|}: two slices
        # of one table of |j|^(-gamma), j = Ns[0] - |m| .. horizon + |m| - 1,
        # whose j = 0 (at the masked n = |m|) reads 1.
        power = np.arange(Ns[0] - am, horizon + am, dtype=float)
        np.abs(power, out=power)
        np.maximum(power, 1.0, out=power)
        power **= -gamma
        pair = (power[:keep.size] + power[2 * am:2 * am + keep.size])[keep]
    ns = n ** s
    gap = np.abs(ns - bs)
    terms = pair * gap ** (-delta)
    term_errs = terms * (6.0 + delta * (1.0 + 2.0 * (ns + bs) / gap))
    cuts = np.append(np.searchsorted(n, Ns), n.size)

    def from_top(x):
        segments = [float(x[lo:hi].sum()) for lo, hi in zip(cuts[:-1], cuts[1:])]
        return np.cumsum(segments[::-1])[::-1]

    completion, bound = _zeta_completion(gamma, delta, s, m, horizon)
    rounding = _pairwise_rounding(n.size) + len(Ns) * _UNIT
    out = []
    for N, partial, err in zip(Ns, from_top(terms), from_top(term_errs)):
        value = float(partial) + completion
        total = bound + _UNIT * float(err) + rounding * value
        if not total <= 1e-10 * value:
            raise ToleranceNotMet(
                f"remainder bound {total:.3e} exceeds 1e-10 of value {value:.6e}; "
                "raise the horizon")
        out.append(TailSum(gamma, delta, s, m, N, value,
                           expected_sigma(gamma, delta, s), int(horizon),
                           float(total)))
    return out


def tail_sum(gamma: float, delta: float, s: float, m: int, N: int) -> TailSum:
    """S_m(N) = sum over |n| >= N, |n| != |m| of
    |n-m|^(-gamma) ||n|^s - |m|^s|^(-delta), summed directly up to the
    horizon 10*max(N, |m|) and completed past it with the Hurwitz zeta
    series; the error bound must stay below 1e-10 of the value.
    """
    horizon = _tail_horizon(gamma, delta, s, m, [N])
    return _tail_sums(gamma, delta, s, m, [N], horizon)[0]


@dataclass
class TailFit:
    gamma: float
    delta: float
    s: float
    N_grid: list
    m_set: list
    values: np.ndarray          # shape (len(m_set), len(N_grid))
    max_per_N: np.ndarray
    slope: float
    sigma_expected: float
    passes: bool
    N0_empirical: int


def tail_decay_fit(gamma: float, delta: float, s: float, N_grid,
                   m_set) -> TailFit:
    """Least-squares decay exponent of max_m S_m(N) over the N grid.

    The grid must span at least 1.5 decades.  passes means the fitted
    slope is at most -sigma + 0.15; N0_empirical is the smallest grid N
    at which max_m S_m(N) already sits below the fitted power law
    anchored at the last grid point.
    """
    N_grid = sorted(int(N) for N in N_grid)
    m_set = sorted(int(m) for m in m_set)
    if len(N_grid) < 2 or N_grid[-1] < N_grid[0] * 10 ** 1.5:
        raise ValueError("N grid must span at least 1.5 decades")
    vals = np.empty((len(m_set), len(N_grid)))
    for i, m in enumerate(m_set):
        horizon = _tail_horizon(gamma, delta, s, m, N_grid)
        vals[i] = [t.value for t in _tail_sums(gamma, delta, s, m, N_grid, horizon)]
    max_per_N = vals.max(axis=0)
    slope = float(np.polyfit(np.log(N_grid), np.log(max_per_N), 1)[0])
    sigma = expected_sigma(gamma, delta, s)
    anchor = max_per_N[-1] * N_grid[-1] ** sigma
    ok = max_per_N <= anchor * np.asarray(N_grid, dtype=float) ** (-sigma) * (1 + 1e-9)
    N0 = int(N_grid[int(np.argmax(ok))]) if ok.any() else -1
    return TailFit(gamma, delta, s, N_grid, m_set, vals, max_per_N, slope,
                   sigma, bool(slope <= -sigma + 0.15), N0)
