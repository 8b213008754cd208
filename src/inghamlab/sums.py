"""Pair-weight suprema and certified tail sums.

Two families of scalar quantities attached to the frequency pattern
|n|^s:

  * the truncated supremum of |n - m| / ||n|^s - |m|^s|^gamma over an
    integer square, which stays bounded (by 4) exactly when
    (s-1) gamma >= 1 and otherwise grows like a power of the truncation;

  * the tails S_m(N) of the double-index weights
    a_(n,m) = |n - m|^(-gamma) ||n|^s - |m|^s|^(-delta), summed over
    |n| >= N, |n| != |m|, which decay like N^(-sigma) uniformly in m.

Tail sums are certified: the horizon truncation carries an
Euler-Maclaurin remainder (integral + f/2 - f'/12) whose error bound is
reported and kept below 1e-10 of the value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergentParameters, ToleranceNotMet

_CELL_BUDGET = 1 << 20   # float64 cells per row block of the sup scan
# The sup scan takes about 15 ns per cell (sup_M(0.5, 2, 20000): 5.9 s),
# so a 150 s budget caps N_trunc at sqrt(150 s / 15 ns) = 10^5.
_MAX_N_TRUNC = round((150.0 / 15e-9) ** 0.5)
_MIN_HORIZON = 10 ** 6
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
    so the scan runs over the quadrant a = |n|, b = |m| with value
    (a + b) / |a^s - b^s|^gamma and representative pair (-a, b).

    growth_fit is the log-log slope of the prefix suprema at the
    checkpoint truncations; it is the interesting output when
    (s-1) gamma < 1 and the sup diverges.  N_trunc is capped at 10^5.
    """
    if gamma <= 0 or s <= 1:
        raise ValueError("need gamma > 0 and s > 1")
    if N_trunc < 10:
        raise ValueError("N_trunc must be at least 10")
    if N_trunc > _MAX_N_TRUNC:
        raise ValueError(f"N_trunc must be at most {_MAX_N_TRUNC} (a scan "
                         f"of about 150 s), got {N_trunc}")
    checkpoints = sorted(set(int(c) for c in checkpoints))

    b = np.arange(N_trunc + 1, dtype=float)
    pow_b = b ** s
    best_val, best_ab = -1.0, (0, 1)
    col_best = np.zeros(N_trunc + 1)      # running max over processed a, per b
    prefix: list = []

    # Row blocks of about _CELL_BUDGET cells that also end at every
    # checkpoint, so the prefix maxima are exact.
    rows = max(1, _CELL_BUDGET // (N_trunc + 1))
    cuts = sorted({*range(0, N_trunc + 1, rows), N_trunc + 1,
                   *(cp + 1 for cp in checkpoints)})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        a = b[lo:hi]
        denom = np.abs(pow_b[lo:hi, None] - pow_b[None, :])
        np.fill_diagonal(denom[:, lo:hi], np.inf)
        vals = (a[:, None] + b[None, :]) / (denom if gamma == 1.0
                                            else denom ** gamma)
        flat = int(np.argmax(vals))
        ia, ib = divmod(flat, N_trunc + 1)
        if vals[ia, ib] > best_val:
            best_val = float(vals[ia, ib])
            best_ab = (lo + ia, ib)
        np.maximum(col_best, vals.max(axis=0), out=col_best)
        if hi - 1 in checkpoints:
            prefix.append((hi - 1, float(col_best[:hi].max())))

    growth = None
    if len(prefix) >= 2:
        xs, ys = np.log(prefix).T
        growth = float(np.polyfit(xs, ys, 1)[0])
    a_star, b_star = best_ab
    return SupScan(gamma, s, N_trunc, best_val, (-a_star, b_star), growth, prefix)


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
    horizon: int
    remainder_bound: float


def _rising_binom(alpha: float, count: int) -> np.ndarray:
    """Coefficients of (1-z)^(-alpha) = sum_k coef[k] z^k for k < count,
    i.e. coef[k] = alpha (alpha+1) ... (alpha+k-1) / k!.
    """
    coef = np.empty(count)
    coef[0] = 1.0
    for k in range(1, count):
        coef[k] = coef[k - 1] * (alpha + k - 1.0) / k
    return coef


def _power_integral(gamma, delta, s, c, b, start):
    """integral from start to infinity of (x-c)^(-gamma) (x^s-b)^(-delta),
    as (value, truncation_bound).  Expands both factors binomially in
    c/x and b/x^s and integrates term by term; needs start to dominate
    both scales (10x is plenty) so the double series is geometric.
    """
    q = gamma + s * delta
    ratio = max(abs(c) / start, abs(b) / start ** s)
    if ratio > 0.2:
        raise ValueError("start does not dominate the shift scales")
    levels = 64
    cg = _rising_binom(gamma, levels) * (c / start) ** np.arange(levels)
    cd = _rising_binom(delta, levels) * (b / start ** s) ** np.arange(levels)
    scale = start ** (1.0 - q)
    total, level_abs = 0.0, np.inf
    for level in range(levels):
        ks = np.arange(level + 1)
        js = level - ks
        terms = cg[ks] * cd[js] * scale / (q + ks + s * js - 1.0)
        level_abs = float(np.abs(terms).sum())
        total += float(terms.sum())
        if level_abs <= 1e-18 * abs(total) and level >= 2:
            break
    return total, level_abs


def _branch_remainder(gamma, delta, s, c, b, start):
    """Sum over integer x >= start of (x-c)^(-gamma) (x^s - b)^(-delta),
    certified: (value, error_bound).  Requires start > max(|c|, b^(1/s))
    with room to spare so the summand is smooth, positive, convex.
    """
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-gamma * np.log(x - c)
                      - delta * (s * np.log(x) + np.log1p(-b * x ** (-s))))

    def dg(x):
        return float(g(x)) * (-gamma / (x - c)
                              - delta * s / (x * (1.0 - b * x ** (-s))))

    integral, trunc = _power_integral(gamma, delta, s, c, b, start)
    ga, dga = float(g(start)), dg(start)
    value = integral + 0.5 * ga - dga / 12.0
    return value, trunc + abs(dga) / 6.0


def _tail_horizon(gamma: float, delta: float, s: float, m: int, N: int) -> int:
    """Check the arguments of S_m(N) and return its horizon,
    max(10^6, 10*max(N, |m|))."""
    if delta <= 0 or s <= 1:
        raise ValueError("need delta > 0 and s > 1")
    if N < 1:
        raise ValueError("N must be a positive count")
    _check_convergence(gamma, delta, s)
    return max(_MIN_HORIZON, 10 * max(N, abs(m)))


def _tail_sums(gamma: float, delta: float, s: float, m: int, Ns,
               horizon: int) -> list:
    """S_m(N) for each N of the ascending Ns, all summed directly up to
    one horizon.  Every term is evaluated once: the segment [N_j, N_(j+1))
    is summed pairwise (np.sum), and the segments are accumulated from the
    top, S(N_j) = segment_j + S(N_(j+1)), so the rounding error does not
    grow with the horizon as a running sum's would.  One Euler-Maclaurin
    remainder, with its error bound, completes every N."""
    am, bs = abs(m), float(abs(m)) ** s
    n = np.arange(Ns[0], horizon + 1, dtype=float)
    n = n[n != am]
    pair = 2.0 if gamma == 0.0 else \
        np.abs(n - m) ** (-gamma) + np.abs(n + m) ** (-gamma)
    terms = pair * np.abs(n ** s - bs) ** (-delta)
    cuts = np.append(np.searchsorted(n, Ns), n.size)
    segments = [float(terms[lo:hi].sum()) for lo, hi in zip(cuts[:-1], cuts[1:])]
    partials = np.cumsum(segments[::-1])[::-1]

    remainder, bound = 0.0, 0.0
    for c in ((m, -m) if gamma != 0.0 else (0, 0)):
        v, e = _branch_remainder(gamma, delta, s, float(c), bs, horizon + 1.0)
        remainder += v
        bound += e
    out = []
    for N, partial in zip(Ns, partials):
        value = float(partial) + remainder
        if not bound <= 1e-10 * value:
            raise ToleranceNotMet(
                f"remainder bound {bound:.3e} exceeds 1e-10 of value {value:.6e}; "
                "raise the horizon")
        out.append(TailSum(gamma, delta, s, m, N, value,
                           expected_sigma(gamma, delta, s), int(horizon), bound))
    return out


def tail_sum(gamma: float, delta: float, s: float, m: int, N: int) -> TailSum:
    """S_m(N) = sum over |n| >= N, |n| != |m| of
    |n-m|^(-gamma) ||n|^s - |m|^s|^(-delta), summed directly up to the
    horizon and completed with an Euler-Maclaurin remainder whose error
    bound must stay below 1e-10 of the value.
    """
    horizon = _tail_horizon(gamma, delta, s, m, N)
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
        horizons = [_tail_horizon(gamma, delta, s, m, N) for N in N_grid]
        for h in sorted(set(horizons)):
            cols = [j for j, hj in enumerate(horizons) if hj == h]
            tails = _tail_sums(gamma, delta, s, m, [N_grid[j] for j in cols], h)
            vals[i, cols] = [t.value for t in tails]
    max_per_N = vals.max(axis=0)
    slope = float(np.polyfit(np.log(N_grid), np.log(max_per_N), 1)[0])
    sigma = expected_sigma(gamma, delta, s)
    anchor = max_per_N[-1] * N_grid[-1] ** sigma
    ok = max_per_N <= anchor * np.asarray(N_grid, dtype=float) ** (-sigma) * (1 + 1e-9)
    N0 = int(N_grid[int(np.argmax(ok))]) if ok.any() else -1
    return TailFit(gamma, delta, s, N_grid, m_set, vals, max_per_N, slope,
                   sigma, bool(slope <= -sigma + 0.15), N0)
