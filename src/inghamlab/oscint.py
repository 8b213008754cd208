"""Certified oscillatory integrals I_(n,m)(T) and their decay bounds.

The central object is

    I_(n,m)(T) = integral_0^T exp(2 pi i ((n-m) p(t) + (|n|^s - |m|^s) t)) dt,

the inner product of two curve-restricted exponentials.  When |n| != |m|
the total phase factors as lambda * phi(t) with

    phi(t)    = t + A_signed * p(t),   A_signed = (n-m)/(|n|^s-|m|^s),
    lambda    = 2 pi (|n|^s - |m|^s),

and phi' is monotone whenever p' is, so the phase has at most one
stationary point on (0, T).

The integrator subdivides [0, T] so every panel holds at most one and a
half oscillations (|delta psi| <= 3 pi), refines dyadically around
stationary points down to width 1e-6 T, and certifies each panel with
the embedded Gauss-Kronrod pair: the 21-point Kronrod value, and as its
error estimate |K21 - G10| against the 10-point Gauss rule on the same
nodes, floored at QUADPACK's rounding term 50 eps sum w_K |f|.  Every
panel whose estimate is too large is halved.  The phase cap only sets
where that refinement starts: K21 is at rounding for up to about 3
oscillations per panel and G10 at 1e-13 for about 1.25, so the
certificate, not the cap, decides where panels must be smaller.  All
panel bookkeeping is vectorized; the only Python-level loops are
O(log) splitting rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import abs_pow, classify_pair, tau_threshold
from .curves import CurveSpec
from .errors import InadmissibleEta, ToleranceNotMet
from .quad import gauss_kronrod21, kronrod_panels

_PANEL_PHASE = 3.0 * np.pi  # max phase change per panel: 1.5 oscillations
_CLUSTER_WIDTH = 1e-6      # dyadic refinement floor around stationary points, rel. to T
_BISECT_TOL = 1e-13        # stationary-point bisection tolerance in t
_PANEL_BUDGET = 2 ** 20    # most panels one integral may split into
_ROUNDING = 50.0 * np.finfo(float).eps   # QUADPACK's rounding floor, per unit of sum w|f|
_GRID = np.unique(np.concatenate([           # root-bracketing grid on (0, 1]
    np.geomspace(1e-9, 1.0, 200), np.linspace(0.0, 1.0, 257)[1:]]))


@dataclass
class QuadResult:
    value: complex
    abs_error_estimate: float
    panels: int
    stationary_points: list
    edges: np.ndarray      # sorted edges of the final panels


def _sign_change_roots(f, b: float) -> list:
    """Roots of a continuous scalar function on (0, b) by bracketing.  The
    grid skips t = 0, where p' is infinite for Muntz exponents below 1."""
    grid = b * _GRID
    vals = np.asarray(f(grid), dtype=float)
    roots = []
    sgn = np.sign(vals)
    exact = np.nonzero(sgn == 0)[0]
    for i in exact:
        if 0.0 < grid[i] < b:
            roots.append(float(grid[i]))
    idx = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    for i in idx:
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = vals[i]
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            fm = float(f(np.array([mid]))[0])
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return sorted(roots)


def phase_integral(d: float, e: float, curve: CurveSpec, T: float,
                   tol: float = 1e-9, weight=None) -> QuadResult:
    """Adaptive certified integral of exp(2 pi i (d p(t) + e t)) w(t) over
    [0, T], for arbitrary real phase multipliers d and e.

    The value is the 21-point Kronrod sum, and the returned
    abs_error_estimate is the summed per-panel max(|K21 - G10|,
    50 eps sum w_K |f|), the discrepancy against the embedded 10-point
    Gauss rule floored at the panel's rounding level; panels are split
    until it drops below tol or the panel budget is exhausted
    (ToleranceNotMet).  The curve's knots are panel edges, so the
    estimate never misses a tabulated curve's kinks.
    """
    if not T > 0:
        raise ValueError("T must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    two_pi = 2.0 * np.pi

    def psi(t):
        return two_pi * (d * curve.p(t) + e * t)

    def dpsi(t):
        return two_pi * (d * curve.dp(t) + e)

    if d == 0.0 and e == 0.0:
        roots = []
    else:
        roots = _sign_change_roots(dpsi, T)

    # breakpoints: ends, the curve's knots, and dyadic shells around every
    # stationary point
    pts = [0.0, T]
    for r in roots:
        w = T
        while w > _CLUSTER_WIDTH * T:
            w *= 0.5
            for c in (r - w, r + w):
                if 0.0 < c < T:
                    pts.append(c)
    knots = curve.knots[(curve.knots > 0.0) & (curve.knots < T)]
    edges = np.unique(np.concatenate([np.asarray(pts, dtype=float), knots]))
    a, b = edges[:-1], edges[1:]
    pa, pb = psi(a), psi(b)

    # split until every panel carries at most 1.5 oscillations; the
    # K21/G10 refinement below halves the panels that need it
    for _ in range(64):
        bad = np.abs(pb - pa) > _PANEL_PHASE
        if not bad.any():
            break
        if a.size + np.count_nonzero(bad) > _PANEL_BUDGET:
            raise ToleranceNotMet(
                f"panel budget {_PANEL_BUDGET} exhausted while splitting phase")
        mid = 0.5 * (a[bad] + b[bad])
        pm = psi(mid)
        keep = ~bad
        a = np.concatenate([a[keep], a[bad], mid])
        b = np.concatenate([b[keep], mid, b[bad]])
        pa = np.concatenate([pa[keep], pa[bad], pm])
        pb = np.concatenate([pb[keep], pm, pb[bad]])

    _, wk, wg = gauss_kronrod21()

    def panel_values(lo, hi):
        _, half, t = kronrod_panels(lo, hi)
        f = np.exp(1j * psi(t.ravel())).reshape(t.shape)
        if weight is not None:
            f = f * weight(t.ravel()).reshape(t.shape)
        k21 = half * (f @ wk)
        diff = np.abs(k21 - half * (f[:, :wg.size] @ wg))
        return k21, diff, np.maximum(diff, _ROUNDING * half * (np.abs(f) @ wk))

    # Panels are picked for halving by |K21 - G10| alone: halving cannot
    # lower an estimate that is its panel's rounding floor.
    vals, diffs, errs = panel_values(a, b)
    for _ in range(48):
        total_err = float(errs.sum())
        if total_err <= tol:
            break
        bad = diffs > 0.5 * tol / max(1, errs.size)
        if not bad.any():
            bad = diffs >= diffs.max()
        if a.size + np.count_nonzero(bad) > _PANEL_BUDGET:
            raise ToleranceNotMet(
                f"panel budget {_PANEL_BUDGET} exhausted at error {total_err:.3e}")
        mid = 0.5 * (a[bad] + b[bad])
        lo = np.concatenate([a[bad], mid])
        hi = np.concatenate([mid, b[bad]])
        new_vals, new_diffs, new_errs = panel_values(lo, hi)
        keep = ~bad
        a = np.concatenate([a[keep], lo])
        b = np.concatenate([b[keep], hi])
        vals = np.concatenate([vals[keep], new_vals])
        diffs = np.concatenate([diffs[keep], new_diffs])
        errs = np.concatenate([errs[keep], new_errs])

    return QuadResult(complex(vals.sum()), float(errs.sum()), int(a.size),
                      [float(r) for r in roots], np.append(np.sort(a), T))


def oscillatory_integral(n: int, m: int, s: float, curve: CurveSpec, T: float,
                         tol: float = 1e-9, weight=None) -> QuadResult:
    """I_(n,m)(T) for the pair (n, m) at dispersion s, optionally weighted.

    Unweighted diagonal pairs short-circuit to the exact value T.
    """
    if n == m and weight is None:
        if T <= 0:
            raise ValueError("T must be positive")
        return QuadResult(complex(T), 0.0, 1, [], np.array([0.0, T]))
    d = float(n - m)
    e = float(abs_pow(np.asarray(n), s) - abs_pow(np.asarray(m), s))
    return phase_integral(d, e, curve, T, tol, weight)


# ---------------------------------------------------------------------------
# decay bounds
# ---------------------------------------------------------------------------

def eta_admissible_range(s: float, alpha: float) -> tuple:
    """Admissible (lo, hi, hi_inclusive) for the interpolation parameter eta."""
    lo = -(alpha - 1.0)
    if s >= 1.0 + 1.0 / alpha:
        return lo, 1.0, True
    hi = (s - 1.0) * (alpha - 1.0) / (2.0 - s)
    return lo, hi, False


def check_eta(eta: float, s: float, alpha: float) -> None:
    lo, hi, inclusive = eta_admissible_range(s, alpha)
    if not eta > lo:
        raise InadmissibleEta(f"eta={eta} violates eta > -(alpha-1) = {lo}")
    if inclusive:
        if not eta <= hi:
            raise InadmissibleEta(f"eta={eta} violates eta <= 1 (s >= 1 + 1/alpha)")
    elif not eta < hi:
        raise InadmissibleEta(
            f"eta={eta} violates eta < (s-1)(alpha-1)/(2-s) = {hi} (1 < s < 1 + 1/alpha)")


def default_eta(s: float, alpha: float) -> float:
    """A safe admissible eta: 1 in the wide regime, mid-range otherwise."""
    lo, hi, inclusive = eta_admissible_range(s, alpha)
    return 1.0 if inclusive else 0.5 * hi


def antidiagonal_t0(curve: CurveSpec) -> float:
    """Window floor for the antidiagonal bound: (3(alpha-1)/(4 pi c1))^(1/alpha)."""
    al = curve.alpha
    return (3.0 * (al - 1.0) / (4.0 * np.pi * curve.c1)) ** (1.0 / al)


def vdc_theoretical_bound(n: int, m: int, s: float, curve: CurveSpec, T: float,
                          eta: float | None = None):
    """Stationary-phase decay bound for |I_(n,m)(T)|, without implied constant.

    Diagonal pairs have no decay bound (the integral is exactly T): None.
    AntiDiagonal:  |n|^(-1/alpha)          (valid for T >= antidiagonal_t0)
    GoodPlus/Minus: 1 / ||n|^s - |m|^s|
    Bad:           T^((1-eta)/2) |n-m|^(-eta/(2(alpha-1)))
                     * ||n|^s - |m|^s|^(-(alpha-1-eta)/(2(alpha-1)))
    eta must be admissible whenever supplied; it is required for Bad pairs.
    """
    if eta is not None:
        check_eta(eta, s, curve.alpha)
    pc = classify_pair(n, m, s, tau_threshold(curve, T))
    if pc.tag == "Diagonal":
        return None
    if pc.tag == "AntiDiagonal":
        return abs(n) ** (-1.0 / curve.alpha)
    e = abs(float(abs_pow(np.asarray(n), s) - abs_pow(np.asarray(m), s)))
    if pc.tag in ("GoodPlus", "GoodMinus"):
        return 1.0 / e
    if eta is None:
        raise InadmissibleEta("bad-pair bound needs an explicit eta")
    al = curve.alpha
    denom = 2.0 * (al - 1.0)
    return (T ** ((1.0 - eta) / 2.0)
            * abs(n - m) ** (-eta / denom)
            * e ** (-(al - 1.0 - eta) / denom))
