"""Certified oscillatory integrals I_(n,m)(T).

The central object is

    I_(n,m)(T) = integral_0^T exp(2 pi i ((n-m) p(t) + (|n|^s - |m|^s) t)) dt,

the inner product of two curve-restricted exponentials.  When |n| != |m|
the total phase factors as lambda * phi(t) with

    phi(t)    = t + A_signed * p(t),   A_signed = (n-m)/(|n|^s-|m|^s),
    lambda    = 2 pi (|n|^s - |m|^s),

and phi' is monotone whenever p' is, so the phase has at most one
stationary point on (0, T).

The integrator's only forced panel edges are the ends, the stationary
points and the curve's knots.  It subdivides [0, T] so every panel holds
at most one and a half oscillations (|delta psi| <= 3 pi), and
certifies each panel with the embedded Gauss-Kronrod pair: the 21-point
Kronrod value, and as its error estimate |K21 - G10| against the
10-point Gauss rule on the same nodes, floored at QUADPACK's rounding
term 50 eps sum w_K |f|.  Every panel whose estimate is too large is
halved (QUADPACK's adaptive rule), which alone grades the panels near a
stationary point.  The phase cap only sets where that refinement
starts: K21 is at rounding for up to about 3 oscillations per panel and
G10 at 1e-13 for about 1.25, so the certificate, not the cap, decides
where panels must be smaller.  The result meets tol, or the call raises
ToleranceNotMet.  All panel bookkeeping is vectorized; the only
Python-level loops are O(log) splitting rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quad
from .classify import abs_pow
from .curves import CurveSpec
from .errors import ToleranceNotMet
from .quad import gauss_kronrod21, kronrod_panels

_PANEL_PHASE = 3.0 * np.pi  # max phase change per panel: 1.5 oscillations
_BISECT_TOL = 1e-13        # stationary-point bisection tolerance in t
# Halving rounds before ToleranceNotMet.  Grading toward an endpoint
# singularity halves the end panel once per round, so an end panel of
# width T / 2^k takes k rounds: the Muntz sqrt(t) arc-length diagonal at
# tol 1e-12 takes 70.  quad.PANEL_BUDGET bounds the work of one round.
_ROUNDS = 96
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
    """Roots of a continuous scalar function on (0, b): sign changes on a
    fixed grid, each bisected by quad.bisect to _BISECT_TOL.  The grid
    skips t = 0, where p' is infinite for Muntz exponents below 1."""
    grid = b * _GRID
    vals = np.asarray(f(grid), dtype=float)
    roots = []
    sgn = np.sign(vals)
    exact = np.nonzero(sgn == 0)[0]
    for i in exact:
        if 0.0 < grid[i] < b:
            roots.append(float(grid[i]))
    for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
        roots.append(quad.bisect(lambda t: float(f(np.array([t]))[0]),
                                 float(grid[i]), float(grid[i + 1]),
                                 float(vals[i]), lambda hi: _BISECT_TOL))
    return sorted(roots)


def phase_integral(d: float, e: float, curve: CurveSpec, T: float,
                   tol: float, weight=None) -> QuadResult:
    """Adaptive certified integral of exp(2 pi i (d p(t) + e t)) w(t) over
    [0, T], for arbitrary real phase multipliers d and e.

    The value is the 21-point Kronrod sum, and the returned
    abs_error_estimate is the summed per-panel max(|K21 - G10|,
    50 eps sum w_K |f|), the discrepancy against the embedded 10-point
    Gauss rule floored at the panel's rounding level; panels are halved
    until it is at most tol, or ToleranceNotMet is raised when the
    halving rounds or the panel budget run out.  The curve's knots are
    panel edges, so the estimate never misses a tabulated curve's kinks.
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

    knots = curve.knots[(curve.knots > 0.0) & (curve.knots < T)]
    edges = np.unique(np.concatenate([[0.0, T], roots, knots]))
    a, b = edges[:-1], edges[1:]
    pa, pb = psi(a), psi(b)

    # split until every panel carries at most 1.5 oscillations; the
    # K21/G10 refinement below halves the panels that need it
    for _ in range(64):
        bad = np.abs(pb - pa) > _PANEL_PHASE
        if not bad.any():
            break
        if a.size + np.count_nonzero(bad) > quad.PANEL_BUDGET:
            raise ToleranceNotMet(
                f"panel budget {quad.PANEL_BUDGET} exhausted while splitting phase")
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
    for rounds in range(_ROUNDS + 1):
        total_err = float(errs.sum())
        if total_err <= tol:
            break
        if rounds == _ROUNDS:
            raise ToleranceNotMet(
                f"phase integral d={d:g}, e={e:g}, T={T:g}: error "
                f"{total_err:.3e} on {a.size} panels exceeds tol {tol:.3e} "
                f"after {_ROUNDS} halving rounds")
        bad = diffs > 0.5 * tol / max(1, errs.size)
        if not bad.any():
            bad = diffs >= diffs.max()
        if a.size + np.count_nonzero(bad) > quad.PANEL_BUDGET:
            raise ToleranceNotMet(
                f"panel budget {quad.PANEL_BUDGET} exhausted at error {total_err:.3e}")
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
                         tol: float) -> QuadResult:
    """I_(n,m)(T) for the pair (n, m) at dispersion s.

    Diagonal pairs short-circuit to the exact value T.
    """
    if n == m:
        if not T > 0:
            raise ValueError("T must be positive")
        if not tol > 0:
            raise ValueError("tol must be positive")
        return QuadResult(complex(T), 0.0, 1, [], np.array([0.0, T]))
    d = float(n - m)
    pn, pm = abs_pow(np.array([n, m]), s)
    e = float(pn - pm)
    return phase_integral(d, e, curve, T, tol)

