"""Low-frequency rigidity: when can the three lowest exponentials (and
more generally 2N+1 of them) cancel identically along an observation
curve?

For the N = 1 triple the Wronskian of
    f_-(x) = e^(2 pi i (gamma(x) - x)),  f_0 = 1,
    f_+(x) = e^(2 pi i (gamma(x) + x))
factorizes as W(x) = -8 pi^2 (gamma'' - 2 pi i (gamma'^2 - 1)) f_+ f_-,
so nontrivial identical vanishing of c_-1 e_-1 + c_0 + c_1 e_1 along
x = gamma(t) forces gamma to be horizontal or affine of slope +-1; each
degenerate shape comes with an explicit one-dimensional space of
annihilating coefficients (emitted as the witness below, and verified
by substitution rather than quoted):

    horizontal gamma = x0:  c_0 = 0 and c_-1 e^(-2 pi i x0) + c_1 e^(2 pi i x0) = 0
    slope +1, gamma = x + beta:  c_1 = 0 and c_0 + c_-1 e^(-2 pi i beta) = 0
    slope -1, gamma = -x + beta: c_-1 = 0 and c_0 + c_1 e^(2 pi i beta) = 0

The module also carries the three-point admissibility test in the
plane, a finite-dimensional device of the uniqueness argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quad
from .classify import abs_pow
from .errors import AmbiguousCurve, InadmissiblePoints

_TWO_PI = 2.0 * np.pi
_AFFINE_TOL = 1e-10
_PROGRESSION_TOL = 1e-9
_PROBE_GRID = 2048         # samples of |F| along the curve in zero_set_probe


# ---------------------------------------------------------------------------
# observation curves
# ---------------------------------------------------------------------------

# Each kind as ascending (numerator, denominator) coefficient lists.
_GAMMA_KINDS = {
    "Horizontal": lambda p: ([p["x0"]], [1.0]),
    "Affine": lambda p: ([p["beta"], p["slope"]], [1.0]),
    "Polynomial": lambda p: (p["coeffs"], [1.0]),
    "Rational": lambda p: (p["num"], p["den"]),
}


@dataclass(frozen=True)
class ObservationCurveGamma:
    """Scalar observation curve x = gamma(t) with two derivatives.

    kinds: Horizontal {x0}; Affine {beta, slope}; Polynomial {coeffs,
    ascending}; Rational {num, den} (polynomial coefficient lists,
    ascending; the denominator must not vanish where evaluated).  Every
    kind is held as a rational num/den, the first three with den = 1.
    """

    kind: str
    params: dict

    def __post_init__(self):
        build = _GAMMA_KINDS.get(self.kind)
        if build is None:
            raise ValueError(f"unknown observation curve kind {self.kind!r}; "
                             f"choose from {tuple(_GAMMA_KINDS)}")
        num, den = (np.poly1d(np.asarray(c, dtype=float)[::-1])
                    for c in build(self.params))
        object.__setattr__(self, "_polys", (num, num.deriv(), num.deriv(2),
                                            den, den.deriv(), den.deriv(2)))

    def _den(self, x):
        q = self._polys[3](x)
        if np.any(np.abs(q) < 1e-12):
            raise ValueError("rational curve denominator vanishes on the domain")
        return q

    def gamma(self, x):
        x = np.asarray(x, dtype=float)
        return self._polys[0](x) / self._den(x)

    def dgamma(self, x):
        x = np.asarray(x, dtype=float)
        num, dn, _, _, dd, _ = self._polys
        p, q = num(x), self._den(x)
        return (dn(x) * q - p * dd(x)) / q ** 2

    def d2gamma(self, x):
        x = np.asarray(x, dtype=float)
        num, dn, d2n, _, dd, d2d = self._polys
        p, q = num(x), self._den(x)
        dp, dq = dn(x), dd(x)
        d1 = (dp * q - p * dq) / q ** 2
        return (d2n(x) - 2.0 * d1 * dq - p * d2d(x) / q) / q


# ---------------------------------------------------------------------------
# Wronskian criterion
# ---------------------------------------------------------------------------

def wronskian_n1(gamma: ObservationCurveGamma, x: np.ndarray) -> np.ndarray:
    """Factorized Wronskian of (f_-, 1, f_+) at the points x:
    -8 pi^2 (gamma''(x) - 2 pi i (gamma'(x)^2 - 1)) f_+(x) f_-(x)."""
    bracket = gamma.d2gamma(x) - _TWO_PI * 1j * (gamma.dgamma(x) ** 2 - 1.0)
    return -2.0 * _TWO_PI ** 2 * bracket * np.exp(2j * _TWO_PI * gamma.gamma(x))


@dataclass
class VanishingReport:
    case: str               # HorizontalCase | SlopeMinusOneCase | SlopePlusOneCase | OnlyTrivial
    relation: str
    witness: tuple | None   # (c_-1, c_0, c_1) annihilating the triple, or None
    detail: dict


def _horizontal_report(x0: float) -> VanishingReport:
    w = np.exp(2j * np.pi * x0)
    return VanishingReport(
        "HorizontalCase",
        "c_0 = 0 and c_-1 exp(-2 pi i x0) + c_1 exp(2 pi i x0) = 0",
        (complex(w), 0j, complex(-np.conj(w))),
        {"x0": x0})


def _slope_report(slope: float, beta: float) -> VanishingReport:
    phase = np.exp(-2j * np.pi * beta)
    if slope > 0:
        return VanishingReport(
            "SlopePlusOneCase",
            "c_1 = 0 and c_0 + c_-1 exp(-2 pi i beta) = 0",
            (1.0 + 0.0j, complex(-phase), 0j),
            {"beta": beta})
    return VanishingReport(
        "SlopeMinusOneCase",
        "c_-1 = 0 and c_0 + c_1 exp(2 pi i beta) = 0",
        (0j, 1.0 + 0.0j, complex(-phase)),
        {"beta": beta})


def n1_vanishing_classifier(gamma: ObservationCurveGamma,
                            samples) -> VanishingReport:
    """Decide which of the four N = 1 vanishing cases the curve falls in.

    Structural shapes are detected first (constant, then affine with
    slope +-1, via a least-squares line on the samples); everything
    else is OnlyTrivial, corroborated by the Wronskian being nonzero on
    a majority of the samples.  The emitted witness annihilates
    c_-1 e^(2 pi i (t - gamma)) + c_0 + c_1 e^(2 pi i (t + gamma))
    identically; witnesses are constructed from the derived relations.
    Fewer than 3 distinct samples raise AmbiguousCurve.
    """
    xs = np.asarray(sorted(float(x) for x in samples), dtype=float)
    if np.unique(xs).size < 3:
        raise AmbiguousCurve(
            "need at least 3 distinct samples to classify the curve")
    vals = np.asarray(gamma.gamma(xs), dtype=float)
    scale = max(1.0, float(np.abs(vals).max()))
    if float(vals.max() - vals.min()) < _AFFINE_TOL * scale:
        return _horizontal_report(float(vals.mean()))
    slope, intercept = np.polyfit(xs, vals, 1)
    residual = float(np.abs(vals - (slope * xs + intercept)).max())
    if residual < _AFFINE_TOL * scale:
        if abs(slope - 1.0) < _AFFINE_TOL:
            return _slope_report(+1.0, float(intercept))
        if abs(slope + 1.0) < _AFFINE_TOL:
            return _slope_report(-1.0, float(intercept))
    nonzero = int((np.abs(wronskian_n1(gamma, xs)) > 1e-8).sum())
    return VanishingReport(
        "OnlyTrivial", "c = 0", None,
        {"wronskian_nonzero_samples": nonzero, "samples": int(xs.size)})


# ---------------------------------------------------------------------------
# three-point admissibility
# ---------------------------------------------------------------------------

def _in_progression(values, step: float) -> bool:
    """True when all pairwise differences are within tolerance of a
    multiple of step (equal values form a degenerate progression)."""
    v = np.asarray(values, dtype=float)
    d = (v[None, :] - v[:, None])[np.triu_indices(v.size, 1)]
    res = np.abs(d - step * np.round(d / step))
    return bool(np.all(res <= _PROGRESSION_TOL))


@dataclass
class ThreePointReport:
    rank: int
    admissible: bool
    singular_values: tuple
    residual: float | None   # ||M c||_inf when a coefficient triple is supplied


def three_point_test(points, c) -> ThreePointReport:
    """Admissibility and rank of the 3x3 system
    c_-1 e^(i (t_j - x_j)) + c_0 + c_1 e^(i (t_j + x_j)) = 0 at three
    planar points (t_j, x_j).

    Admissible means: the x_j do not lie in an arithmetic progression
    of step pi, and neither t_j + x_j nor t_j - x_j lie in one of step
    2 pi (modular residues compared with tolerance 1e-9; violations
    raise InadmissiblePoints naming the failing condition).  For
    admissible triples the matrix has rank 3, so only c = 0 cancels at
    all three points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape != (3, 2):
        raise ValueError("need exactly three planar points (t, x)")
    t, x = pts[:, 0], pts[:, 1]
    violated = []
    if _in_progression(x, np.pi):
        violated.append("x_j lie in a pi-progression")
    if _in_progression(t + x, 2.0 * np.pi):
        violated.append("t_j + x_j lie in a 2 pi-progression")
    if _in_progression(t - x, 2.0 * np.pi):
        violated.append("t_j - x_j lie in a 2 pi-progression")
    if violated:
        raise InadmissiblePoints("; ".join(violated))
    M = np.stack([np.exp(1j * (t - x)), np.ones(3, dtype=complex),
                  np.exp(1j * (t + x))], axis=1)
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int((sv > 1e-10 * sv[0]).sum())
    residual = None
    if c is not None:
        cc = np.asarray(c, dtype=complex)
        if cc.shape != (3,):
            raise ValueError("need exactly three coefficients (c_-1, c_0, c_1)")
        residual = float(np.abs(M @ cc).max())
    return ThreePointReport(rank, True, tuple(float(s) for s in sv), residual)


# ---------------------------------------------------------------------------
# zero-set probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowFreqSystem:
    """Finite low-frequency block: indices -N..N with temporal
    frequencies |n|^s and pairwise-distinct spatial frequencies."""

    N: int
    s: float
    lambdas: tuple
    coefficients: tuple

    def __post_init__(self):
        K = 2 * self.N + 1
        lam = tuple(float(x) for x in self.lambdas)
        if len(lam) != K or len(self.coefficients) != K:
            raise ValueError("need 2N+1 frequencies and coefficients")
        gaps = np.diff(np.sort(np.asarray(lam)))
        if gaps.size and float(gaps.min()) < 1e-9:
            raise ValueError("spatial frequencies must be pairwise distinct")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "coefficients",
                           tuple(complex(z) for z in self.coefficients))

    def evaluate_on_curve(self, gamma: ObservationCurveGamma, t):
        t = np.asarray(t, dtype=float)
        lam = np.asarray(self.lambdas)
        temp = abs_pow(np.arange(-self.N, self.N + 1), self.s)
        c = np.asarray(self.coefficients)
        phase = np.outer(gamma.gamma(t), lam) + np.outer(t, temp)
        return np.exp(2j * np.pi * phase) @ c


@dataclass
class ZeroProbeReport:
    verdict: str            # IsolatedZerosOnly | SuspectedIdenticallyZero
    zeros: list
    max_abs: float
    coeff_norm: float


def zero_set_probe(system: LowFreqSystem, gamma: ObservationCurveGamma,
                   T: float) -> ZeroProbeReport:
    """Scan |F(t, gamma(t))| on [0, T]: report refined local minima that
    reach (numerical) zero, and the identically-zero verdict when the
    whole grid stays below 1e-10 of the coefficient norm.  Accumulation
    of zeros cannot be decided numerically; uniform smallness is the
    documented proxy.  T must be positive."""
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    c_norm = float(np.linalg.norm(system.coefficients))
    if c_norm == 0.0:
        return ZeroProbeReport("SuspectedIdenticallyZero", [], 0.0, 0.0)
    ts = np.linspace(0.0, T, _PROBE_GRID)
    av = np.abs(system.evaluate_on_curve(gamma, ts))
    max_abs = float(av.max())
    if max_abs < 1e-10 * c_norm:
        return ZeroProbeReport("SuspectedIdenticallyZero", [], max_abs, c_norm)
    zeros = []
    # Candidate filter at 1e-2: a simple zero sampled at grid spacing h
    # only reaches O(h * |F'|), so the cut must sit well above that;
    # the sign-change bisection below still rejects non-zeros at 1e-8.
    interior = np.nonzero((av[1:-1] <= av[:-2]) & (av[1:-1] <= av[2:])
                          & (av[1:-1] < 1e-2 * c_norm))[0] + 1

    lam = np.asarray(system.lambdas)
    temp = abs_pow(np.arange(-system.N, system.N + 1), system.s)
    cvec = np.asarray(system.coefficients)

    def f_and_df(t):
        tv = np.asarray([t], dtype=float)
        phase = np.outer(gamma.gamma(tv), lam) + np.outer(tv, temp)
        waves = np.exp(2j * np.pi * phase)
        val = complex((waves @ cvec)[0])
        rates = lam * float(gamma.dgamma(tv)[0]) + temp
        der = complex(2j * np.pi * (waves @ (cvec * rates))[0])
        return val, der

    def slope_sq(t):
        val, der = f_and_df(t)
        return 2.0 * (val.conjugate() * der).real

    for i in interior:
        # A local minimum of |F|^2 is a sign change of its derivative;
        # bisecting that bracket reaches machine precision in t, which a
        # generic minimizer cannot (its step floor is ~sqrt(eps)*|t|).
        lo, hi = float(ts[i - 1]), float(ts[i + 1])
        d_lo, d_hi = slope_sq(lo), slope_sq(hi)
        if d_lo == 0.0:
            t_star = lo
        elif d_hi == 0.0:
            t_star = hi
        elif d_lo * d_hi < 0.0:
            t_star = quad.bisect(slope_sq, lo, hi, d_lo,
                                 lambda h: 1e-15 * max(1.0, abs(h)))
        else:
            t_star = float(ts[i])
        if abs(f_and_df(t_star)[0]) < 1e-8 * c_norm:
            zeros.append(float(t_star))
    return ZeroProbeReport("IsolatedZerosOnly", zeros, max_abs, c_norm)
