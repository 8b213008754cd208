"""Observation curves and planar measures.

Curve families carry an exponent alpha > 1 together with declared constants
c1, c2, c3 for the admissibility bundle

    c1 t^(alpha-1) <= |p'(t)| <= c2 t^(alpha-1)   (t >= 0),
    |p''(t)|      >= c3 t^(alpha-2)               (t > 0),

with p' of constant sign on the window.  Validation checks the three
inequalities on a log-spaced grid in (T*1e-6, T] with relative slack 1e-9,
so exact-equality families (e.g. p = b t^alpha with c1 = c2) pass.

Measures are planar probability measures represented by quadrature nodes
z_k in R^2 and nonnegative weights w_k summing to one, with the transform
convention

    mu_hat(xi) = sum_k w_k exp(-2 pi i <xi, z_k>),      mu_hat(0) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCurve, InsufficientDecay, NonAdmissible
from .quad import gl_grid

_REL_SLACK = 1e-9  # relative slack for the grid inequalities
_MU_HAT_CHUNK = 8  # frequencies per block of mu_hat_grid
_DECAY_DIRECTIONS = 64  # equispaced directions per radius of a decay fit


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveSpec:
    """A concrete curve p with declared admissibility data.

    kind is one of CURVE_KINDS; params holds the construction parameters,
    so a {kind, params} document rebuilds the curve (curve_from_dict).
    Affine curves are retained as a straight-line baseline; they carry
    alpha = 1 and always fail validation.
    The kind's builder in CURVE_KINDS supplies p, p', p'' and `knots`, the
    sorted times where p may fail to be smooth (a tabulated curve's t grid,
    empty for the closed-form kinds).
    """

    kind: str
    params: dict
    alpha: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        _, _, formulas, knots = _curve_builder(self.kind)(self.params)
        object.__setattr__(self, "_formulas", formulas)
        object.__setattr__(self, "knots", knots)

    def p(self, t):
        return self._formulas[0](np.asarray(t, dtype=float))

    def dp(self, t):
        return self._formulas[1](np.asarray(t, dtype=float))

    def d2p(self, t):
        return self._formulas[2](np.asarray(t, dtype=float))


@dataclass
class ValidationReport:
    """Grid check of the admissibility inequalities on (T*1e-6, T]."""

    passed: bool
    lower_ratio_min: float   # min |p'| / (c1 t^(alpha-1)); needs >= 1
    upper_ratio_max: float   # max |p'| / (c2 t^(alpha-1)); needs <= 1
    curvature_ratio_min: float  # min |p''| / (c3 t^(alpha-2)); needs >= 1
    sign_constant: bool
    T: float
    grid_size: int
    failures: list = field(default_factory=list)


def validate_H_alpha(curve: CurveSpec, T: float, grid_size: int = 256) -> ValidationReport:
    """Check the declared (c1, c2, c3, alpha) bundle on a log-spaced grid."""
    if T <= 0:
        raise ValueError("T must be positive")
    if grid_size < 16:
        raise ValueError("grid_size must be >= 16")
    t = np.geomspace(T * 1e-6, T, grid_size)
    dp = np.asarray(curve.dp(t), dtype=float)
    d2p = np.asarray(curve.d2p(t), dtype=float)
    growth = np.power(t, curve.alpha - 1.0)
    bend = np.power(t, curve.alpha - 2.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        lower = np.min(np.abs(dp) / (curve.c1 * growth))
        upper = np.max(np.abs(dp) / (curve.c2 * growth))
        curvature = np.min(np.abs(d2p) / (curve.c3 * bend))
    sign_constant = bool(np.all(dp > 0) or np.all(dp < 0))

    failures = []
    if not lower >= 1.0 - _REL_SLACK:
        failures.append(f"lower derivative bound fails: min ratio {lower:.6g}")
    if not upper <= 1.0 + _REL_SLACK:
        failures.append(f"upper derivative bound fails: max ratio {upper:.6g}")
    if not curvature >= 1.0 - _REL_SLACK:
        failures.append(f"curvature bound fails: min ratio {curvature:.6g}")
    if not sign_constant:
        failures.append("p' changes sign on the grid")
    return ValidationReport(
        passed=not failures,
        lower_ratio_min=float(lower),
        upper_ratio_max=float(upper),
        curvature_ratio_min=float(curvature),
        sign_constant=sign_constant,
        T=float(T),
        grid_size=int(grid_size),
        failures=failures,
    )


# One builder per curve kind: params -> (normalized params, (alpha, c1,
# c2, c3), (p, p', p''), knots).  The formulas take float arrays.

_SMOOTH = np.empty(0)


def _monomial(params):
    """p = a + b t^alpha; c1 = c2 = alpha|b|, c3 = alpha(alpha-1)|b|."""
    params = dict(params)
    params.setdefault("a", 0.0)
    a, b, al = params["a"], params["b"], params["alpha"]
    if float(al) <= 1.0:
        raise NonAdmissible(f"Monomial exponent alpha={float(al)} must exceed 1")
    if float(b) == 0.0:
        raise NonAdmissible("Monomial scale b must be nonzero")
    fa, fb = float(al), abs(float(b))
    return params, (fa, fa * fb, fa * fb, fa * (fa - 1.0) * fb), (
        lambda t: a + b * np.power(t, al),
        lambda t: al * b * np.power(t, al - 1.0),
        lambda t: al * (al - 1.0) * b * np.power(t, al - 2.0)), _SMOOTH


def _muntz(params):
    """p = P(t0 + t) = sum_k a_k (t0 + t)^(e_k); with a_n the leading
    coefficient, c1 = alpha|a_n|/2, c2 = 3 alpha|a_n|/2 and
    c3 = alpha(alpha-1)|a_n|/2.  Without t0 the smallest validating
    shift is searched for."""
    coefficients = [(float(a), float(e)) for a, e in params["coefficients"]]
    exps = [e for _, e in coefficients]
    if any(e <= 0 for e in exps) or sorted(exps) != exps or len(set(exps)) != len(exps):
        raise NonAdmissible("Muntz exponents must be strictly increasing and positive")
    lead_coef, al = coefficients[-1]
    if lead_coef == 0.0:
        raise NonAdmissible("Muntz leading coefficient must be nonzero")
    if al <= 1.0:
        raise NonAdmissible(f"Muntz leading exponent alpha={al} must exceed 1")
    t0 = params.get("t0")
    if t0 is None:
        t0 = _find_muntz_shift(coefficients)
    t0 = float(t0)

    def series(terms):
        def f(t):
            u = t0 + t
            out = np.zeros_like(u)
            for coef, ex in terms:
                out += coef * np.power(u, ex)
            return out
        return f

    c = abs(lead_coef)
    return {"coefficients": coefficients, "t0": t0}, \
        (al, al * c / 2.0, 3.0 * al * c / 2.0, al * (al - 1.0) * c / 2.0), (
            series(coefficients),
            series([(a * e, e - 1.0) for a, e in coefficients]),
            series([(a * e * (e - 1.0), e - 2.0) for a, e in coefficients])), _SMOOTH


def _arctan_modulated(params):
    """p = (1 + (2/pi) arctan t) t^3 / 3; alpha = 3, c1 = 1, c2 = 2, c3 = 2."""
    if float(params.get("alpha", 3.0)) != 3.0:
        raise NonAdmissible("only the alpha = 3 arctan-modulated profile is supported")

    def eta(t):
        return (1.0 + (2.0 / np.pi) * np.arctan(t)) / 3.0

    def deta(t):
        return 2.0 / (3.0 * np.pi * (1.0 + t * t))

    def d2eta(t):
        return -4.0 * t / (3.0 * np.pi * (1.0 + t * t) ** 2)

    return {"alpha": 3.0}, (3.0, 1.0, 2.0, 2.0), (
        lambda t: eta(t) * t ** 3,
        lambda t: deta(t) * t ** 3 + 3.0 * eta(t) * t * t,
        lambda t: d2eta(t) * t ** 3 + 6.0 * deta(t) * t * t + 6.0 * eta(t) * t), _SMOOTH


def _affine(params):
    """p = intercept + slope t: the straight baseline, never admissible."""
    params = dict(params)
    params.setdefault("intercept", 0.0)
    intercept, slope = params["intercept"], params["slope"]
    m = abs(float(slope))
    if m == 0.0:
        raise NonAdmissible("Affine slope must be nonzero")
    return params, (1.0, m, m, m), (
        lambda t: intercept + slope * t,
        lambda t: np.full_like(t, float(slope)),
        np.zeros_like), _SMOOTH


def _user_tabulated(params):
    """(t, p, p', p'') samples, each linearly interpolated; alpha, c1, c2
    and c3 are declared (defaults 2, 1, 1, 1)."""
    clean = {key: np.asarray(params[key], dtype=float) for key in ("t", "p", "dp", "d2p")}
    t = clean["t"]
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise NonAdmissible("UserTabulated needs a strictly increasing t grid")
    constants = tuple(float(params.get(key, default)) for key, default in
                      (("alpha", 2.0), ("c1", 1.0), ("c2", 1.0), ("c3", 1.0)))
    return clean, constants, tuple(
        (lambda x, y=clean[key]: np.interp(x, t, y)) for key in ("p", "dp", "d2p")), t


CURVE_KINDS = {
    "Monomial": _monomial,
    "Muntz": _muntz,
    "ArctanModulated": _arctan_modulated,
    "Affine": _affine,
    "UserTabulated": _user_tabulated,
}


def _curve_builder(kind: str):
    try:
        return CURVE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown curve kind {kind!r}; "
                         f"choose from {tuple(CURVE_KINDS)}") from None


def _find_muntz_shift(coefficients) -> float:
    """Smallest shift t0 >= 0 whose grid validation passes on [0, 10].

    The shift that tames the lower-order terms is not given by a formula;
    we search: accept t0 = 0 if it already validates, otherwise scan a
    geometric ladder for the first passing shift and bisect down to the
    fail/pass boundary.
    """
    def passes(t0: float) -> bool:
        cand = build_curve("Muntz", {"coefficients": coefficients, "t0": float(t0)})
        return validate_H_alpha(cand, 10.0, 256).passed

    if passes(0.0):
        return 0.0
    lo = 0.0
    hi = None
    for cand in np.geomspace(1e-3, 1e3, 80):
        if passes(cand):
            hi = float(cand)
            break
        lo = float(cand)
    if hi is None:
        raise NonAdmissible("no shift t0 in [0, 1e3] makes the declared constants pass")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def build_curve(kind: str, params: dict) -> CurveSpec:
    """Construct a CurveSpec of a kind in CURVE_KINDS, with the family's
    declared constants (see each builder's docstring)."""
    params, constants, _, _ = _curve_builder(kind)(params)
    return CurveSpec(kind, params, *constants)


def curve_from_dict(doc: dict) -> CurveSpec:
    return build_curve(doc["kind"], doc["params"])


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass
class MeasureSpec:
    """Planar probability measure sampled by quadrature nodes and weights."""

    kind: str
    params: dict
    nodes: np.ndarray        # shape (M, 2), columns (t, x)
    weights: np.ndarray      # shape (M,), nonnegative, sums to 1
    claimed_delta: float     # decay exponent the construction aims for
    resolution: int

    def diameter(self) -> float:
        return float(np.max(np.hypot(self.nodes[:, 0], self.nodes[:, 1])))

    def with_resolution(self, resolution: int) -> "MeasureSpec":
        return build_measure(self.kind, self.params, resolution)


def build_measure(kind: str, params: dict, resolution: int = 1024) -> MeasureSpec:
    """Construct a MeasureSpec of the given kind.

    ArcLengthOnGraph  normalized arc length on {(t, p(t)) : 0 < t <= T}
    ArcLengthOnCircle normalized arc length on a circle or circular arc
    SmoothBump        tensor bump density (1-u^2)^k (1-v^2)^k on a box
    ProductNuDelta    nu (x) delta_0 where nu has density ~ |x|^(delta-1) e^(-2 pi |x|),
                      with the closed-form transform product_nu_hat below
    """
    if resolution < 64:
        raise ValueError("resolution must be >= 64 nodes")
    params = dict(params)
    if kind == "ArcLengthOnGraph":
        curve = params["curve"]
        if isinstance(curve, dict):
            curve = curve_from_dict(curve)
            params["curve"] = curve
        T = float(params["T"])
        if T <= 0:
            raise ValueError("T must be positive")
        t, glw = gl_grid(0.0, T, math.ceil(resolution / 10))
        dens = np.sqrt(1.0 + np.asarray(curve.dp(t), dtype=float) ** 2)
        w = glw * dens
        total = w.sum()
        if not total > 0:
            raise DegenerateCurve("arc length collapsed to zero")
        nodes = np.column_stack([t, curve.p(t)])
        return MeasureSpec(kind, params, nodes, w / total, 0.5, resolution)
    if kind == "ArcLengthOnCircle":
        r = float(params["radius"])
        if r <= 0:
            raise DegenerateCurve("circle radius must be positive")
        theta0 = float(params.get("theta0", 0.0))
        theta1 = float(params.get("theta1", 2.0 * np.pi))
        if not theta1 > theta0:
            raise DegenerateCurve("empty circular arc")
        ct, cx = params.get("center", (0.0, 0.0))
        th, glw = gl_grid(theta0, theta1, math.ceil(resolution / 10))
        nodes = np.column_stack([ct + r * np.cos(th), cx + r * np.sin(th)])
        w = glw / glw.sum()   # ds = r dtheta, uniform density in theta
        return MeasureSpec(kind, params, nodes, w, 0.5, resolution)
    if kind == "SmoothBump":
        t0, t1, x0, x1 = (float(v) for v in params["box"])
        order = int(params.get("order", 4))
        if not (t1 > t0 and x1 > x0) or order < 1:
            raise ValueError("SmoothBump needs a nonempty box and order >= 1")
        per_axis = max(8, int(round(math.sqrt(resolution))))
        u, wu = gl_grid(-1.0, 1.0, math.ceil(per_axis / 10))
        bump = (1.0 - u * u) ** order
        tt = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * u
        xx = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * u
        W = np.outer(wu * bump, wu * bump).ravel()
        nodes = np.column_stack([np.repeat(tt, xx.size), np.tile(xx, tt.size)])
        return MeasureSpec(kind, params, nodes, W / W.sum(), float(order + 1),
                           resolution)
    if kind == "ProductNuDelta":
        delta = float(params["delta"])
        if not (0.0 < delta < 1.0):
            raise ValueError("ProductNuDelta needs 0 < delta < 1")
        # One-dimensional factor nu with density |x|^(delta-1) e^(-2 pi |x|)
        # (normalized).  Substituting x = u^(1/delta) removes the |x|^(delta-1)
        # singularity, so plain Gauss panels in u converge fast.
        lam = 2.0 * np.pi
        x_max = float(params.get("x_max", 8.0))
        U = x_max ** delta
        half = max(32, resolution // 2)
        u, wu = gl_grid(0.0, U, math.ceil(half / 10))
        x = u ** (1.0 / delta)
        dens_u = (lam ** delta / (2.0 * math.gamma(delta))) * np.exp(-lam * x) / delta
        w_half = wu * dens_u
        xs = np.concatenate([-x[::-1], x])
        ws = np.concatenate([w_half[::-1], w_half])
        nodes = np.column_stack([xs, np.zeros_like(xs)])
        return MeasureSpec(kind, params, nodes, ws / ws.sum(), delta, resolution)
    raise ValueError(f"unknown measure kind {kind!r}")


def product_nu_hat(delta: float, xi) -> np.ndarray:
    """Closed-form temporal transform of the ProductNuDelta factor nu.

    nu_hat(xi) = (1 + xi^2)^(-delta/2) * cos(delta * arctan xi); it is real,
    positive for 0 < delta < 1, and comparable to (1 + |xi|)^(-delta) within
    a factor of 2.
    """
    xi = np.asarray(xi, dtype=float)
    return (1.0 + xi * xi) ** (-delta / 2.0) * np.cos(delta * np.arctan(xi))


def mu_hat_grid(measure: MeasureSpec, xis: np.ndarray) -> np.ndarray:
    """mu_hat(xi) over a (K, 2) array of frequencies xi.  Small
    chunks keep each temporary near the size of a Gram block, so that
    repeated decay fits reuse freed memory instead of mapping new pages."""
    xis = np.asarray(xis, dtype=float)
    out = np.empty(xis.shape[0], dtype=complex)
    for lo in range(0, xis.shape[0], _MU_HAT_CHUNK):
        hi = min(lo + _MU_HAT_CHUNK, xis.shape[0])
        z = -2j * np.pi * (xis[lo:hi] @ measure.nodes.T)
        out[lo:hi] = np.exp(z, out=z) @ measure.weights
    return out


@dataclass
class DecayFit:
    """Radial decay fit of sup_{|xi| = R} |mu_hat| on a log-log grid."""

    delta_hat: float
    eta_hat: float
    radii: np.ndarray
    sup_values: np.ndarray
    fit_radii: np.ndarray


def fit_fourier_decay(measure: MeasureSpec, radii) -> DecayFit:
    """Fit |mu_hat| ~ R^(-delta_hat); eta_hat = max sampled |mu_hat| at |xi| >= 1.

    Per radius the supremum over _DECAY_DIRECTIONS equispaced directions is taken;
    the least-squares slope is fitted over the grid's upper decade.  The
    angular grid carries a half-step offset so the coordinate axes are never
    sampled exactly: a product measure with a point-mass factor is flat along
    one axis, and sampling that axis would report no decay at any radius.
    Only the first half of the directions is evaluated: direction
    k + _DECAY_DIRECTIONS/2 is direction k turned by pi, and since the
    weights are real, mu_hat(-xi) = conj(mu_hat(xi)), so |mu_hat| agrees on
    the two and the sup over the half is the sup over all of them.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.min() <= 0 or radii.max() / radii.min() < 99.0:
        raise ValueError("radial grid must be positive and span at least two decades")
    ang = (np.arange(_DECAY_DIRECTIONS // 2) + 0.5) * (2.0 * np.pi / _DECAY_DIRECTIONS)
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    sups = np.empty(radii.size)
    for i, r in enumerate(radii):
        vals = mu_hat_grid(measure, r * dirs)
        sups[i] = np.max(np.abs(vals))
    if sups.min() >= 0.99:
        raise InsufficientDecay("|mu_hat| never falls below 0.99 on the grid")
    mask = radii >= radii.max() / 10.0
    slope = np.polyfit(np.log(radii[mask]), np.log(sups[mask]), 1)[0]
    eta_mask = radii >= 1.0
    eta_hat = float(sups[eta_mask].max()) if eta_mask.any() else float(sups.max())
    return DecayFit(float(-slope), eta_hat, radii, sups, radii[mask])


def measure_from_dict(doc: dict) -> MeasureSpec:
    """Build a measure from its {kind, params, resolution} document; the
    nodes and weights are always constructed, never read from it."""
    return build_measure(doc["kind"], doc["params"], int(doc.get("resolution", 1024)))
