"""Observation curves and planar measures.

Curve families carry an exponent alpha > 1 together with declared constants
c1, c2, c3 for the admissibility bundle

    c1 t^(alpha-1) <= |p'(t)| <= c2 t^(alpha-1)   (t >= 0),
    |p''(t)|      >= c3 t^(alpha-2)               (t > 0),

with p' of constant sign on the window.  Validation checks the three
inequalities on a log-spaced grid in (T*1e-6, T] with relative slack 1e-9,
so exact-equality families (e.g. p = b t^alpha with c1 = c2) pass.

Measures are planar probability measures, each the convolution of its
factors: weighted node sets (t, x, w) of nodes z_k = (t_k, x_k) and
weights w_k >= 0 summing to one, with the transform convention

    mu_hat(xi) = sum_k w_k exp(-2 pi i <xi, z_k>),      mu_hat(0) = 1.

So a measure's transform is the product of its factors' transforms, and
its Gram matrix the Hadamard product of their Grams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurve, InsufficientDecay, NonAdmissible
from .quad import gl_grid

_REL_SLACK = 1e-9  # relative slack for the grid inequalities
_MU_HAT_CHUNK = 8  # frequencies per block of mu_hat_grid
_DECAY_DIRECTIONS = 64  # equispaced directions per radius of a decay fit
_NODES_PER_CYCLE = 16.0  # measure quadrature density of the high-frequency runs


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
    failures: list


def validate_H_alpha(curve: CurveSpec, T: float, grid_size: int) -> ValidationReport:
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
    c3 = alpha(alpha-1)|a_n|/2.  Without t0 the curve is unshifted,
    t0 = 0, and must pass validation on [0, 10].  No other shift is tried:
    a lower-order term keeps p'(t0 + t) near p'(t0) as t -> 0 while
    c2 t^(alpha-1) vanishes, so the upper bound fails at the grid's first
    point unless t0 lies within about that point, 1e-5, of a root of p'."""
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
        t0 = 0.0
        unshifted = build_curve("Muntz", {"coefficients": coefficients, "t0": t0})
        if not validate_H_alpha(unshifted, 10.0, 256).passed:
            raise NonAdmissible("the unshifted Muntz curve fails validation "
                                "on [0, 10]; give its shift t0")
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
    for key in ("p", "dp", "d2p"):
        if clean[key].shape != t.shape or not np.all(np.isfinite(clean[key])):
            raise NonAdmissible(f"UserTabulated {key} needs one finite value "
                                f"per t: shape {clean[key].shape}, t {t.shape}")
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
    """Planar probability measure: the convolution of its factors, each a
    weighted node set (t, x, w) of three 1-D arrays with w >= 0 summing
    to 1.  It carries no decay exponent: fit_fourier_decay measures the
    decay of its Fourier transform.

    nodes (shape (M, 2), columns (t, x)) and weights (shape (M,)) are the
    convolution cloud, built afresh on every read: the sums of one node
    from each factor, t outer, and the products of their weights.
    mu_hat_grid and riesz.gram_matrix never build it.
    """

    kind: str
    params: dict
    resolution: int
    factors: tuple

    def _cloud(self, column: int) -> np.ndarray:
        """The cloud's t (column 0), x (1) or weight (2) over the factors."""
        combine = np.multiply if column == 2 else np.add
        return functools.reduce(lambda a, b: combine.outer(a, b).ravel(),
                                (factor[column] for factor in self.factors))

    @property
    def nodes(self) -> np.ndarray:
        return np.column_stack([self._cloud(0), self._cloud(1)])

    @property
    def weights(self) -> np.ndarray:
        return self._cloud(2)

    def diameter(self) -> float:
        return float(np.max(np.hypot(*self.nodes.T)))

    def resolution_for(self, xi_max: float) -> int:
        """The resolution that puts _NODES_PER_CYCLE nodes on each cycle of
        the frequency xi_max across the measure's diameter (at least 4,096)."""
        return max(4096, int(np.ceil(_NODES_PER_CYCLE * xi_max * self.diameter())))

    def with_resolution(self, resolution: int) -> "MeasureSpec":
        return build_measure(self.kind, self.params, resolution)


def build_measure(kind: str, params: dict, resolution: int) -> MeasureSpec:
    """Construct a MeasureSpec of the given kind.

    ArcLengthOnGraph  normalized arc length on {(t, p(t)) : 0 < t <= T}
    ArcLengthOnCircle normalized arc length on a circle or circular arc
    SmoothBump        tensor bump density (1-u^2)^k (1-v^2)^k on a box
    ProductNuDelta    nu (x) delta_0 where nu has density ~ |x|^(delta-1) e^(-2 pi |x|),
                      with the closed-form transform product_nu_hat below

    SmoothBump is two factors, (tt, 0, w) and (0, xx, w), both on the same
    Gauss-Legendre u grid; the other kinds are one factor each.
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
        return MeasureSpec(kind, params, resolution, ((t, curve.p(t), w / total),))
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
        w = glw / glw.sum()   # ds = r dtheta, uniform density in theta
        return MeasureSpec(kind, params, resolution,
                           ((ct + r * np.cos(th), cx + r * np.sin(th), w),))
    if kind == "SmoothBump":
        t0, t1, x0, x1 = (float(v) for v in params["box"])
        order = int(params.get("order", 4))
        if not (t1 > t0 and x1 > x0) or order < 1:
            raise ValueError("SmoothBump needs a nonempty box and order >= 1")
        per_axis = max(8, int(round(math.sqrt(resolution))))
        u, wu = gl_grid(-1.0, 1.0, math.ceil(per_axis / 10))
        bump = wu * (1.0 - u * u) ** order
        tt = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * u
        xx = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * u
        w, zero = bump / bump.sum(), np.zeros_like(u)
        return MeasureSpec(kind, params, resolution, ((tt, zero, w), (zero, xx, w)))
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
        return MeasureSpec(kind, params, resolution,
                           ((xs, np.zeros_like(xs), ws / ws.sum()),))
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
    """mu_hat(xi) over a (K, 2) array of frequencies xi: the product of the
    transforms of the measure's factors."""
    xis = np.asarray(xis, dtype=float)
    return functools.reduce(np.multiply, (_transform(xis, np.stack([t, x]), w)
                                          for t, x, w in measure.factors))


def _transform(xis: np.ndarray, nodes_T: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k exp(-2 pi i <xi, z_k>) for each row xi of xis, with the
    nodes z_k as the columns of nodes_T.  Small chunks keep each temporary
    near the size of a Gram block, so that repeated decay fits reuse freed
    memory instead of mapping new pages."""
    out = np.empty(xis.shape[0], dtype=complex)
    for lo in range(0, xis.shape[0], _MU_HAT_CHUNK):
        hi = min(lo + _MU_HAT_CHUNK, xis.shape[0])
        z = -2j * np.pi * (xis[lo:hi] @ nodes_T)
        out[lo:hi] = np.exp(z, out=z) @ weights
    return out


@dataclass(frozen=True)
class DecayFit:
    """Radial decay fit of sup_{|xi| = R} |mu_hat| on a log-log grid.

    The arrays are read-only copies, so that one fit can be shared."""

    delta_hat: float
    eta_hat: float
    radii: np.ndarray
    sup_values: np.ndarray
    fit_radii: np.ndarray

    def __post_init__(self):
        for name in ("radii", "sup_values", "fit_radii"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)


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
    factors are always constructed, never read from it.  The resolution
    must be an integer (a whole float counts, a boolean does not)."""
    resolution = doc.get("resolution", 1024)
    try:
        whole = not isinstance(resolution, bool) and float(resolution).is_integer()
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"measure resolution must be an integer, got {resolution!r}")
    return build_measure(doc["kind"], doc["params"], int(float(resolution)))
