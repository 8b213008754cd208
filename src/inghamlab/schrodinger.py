"""Fractional Schrodinger flow on the torus and curve-trace experiments.

Convention: the free equation is normalized so that mode n rotates as
exp(2 pi i |n|^s t); a real bounded potential V enters as the pointwise
phase exp(-2 pi i V(x) dt).  On the 2K+1 retained modes the flow is
c(t) = c expm(2 pi i t L), in the row convention c <- c B, with the
Hermitian generator L = diag(|n|^s) - Vhat, Vhat[n, k] = vhat(k - n).
vhat is the DFT of V on M = 4K + 4 points: since |k - n| <= 2K < M / 2,
each entry reads the coefficient of its own signed frequency, and no
product wraps around the grid into the retained band.

evolve steps this flow by Strang splitting between the exact spectral
free flow and the potential phase; its loop is the one Strang stepper.
A step of fixed length is one step matrix B, built once from one FFT of
the half phase on the same M points, and each step is c <- c B.  The
splitting is exactly unitary for real V, second order in dt, and exact
when V is constant.

A curve trace integral_0^T |u(t, p(t))|^2 dt takes no time steps.  One
eigh gives L = Q diag(lam) Q^H, so u(t, p(t)) is the exponential sum
sum_j (c Q)_j e^{2 pi i t lam_j} (E(t) conj(Q))_j with E(t)_n =
e^{2 pi i n p(t)}, integrated by 21-point Gauss-Kronrod panels.  Each
trace reports its error bound: the summed |K21 - G10| of its panels
plus the measured defect ||Q^H Q - I||_F ||c||^2 T of the eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quad
from .classify import abs_pow
from .curves import CurveSpec
from .errors import ResolutionExceeded, ToleranceNotMet
from .quad import gauss_kronrod21, kronrod_panels
from .riesz import curve_system, gram_matrix

_MAX_DT_BASE = 0.01
# Largest band K of a state; a trial run steps at band 2K.  The step
# matrix and the generator are (2K+1)^2, and eigh grows as K^3.
_MAX_BAND = 64
# Most Strang steps one evolve takes: at 5-9 us a step (K 4 to 64 on a
# 2-core x86-64 host), 5-10 s of stepping.
_MAX_STEPS = 2 ** 20
_TRACE_TOL = 1e-10         # quadrature error allowed per trace, times ||c||^2 T
_CYCLES_PER_PANEL = 2.0    # first panel width, in cycles of the fastest phase of |u|^2
_MAX_HALVINGS = 4          # panel halvings allowed to meet _TRACE_TOL
_BLOCK = 1 << 18           # entries of the (rows, nodes, modes) products at once
_BAND_LIMIT = 1e-8         # largest energy share allowed in the top tenth of the band


# ---------------------------------------------------------------------------
# states and potentials
# ---------------------------------------------------------------------------

@dataclass
class TorusState:
    """Spectral state: coefficient c_n for n = -K..K, at an absolute time."""

    coeffs: np.ndarray
    time: float
    s: float
    K: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.K + 1,):
            raise ValueError("need 2K+1 coefficients")
        self.coeffs = c

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def norm_sq(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)


def _max_active_mode(coeffs: np.ndarray) -> int:
    """Largest |n| with a nonzero coefficient in any row of coeffs."""
    nz = np.nonzero(np.abs(coeffs) > 0)[-1]
    return int(np.abs(nz - coeffs.shape[-1] // 2).max()) if nz.size else 0


def _finite(value, name: str) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _constant_potential(v0):
    v0 = _finite(v0, "v0")
    return (lambda M: np.full(M, v0)), abs(v0)


def _cosine_potential(params):
    a, k = _finite(params["amplitude"], "amplitude"), float(params["mode"])
    if not k.is_integer():
        # Only an integer mode is periodic on the torus.
        raise ValueError(f"mode must be an integer, got {params['mode']}")
    return (lambda M: a * np.cos(2.0 * np.pi * k * (np.arange(M) / M))), abs(a)


def _tabulated_potential(params):
    samples = np.asarray(params["values"], dtype=float)
    if samples.ndim != 1 or not samples.size or not np.isfinite(samples).all():
        raise ValueError(f"values must be a nonempty list of finite numbers, "
                         f"got {params['values']}")
    grid = np.concatenate([np.arange(samples.size) / samples.size, [1.0]])
    cyclic = np.concatenate([samples, samples[:1]])
    return (lambda M: np.interp(np.arange(M) / M, grid, cyclic)), \
        float(np.abs(samples).max())


# Each kind as params -> (values on the M-point grid, sup |V|).
_POTENTIAL_KINDS = {
    "Zero": lambda p: _constant_potential(0.0),
    "Constant": lambda p: _constant_potential(p["v0"]),
    "Cosine": _cosine_potential,
    "Tabulated": _tabulated_potential,
}


@dataclass(frozen=True)
class PotentialSpec:
    """Real bounded potential on the torus: Zero, Constant {v0},
    Cosine {amplitude, mode}, or Tabulated {values} (equispaced samples
    on [0, 1), linearly interpolated).  values(M) samples V on the grid
    x_j = j / M; sup_norm is sup |V|."""

    kind: str
    params: dict

    def __post_init__(self):
        build = _POTENTIAL_KINDS.get(self.kind)
        if build is None:
            raise ValueError(f"unknown potential kind {self.kind!r}; "
                             f"choose from {tuple(_POTENTIAL_KINDS)}")
        values, sup_norm = build(self.params)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sup_norm", sup_norm)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _check_data(coeffs: np.ndarray) -> None:
    """The band K of coeffs must be at most _MAX_BAND, and every row
    must be finite, nonzero and leave it dealiasing headroom."""
    K = coeffs.shape[-1] // 2
    if K > _MAX_BAND:
        raise ValueError(f"K must be at most {_MAX_BAND}, got {K}")
    rows = np.atleast_2d(coeffs)
    where = "row {} of the initial states" if rows.shape[0] > 1 else "the initial state"
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        row, j = bad[0]
        raise ValueError(f"{where.format(row)} has the non-finite coefficient "
                         f"{rows[row, j]} at mode {j - K}")
    zero = np.flatnonzero(~rows.any(-1))
    if zero.size:
        raise ValueError(f"{where.format(zero[0])} is zero; the flow needs nonzero data")
    if K < 2 * _max_active_mode(coeffs):
        raise ValueError("need K >= 2 * max active mode of the data")


def _top_band(K: int) -> np.ndarray:
    """Indices of the modes -K..K in the top tenth of the band."""
    return np.flatnonzero(np.abs(np.arange(-K, K + 1))
                          >= max(1, int(np.ceil(0.9 * K))))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b along the last axis, row by row over the leading axes.
    matmul reduces each row pair with one vector dot, so every row gets
    the bits of the same product taken alone."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _toeplitz(K: int, samples) -> np.ndarray:
    """The Toeplitz matrix A[n, k] = w[(k - n) mod M] on modes -K..K,
    where w is the DFT over M of samples(M), a function sampled on
    x_j = j / M, M = 4K + 4.  |k - n| <= 2K < M / 2, so each difference
    reads the coefficient of its own signed frequency and no two
    differences share an entry."""
    M = 4 * K + 4
    modes = np.arange(-K, K + 1)
    w = np.fft.fft(samples(M)) / M
    return w[(modes[None, :] - modes[:, None]) % M]


def _step_matrix(K: int, s: float, V: PotentialSpec, h: float) -> np.ndarray:
    """The Strang step of length h on modes -K..K as the matrix B with
    c <- c B: half potential phase, exact free flow, half potential phase.
    A half phase is the Toeplitz matrix of exp(-i pi V h): the M-point
    FFT half step on zero-padded coefficients, written as a matrix."""
    half = _toeplitz(K, lambda M: np.exp(-2j * np.pi * V.values(M) * (h / 2.0)))
    free = np.exp(2j * np.pi * abs_pow(np.arange(-K, K + 1), s) * h)
    return (half * free) @ half


@dataclass
class EvolveDiagnostics:
    steps: int
    dt: float
    norm_drift: float
    top_band_fraction: float


def evolve(u0: TorusState, V: PotentialSpec, t_final: float,
           dt: float | None) -> tuple:
    """Strang split-step evolution by t_final; returns (state, diagnostics).

    dt is capped at 0.01 / (1 + sup|V|) (None takes the cap) and rounded
    so whole steps land exactly on t_final.  u0 must be nonzero, and the
    truncation K must dominate it (K >= 2 * max active mode); energy
    reaching the top tenth of the band beyond 1e-8 of the total raises
    ResolutionExceeded naming the step.
    """
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    _check_data(u0.coeffs)
    cap = _MAX_DT_BASE / (1.0 + V.sup_norm)
    if dt is None:
        dt = cap
    elif not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    elif dt > cap * (1 + 1e-12):
        raise ValueError(f"dt must be at most 0.01/(1+|V|) = {cap:.3e}")
    if t_final == 0:
        return TorusState(u0.coeffs.copy(), u0.time, u0.s, u0.K), \
            EvolveDiagnostics(0, 0.0, 0.0, 0.0)
    steps = np.ceil(t_final / dt - 1e-12)
    if not steps <= _MAX_STEPS:
        raise ValueError(f"T = {t_final:.6g} at dt = {dt:.3e} takes {steps:.3g} "
                         f"steps, more than the step budget {_MAX_STEPS}")
    steps = max(1, int(steps))
    dt = t_final / steps
    B = _step_matrix(u0.K, u0.s, V, dt)
    top = _top_band(u0.K)
    norm0 = u0.norm_sq()
    drift = top_frac = 0.0
    c = u0.coeffs
    for step in range(1, steps + 1):
        c = c @ B
        norm = float(np.vdot(c, c).real)
        frac = float((np.abs(c[top]) ** 2).sum()) / norm
        if frac > _BAND_LIMIT:
            raise ResolutionExceeded(f"step {step}: energy fraction {frac:.2e} "
                                     f"in the top mode band; raise K")
        drift = max(drift, abs(norm - norm0))
        top_frac = max(top_frac, frac)
    return TorusState(c, u0.time + t_final, u0.s, u0.K), \
        EvolveDiagnostics(steps, dt, drift, top_frac)


# ---------------------------------------------------------------------------
# traces along curves
# ---------------------------------------------------------------------------

def _generator(K: int, s: float, V: PotentialSpec) -> np.ndarray:
    """L = diag(|n|^s) - Vhat on modes -K..K, Vhat the Toeplitz matrix of
    V on the grid of _step_matrix: the flow that the Strang steps
    approximate is c expm(2 pi i t L)."""
    return np.diag(abs_pow(np.arange(-K, K + 1), s)) - _toeplitz(K, V.values)


def _pad(coeffs: np.ndarray, K: int) -> np.ndarray:
    """Rows of modes -K..K as rows of band 2K, zero for |n| > K."""
    padded = np.zeros(coeffs.shape[:-1] + (4 * K + 1,), dtype=complex)
    padded[..., K:3 * K + 1] = coeffs
    return padded


def _panel_sums(a: np.ndarray, lam: np.ndarray, Q: np.ndarray, mass: np.ndarray,
                curve: CurveSpec, edges: np.ndarray, rows) -> tuple:
    """K21 and G10 integrals of |u(t, p(t))|^2 over each panel between
    edges, two arrays of shape (R, P), for the flows c(t) = (a
    e^{2 pi i t lam}) Q^H of the R rows of a = c Q, of masses ||c||^2.
    A node where a flow holds more than _BAND_LIMIT of its mass in the
    top tenth of the band raises ResolutionExceeded naming the earliest
    such t, and with it the stack row rows[r] unless rows is None.
    matmul takes each row's products on their own, so every row has the
    bits of its run alone."""
    x, wk, wg = gauss_kronrod21()
    K = lam.size // 2
    modes = np.arange(-K, K + 1)
    top = Q[_top_band(K)].conj().T
    k21, g10 = [], []
    block = max(1, _BLOCK // (len(a) * lam.size * x.size))  # panels
    for lo in range(0, edges.size - 1, block):
        hi = min(lo + block, edges.size - 1)
        _, half, t = kronrod_panels(edges[lo:hi], edges[lo + 1:hi + 1])
        t = t.ravel()
        flow = np.exp(2j * np.pi * np.outer(t, lam))
        waves = np.exp(2j * np.pi * np.outer(np.mod(curve.p(t), 1.0), modes))
        u = np.matmul(flow * (waves @ Q.conj()), a[:, :, None])[..., 0]
        vals = (u.real ** 2 + u.imag ** 2).reshape(len(a), -1, x.size)
        k21.append(_row_dot(vals, wk) * half)
        g10.append(_row_dot(vals[..., :wg.size], wg) * half)
        tops = np.matmul(a[:, None, :] * flow, top)
        share = (tops.real ** 2 + tops.imag ** 2).sum(-1) / mass[:, None]
        if share.max() > _BAND_LIMIT:
            r, i = np.unravel_index(
                np.argmin(np.where(share > _BAND_LIMIT, t, np.inf)), share.shape)
            where = f"t {t[i]:.6g}" + ("" if rows is None else f", row {rows[r]}")
            raise ResolutionExceeded(f"{where}: energy fraction {share[r, i]:.2e} "
                                     f"in the top mode band; raise K")
    return np.concatenate(k21, axis=-1), np.concatenate(g10, axis=-1)


def _max_slope(curve: CurveSpec, T: float) -> float:
    """max |p'| over 512 points of [0, T], for T > 0.  A p' that is not
    finite there raises ValueError, since no panel count then bounds the
    phase speed of a trace."""
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dpmax = float(np.abs(curve.dp(np.linspace(0.0, T, 512))).max())
    if not np.isfinite(dpmax):
        raise ValueError(f"a trace needs a finite p' on [0, T]; the "
                         f"{curve.kind} curve's p' is not finite on [0, {T}]")
    return dpmax


def _curve_traces(coeffs: np.ndarray, s: float, V: PotentialSpec,
                  curve: CurveSpec, T: float) -> tuple:
    """The traces along the curve of the potential-perturbed flows from
    the rows of coeffs, shape (R, 2K+1), and their error bounds: two
    lists.  One eigh of the generator gives every flow exactly; its
    |u|^2 has phase speed at most lam_max - lam_min + 2K max|p'|, and
    [0, T], with the curve's knots as edges, starts at _CYCLES_PER_PANEL
    cycles of it per panel.  A row whose summed |K21 - G10| exceeds
    _TRACE_TOL ||c||^2 T is taken again on halved panels, on its own,
    up to _MAX_HALVINGS times, else ToleranceNotMet; so is a pass of more
    than quad.PANEL_BUDGET panels, before its edges are made.  Each trace
    has the bits of its row run alone."""
    dpmax = _max_slope(curve, T)
    _check_data(coeffs)
    K = coeffs.shape[-1] // 2
    lam, Q = np.linalg.eigh(_generator(K, s, V))
    a = np.matmul(coeffs[:, None, :], Q)[:, 0, :]
    mass = _row_dot(coeffs.conj(), coeffs).real
    speed = lam[-1] - lam[0] + 2 * K * dpmax
    panels = max(1, int(np.ceil(speed * T / _CYCLES_PER_PANEL)))
    knots = curve.knots[(curve.knots > 0.0) & (curve.knots < T)]
    traces = np.empty(len(coeffs))
    errs = np.empty(len(coeffs))
    rows = np.arange(len(coeffs))
    for _ in range(_MAX_HALVINGS + 1):
        if panels + knots.size > quad.PANEL_BUDGET:
            raise ToleranceNotMet(
                f"trace at T = {T}, K = {K}: {panels + knots.size} panels "
                f"exceed the panel budget {quad.PANEL_BUDGET}")
        edges = np.union1d(np.linspace(0.0, T, panels + 1), knots)
        k21, g10 = _panel_sums(a[rows], lam, Q, mass[rows], curve, edges,
                               rows if len(coeffs) > 1 else None)
        quad_err = np.abs(k21 - g10).sum(-1)
        met = quad_err <= _TRACE_TOL * mass[rows] * T
        traces[rows[met]] = k21[met].sum(-1)
        errs[rows[met]] = quad_err[met]
        rows = rows[~met]
        if not rows.size:
            break
        panels *= 2
    else:
        raise ToleranceNotMet(
            f"trace at T = {T}, K = {K}: quadrature error {quad_err.max():.3e} "
            f"above {_TRACE_TOL:g} ||c||^2 T after {_MAX_HALVINGS} panel halvings")
    defect = float(np.linalg.norm(Q.conj().T @ Q - np.eye(lam.size)))
    return traces.tolist(), (errs + defect * mass * T).tolist()


def evolve_trace(u0: TorusState, V: PotentialSpec, curve: CurveSpec,
                 T: float) -> tuple:
    """(trace, error bound): integral_0^T |u(t, p(t))|^2 dt of the
    potential-perturbed solution from u0, exact in time (see the module
    docstring).  T must be positive and p' finite on [0, T]; u0 must be
    nonzero and leave dealiasing headroom, and energy reaching the top
    of the band raises ResolutionExceeded, as in evolve.  This is the one-row case of the stacked trace that
    trace_bound_experiment runs over all its trials at once."""
    (trace,), (err,) = _curve_traces(u0.coeffs[None], u0.s, V, curve, T)
    return trace, err


def trace_along_curve(u0: TorusState, curve: CurveSpec, T: float) -> tuple:
    """evolve_trace for V = 0, with u0 padded to band 2K: the free flow
    couples no modes, so data filling the band has headroom too."""
    return evolve_trace(TorusState(_pad(u0.coeffs, u0.K), u0.time, u0.s, 2 * u0.K),
                        PotentialSpec("Zero", {}), curve, T)


def check_trial_K(K: int) -> int:
    """K, once trace_bound_experiment can run it: at least 2 for the
    two-mode trials, with the trial band 2K at most _MAX_BAND."""
    if K < 2:
        raise ValueError(f"K must be at least 2 for the two-mode trials, "
                         f"got {K}")
    if 2 * K > _MAX_BAND:
        raise ValueError(f"K must be at most {_MAX_BAND // 2}: the trials run "
                         f"at band 2K, capped at {_MAX_BAND}; got {K}")
    return K


@dataclass
class TraceBoundResult:
    T: float
    s: float
    V_sup: float
    trial_names: list
    ratios: list
    max_ratio: float
    min_ratio: float
    trace_err: float   # the largest error bound of any ratio


def trace_bound_experiment(curve: CurveSpec, s: float, V: PotentialSpec,
                           T: float, K: int, n_random: int,
                           seed: int) -> TraceBoundResult:
    """Trace/mass ratios over a trial set of initial data: single modes,
    the two-mode short-time vectors c_0 = 1, c_j = -exp(-2 pi i j p(0)),
    the minimal Gram eigenvector (the V = 0 worst case), and random
    data.  The max ratio probes the upper trace bound, the min ratio is
    the empirical observability constant.  Every trial, padded to band
    2K, runs in one stack through _curve_traces; each ratio has the bits
    of evolve_trace run on that trial alone."""
    check_trial_K(K)
    _max_slope(curve, T)
    if n_random < 0:
        raise ValueError(f"n_random must be a nonnegative count of random "
                         f"trials, got {n_random}")
    rng = np.random.default_rng(seed)
    dim = 2 * K + 1
    trials: dict = {}
    for n in (0, min(3, K), K):
        c = np.zeros(dim, dtype=complex)
        c[K + n] = 1.0
        trials[f"mode_{n}"] = c
    p0 = float(curve.p(np.array([0.0]))[0])
    for j in (2, min(5, K)):
        c = np.zeros(dim, dtype=complex)
        c[K] = 1.0
        c[K + j] = -np.exp(-2j * np.pi * j * p0)
        trials[f"two_mode_j{j}"] = c
    G = gram_matrix(curve_system(range(-K, K + 1), s, curve, T), tol=1e-8)
    w, vecs = np.linalg.eigh(G.entries)
    trials["gram_min_vec"] = vecs[:, 0]
    for r in range(n_random):
        c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        trials[f"random_{r}"] = c
    padded = _pad(np.array(list(trials.values())), K)
    traces, errs = _curve_traces(padded, s, V, curve, T)
    masses = [float(np.vdot(c, c).real) for c in padded]
    ratios = [tr / m for tr, m in zip(traces, masses)]
    return TraceBoundResult(T, s, V.sup_norm, list(trials), ratios,
                            float(max(ratios)), float(min(ratios)),
                            max(e / m for e, m in zip(errs, masses)))
