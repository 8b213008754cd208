"""Fractional Schrodinger flow on the torus and curve-trace experiments.

Convention: the free equation is normalized so that mode n rotates as
exp(2 pi i |n|^s t); a real bounded potential V enters as the pointwise
phase exp(-2 pi i V(x) dt).  Time stepping is Strang splitting between
the exact spectral free flow and the potential phase.  A step of fixed
length is linear in the 2K+1 retained modes, so it is one step matrix B,
built once from one FFT of the half phase on M = 4K + 4 points, and
each step is c <- c B.  Since |k - n| <= 2K < M / 2, each entry of B
reads the DFT coefficient of its own signed frequency: B is the
zero-padded FFT step exactly, and no product wraps around the grid into
the retained band.  The splitting is exactly unitary for real V, second order in dt,
and exact when V is constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .classify import abs_pow
from .curves import CurveSpec
from .errors import ResolutionExceeded
from .riesz import curve_system, gram_matrix, quadratic_form_quadrature

_MAX_DT_BASE = 0.01
_TRACE_POINTS_PER_CYCLE = 48.0  # trace steps per cycle of the fastest mode


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

def _check_data(coeffs: np.ndarray, dt: float | None) -> None:
    """Every row of coeffs must leave the band K dealiasing headroom."""
    if coeffs.shape[-1] // 2 < 2 * _max_active_mode(coeffs):
        raise ValueError("need K >= 2 * max active mode of the data")
    if dt is not None and not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")


def _step_dt(dt: float | None, cap: float, cap_text: str) -> float:
    """The cap when dt is None, else dt, which must not exceed the cap."""
    if dt is None:
        return cap
    if dt > cap * (1 + 1e-12):
        raise ValueError(f"dt must be at most {cap_text} = {cap:.3e}")
    return dt


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b along the last axis, row by row over the leading axes.
    matmul reduces each row pair with one vector dot, so every row gets
    the bits of the same product taken alone."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _step_matrix(K: int, s: float, V: PotentialSpec, h: float) -> np.ndarray:
    """The Strang step of length h on modes -K..K as the matrix B with
    c <- c B: half potential phase, exact free flow, half potential phase.
    A half phase is the Toeplitz matrix P[n, k] = w[(k - n) mod M], where
    w is the DFT of exp(-i pi V(x_j) h) on x_j = j / M, M = 4K + 4, over M.
    It is the M-point FFT half step on zero-padded coefficients, written
    as a matrix: |k - n| <= 2K < M / 2, so each difference reads its own
    signed frequency and no two differences share an entry."""
    M = 4 * K + 4
    modes = np.arange(-K, K + 1)
    w = np.fft.fft(np.exp(-2j * np.pi * V.values(M) * (h / 2.0))) / M
    half = w[(modes[None, :] - modes[:, None]) % M]
    free = np.exp(2j * np.pi * abs_pow(modes, s) * h)
    return (half * free) @ half


def _strang_steps(coeffs: np.ndarray, s: float, V: PotentialSpec, h: float,
                  steps: int):
    """Yield the coefficients, and the share of their energy in the top
    tenth of the band, after each of `steps` Strang steps of length h
    from coeffs.  Every step multiplies by the one step matrix of
    _step_matrix, built once per call from one FFT.  A share above 1e-8
    raises ResolutionExceeded naming the step.

    coeffs is one state, shape (2K+1,), or a stack of states, shape
    (R, 2K+1), that advance together.  matmul takes each row's product
    with B on its own, so each row is checked on its own and has the
    bits of its run alone; the error of a stack of several rows also
    names the row.  Each yielded array is new."""
    K = coeffs.shape[-1] // 2
    modes = np.arange(-K, K + 1)
    B = _step_matrix(K, s, V, h)
    top = np.flatnonzero(np.abs(modes) >= max(1, int(np.ceil(0.9 * K))))
    c = coeffs
    for step in range(1, steps + 1):
        c = np.matmul(c[..., None, :], B)[..., 0, :]
        frac = ((np.abs(c.take(top, axis=-1)) ** 2).sum(-1)
                / _row_dot(c.conj(), c).real)
        if frac.max() > 1e-8:
            row = int(np.argmax(frac > 1e-8))
            where = f"step {step}" + (f", row {row}" if frac.size > 1 else "")
            raise ResolutionExceeded(
                f"{where}: energy fraction {np.ravel(frac)[row]:.2e} in the "
                f"top mode band; raise K")
        yield c, frac


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
    so whole steps land exactly on t_final.  The truncation K must dominate
    the data (K >= 2 * max active mode); energy reaching the top tenth
    of the band beyond 1e-8 of the total raises ResolutionExceeded.
    """
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    _check_data(u0.coeffs, dt)
    dt = _step_dt(dt, _MAX_DT_BASE / (1.0 + V.sup_norm), "0.01/(1+|V|)")
    if t_final == 0:
        return TorusState(u0.coeffs.copy(), u0.time, u0.s, u0.K), \
            EvolveDiagnostics(0, 0.0, 0.0, 0.0)
    steps = max(1, int(np.ceil(t_final / dt - 1e-12)))
    dt = t_final / steps
    norm0 = float(np.vdot(u0.coeffs, u0.coeffs).real)
    drift = 0.0
    top_frac = 0.0
    for c, frac in _strang_steps(u0.coeffs, u0.s, V, dt, steps):
        drift = max(drift, abs(float(np.vdot(c, c).real) - norm0))
        top_frac = max(top_frac, float(frac))
    return TorusState(c, u0.time + t_final, u0.s, u0.K), \
        EvolveDiagnostics(steps, dt, drift, top_frac)


# ---------------------------------------------------------------------------
# traces along curves
# ---------------------------------------------------------------------------

def trace_along_curve(u0: TorusState, curve: CurveSpec, T: float) -> float:
    """integral_0^T |u(t, p(t))|^2 dt for the V = 0 solution from u0: the
    Gram quadratic form of the curve system at conj(c), integrated by
    quadratic_form_quadrature."""
    return quadratic_form_quadrature(curve_system(u0.modes, u0.s, curve, T),
                                     np.conj(u0.coeffs))


def _curve_traces(coeffs: np.ndarray, s: float, V: PotentialSpec,
                  curve: CurveSpec, T: float, dt: float | None = None) -> list:
    """The trace along the curve of the potential-perturbed solution from
    each row of coeffs, shape (R, 2K+1): one pass of _strang_steps
    advances every row, and each row's samples |u(t_k, p(t_k))|^2 at
    the step times are integrated with composite Simpson.  Each trace
    has the bits of its row run alone."""
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    _check_data(coeffs, dt)
    K = coeffs.shape[-1] // 2
    tt = np.linspace(0.0, T, 512)
    dpmax = float(np.abs(np.gradient(curve.p(tt), tt)).max())
    modes = np.arange(-K, K + 1)
    omega = float((abs_pow(modes, s) + np.abs(modes) * dpmax).max()) + 1.0
    cap = min(_MAX_DT_BASE / (1.0 + V.sup_norm),
              1.0 / (_TRACE_POINTS_PER_CYCLE * omega))
    dt = _step_dt(dt, cap, f"min(0.01/(1+|V|), "
                           f"1/({_TRACE_POINTS_PER_CYCLE:g}*omega))")
    steps = max(2, int(np.ceil(T / dt)))
    times = np.linspace(0.0, T, steps + 1)
    xs = np.mod(curve.p(times), 1.0)
    phases = np.exp(2j * np.pi * np.outer(xs, modes))
    u = np.empty((coeffs.shape[0], steps + 1), dtype=complex)
    u[:, 0] = _row_dot(phases[0], coeffs)
    for k, (c, _) in enumerate(_strang_steps(coeffs, s, V, times[1] - times[0],
                                             steps), 1):
        u[:, k] = _row_dot(phases[k], c)
    # hypot and float_power round as the scalar abs(u) ** 2 does; np.abs
    # of a complex array and array ** 2 do not always.
    samples = np.float_power(np.hypot(u.real, u.imag), 2)
    return [float(simpson(row, x=times)) for row in samples]


def evolve_trace(u0: TorusState, V: PotentialSpec, curve: CurveSpec, T: float,
                 dt: float | None) -> float:
    """Trace of the potential-perturbed solution along the curve:
    steps the solver with a dt fine enough for both stability and
    quadrature, sampling |u(t_k, p(t_k))|^2 at every step time and
    integrating with composite Simpson.  The step is capped at
    min(0.01/(1+|V|), 1/(48 omega)), omega = max |n|^s + |n| max|p'| + 1;
    T must be positive, a given dt above the cap raises ValueError, and
    energy reaching the top of the band raises ResolutionExceeded, as in
    evolve.  This is the one-row case of the stacked trace that
    trace_bound_experiment runs over all its trials at once."""
    return _curve_traces(u0.coeffs[None], u0.s, V, curve, T, dt)[0]


@dataclass
class TraceBoundResult:
    T: float
    s: float
    V_sup: float
    trial_names: list
    ratios: list
    max_ratio: float
    min_ratio: float


def trace_bound_experiment(curve: CurveSpec, s: float, V: PotentialSpec,
                           T: float, K: int, n_random: int,
                           seed: int) -> TraceBoundResult:
    """Trace/mass ratios over a trial set of initial data: single modes,
    the two-mode short-time vectors c_0 = 1, c_j = -exp(-2 pi i j p(0)),
    the minimal Gram eigenvector (the V = 0 worst case), and random
    data.  The max ratio probes the upper trace bound, the min ratio is
    the empirical observability constant.  With V != 0 every trial,
    padded to band 2K, advances in one stack through one Strang pass;
    each ratio has the bits of evolve_trace run on that trial alone."""
    if K < 2:
        raise ValueError(f"K must be at least 2 for the two-mode trials, "
                         f"got {K}")
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
    names = list(trials)
    if V.sup_norm == 0.0:
        states = [TorusState(np.asarray(c, dtype=complex), 0.0, s, K)
                  for c in trials.values()]
        traces = [trace_along_curve(u0, curve, T) for u0 in states]
    else:
        # Give the evolved runs dealiasing headroom: band 2K with the
        # data confined to |n| <= K.
        padded = np.zeros((len(names), 4 * K + 1), dtype=complex)
        padded[:, K:3 * K + 1] = list(trials.values())
        states = [TorusState(c, 0.0, s, 2 * K) for c in padded]
        traces = _curve_traces(padded, s, V, curve, T)
    ratios = [tr / u0.norm_sq() for tr, u0 in zip(traces, states)]
    return TraceBoundResult(T, s, V.sup_norm, names, ratios,
                            float(max(ratios)), float(min(ratios)))
