"""Fractional Schrodinger flow on the torus and curve-trace experiments.

Convention: the free equation is normalized so that mode n rotates as
exp(2 pi i |n|^s t); a real bounded potential V enters as the pointwise
phase exp(-2 pi i V(x) dt).  Time stepping is Strang splitting between
the exact spectral free flow and the potential phase, with the
potential applied on a zero-padded physical grid (M = 4K + 4 points for
spectral truncation K) so products do not alias back into the retained
band.  The splitting is exactly unitary for real V, second order in dt,
and exact when V is constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson

from . import DEFAULT_SEED
from .classify import abs_pow
from .curves import CurveSpec
from .errors import ResolutionExceeded
from .riesz import curve_system, gram_matrix, quadratic_form_quadrature

_MAX_DT_BASE = 0.01
_PICARD_GRID = 2048            # tau intervals of the Picard quadrature
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

    def max_active_mode(self) -> int:
        nz = np.nonzero(np.abs(self.coeffs) > 0)[0]
        return int(np.abs(nz - self.K).max()) if nz.size else 0


def _constant_potential(v0):
    v0 = float(v0)
    return (lambda M: np.full(M, v0)), abs(v0)


def _cosine_potential(params):
    a, k = float(params["amplitude"]), int(params["mode"])
    return (lambda M: a * np.cos(2.0 * np.pi * k * (np.arange(M) / M))), abs(a)


def _tabulated_potential(params):
    samples = np.asarray(params["values"], dtype=float)
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

def _pad_spectrum(coeffs: np.ndarray, K: int, M: int) -> np.ndarray:
    f = np.zeros(coeffs.shape[:-1] + (M,), dtype=complex)
    f[..., : K + 1] = coeffs[..., K:]
    f[..., M - K:] = coeffs[..., :K]
    return f


def _truncate_spectrum(f: np.ndarray, K: int) -> np.ndarray:
    M = f.shape[-1]
    out = np.empty(f.shape[:-1] + (2 * K + 1,), dtype=complex)
    out[..., K:] = f[..., : K + 1]
    out[..., :K] = f[..., M - K:]
    return out


def _check_data(u0: TorusState, dt: float | None) -> None:
    if u0.K < 2 * u0.max_active_mode():
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


def _strang_steps(u0: TorusState, V: PotentialSpec, h: float, steps: int):
    """Yield the coefficients, and the share of their energy in the top
    tenth of the band, after each of `steps` Strang steps of length h
    from u0: half potential phase on the zero-padded grid of M = 4K + 4
    points, exact free flow, half potential phase.  A share above 1e-8
    raises ResolutionExceeded.

    One zero-padded buffer serves every step: its middle M - 2K - 1
    entries stay zero, and the retained band after the free flow is
    written straight into it.  Each yielded array is new."""
    K = u0.K
    M = 4 * K + 4
    half = np.exp(-2j * np.pi * V.values(M) * (h / 2.0))
    free = np.exp(2j * np.pi * abs_pow(u0.modes, u0.s) * h)
    top = np.abs(u0.modes) >= max(1, int(np.ceil(0.9 * K)))
    f = _pad_spectrum(u0.coeffs, K, M)
    low, high = f[: K + 1], f[M - K:]      # views of the retained band

    def potential_half_step(low_out, high_out):
        vals = np.fft.ifft(f)
        vals *= M
        vals *= half
        g = np.fft.fft(vals)
        np.divide(g[: K + 1], M, out=low_out)
        np.divide(g[M - K:], M, out=high_out)

    for _ in range(steps):
        potential_half_step(low, high)
        low *= free[K:]
        high *= free[:K]
        c = np.empty(2 * K + 1, dtype=complex)
        potential_half_step(c[K:], c[:K])
        low[:] = c[K:]
        high[:] = c[:K]
        frac = float((np.abs(c[top]) ** 2).sum()) / float(np.vdot(c, c).real)
        if frac > 1e-8:
            raise ResolutionExceeded(
                f"energy fraction {frac:.2e} in the top mode band; raise K")
        yield c, frac


@dataclass
class EvolveDiagnostics:
    steps: int
    dt: float
    norm_drift: float
    top_band_fraction: float


def free_evolution(u0: TorusState, t: float) -> TorusState:
    """Exact closed-form flow for V = 0: c_n -> c_n exp(2 pi i |n|^s t)."""
    phase = np.exp(2j * np.pi * abs_pow(u0.modes, u0.s) * t)
    return TorusState(u0.coeffs * phase, u0.time + t, u0.s, u0.K)


def evolve(u0: TorusState, V: PotentialSpec, t_final: float,
           dt: float | None = None) -> tuple:
    """Strang split-step evolution by t_final; returns (state, diagnostics).

    dt is capped at 0.01 / (1 + sup|V|) and rounded so an integer number
    of steps lands exactly on t_final.  The truncation K must dominate
    the data (K >= 2 * max active mode); energy reaching the top tenth
    of the band beyond 1e-8 of the total raises ResolutionExceeded.
    """
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    _check_data(u0, dt)
    dt = _step_dt(dt, _MAX_DT_BASE / (1.0 + V.sup_norm), "0.01/(1+|V|)")
    if t_final == 0:
        return TorusState(u0.coeffs.copy(), u0.time, u0.s, u0.K), \
            EvolveDiagnostics(0, 0.0, 0.0, 0.0)
    steps = max(1, int(np.ceil(t_final / dt - 1e-12)))
    dt = t_final / steps
    norm0 = float(np.vdot(u0.coeffs, u0.coeffs).real)
    drift = 0.0
    top_frac = 0.0
    for c, frac in _strang_steps(u0, V, dt, steps):
        drift = max(drift, abs(float(np.vdot(c, c).real) - norm0))
        top_frac = max(top_frac, frac)
    return TorusState(c, u0.time + t_final, u0.s, u0.K), \
        EvolveDiagnostics(steps, dt, drift, top_frac)


def picard_iterate(u0: TorusState, V: PotentialSpec, t_final: float,
                   n_iter: int = 3) -> TorusState:
    """Duhamel fixed-point cross-check for small sup|V| * t:
    c(t) = e^(2 pi i |n|^s t) (c(0) - 2 pi i int_0^t e^(-2 pi i |n|^s tau)
    (V u(tau))_n d tau), iterated n_iter times from the free flow.
    Quadrature is cumulative trapezoid on a uniform tau grid."""
    if V.sup_norm * t_final > 0.1 + 1e-12:
        raise ValueError("Picard cross-check is restricted to |V| T <= 0.1")
    K = u0.K
    M = 4 * K + 4
    vgrid = V.values(M)
    taus = np.linspace(0.0, t_final, _PICARD_GRID + 1)
    temp = abs_pow(u0.modes, u0.s)
    rot = np.exp(2j * np.pi * np.outer(taus, temp))       # free phases
    U = rot * u0.coeffs[None, :]                           # free flow iterate
    for _ in range(n_iter):
        vals = np.fft.ifft(_pad_spectrum(U, K, M), axis=1) * M
        vu = np.fft.fft(vals * vgrid[None, :], axis=1) / M
        integrand = np.conj(rot) * _truncate_spectrum(vu, K)
        acc = cumulative_trapezoid(integrand, taus, axis=0, initial=0.0)
        U = rot * (u0.coeffs[None, :] - 2j * np.pi * acc)
    return TorusState(U[-1], u0.time + t_final, u0.s, u0.K)


# ---------------------------------------------------------------------------
# traces along curves
# ---------------------------------------------------------------------------

def trace_along_curve(u0: TorusState, curve: CurveSpec, T: float) -> float:
    """integral_0^T |u(t, p(t))|^2 dt for the V = 0 solution from u0: the
    Gram quadratic form of the curve system at conj(c), integrated by
    quadratic_form_quadrature."""
    return quadratic_form_quadrature(curve_system(u0.modes, u0.s, curve, T),
                                     np.conj(u0.coeffs))


def evolve_trace(u0: TorusState, V: PotentialSpec, curve: CurveSpec, T: float,
                 dt: float | None = None) -> float:
    """Trace of the potential-perturbed solution along the curve:
    steps the solver with a dt fine enough for both stability and
    quadrature, sampling |u(t_k, p(t_k))|^2 at every step time and
    integrating with composite Simpson.  The step is capped at
    min(0.01/(1+|V|), 1/(48 omega)), omega = max |n|^s + |n| max|p'| + 1;
    a given dt above the cap raises ValueError, and energy reaching the
    top of the band raises ResolutionExceeded, as in evolve."""
    _check_data(u0, dt)
    tt = np.linspace(0.0, T, 512)
    dpmax = float(np.abs(np.gradient(curve.p(tt), tt)).max())
    modes = u0.modes
    omega = float((abs_pow(modes, u0.s) + np.abs(modes) * dpmax).max()) + 1.0
    cap = min(_MAX_DT_BASE / (1.0 + V.sup_norm),
              1.0 / (_TRACE_POINTS_PER_CYCLE * omega))
    dt = _step_dt(dt, cap, f"min(0.01/(1+|V|), "
                           f"1/({_TRACE_POINTS_PER_CYCLE:g}*omega))")
    steps = max(2, int(np.ceil(T / dt)))
    times = np.linspace(0.0, T, steps + 1)
    xs = np.mod(curve.p(times), 1.0)
    phases = np.exp(2j * np.pi * np.outer(xs, modes))
    samples = np.empty(steps + 1)
    samples[0] = abs(phases[0] @ u0.coeffs) ** 2
    for k, (c, _) in enumerate(_strang_steps(u0, V, times[1] - times[0],
                                             steps), 1):
        samples[k] = abs(phases[k] @ c) ** 2
    return float(simpson(samples, x=times))


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
                           T: float, K: int = 8, n_random: int = 8,
                           seed: int = DEFAULT_SEED) -> TraceBoundResult:
    """Trace/mass ratios over a trial set of initial data: single modes,
    the two-mode short-time vectors c_0 = 1, c_j = -exp(-2 pi i j p(0)),
    the minimal Gram eigenvector (the V = 0 worst case), and random
    data.  The max ratio probes the upper trace bound, the min ratio is
    the empirical observability constant."""
    if K < 2:
        raise ValueError(f"K must be at least 2 for the two-mode trials, "
                         f"got {K}")
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
    names, ratios = [], []
    for name, c in trials.items():
        if V.sup_norm == 0.0:
            u0 = TorusState(np.asarray(c, dtype=complex), 0.0, s, K)
        else:
            # Give the evolved runs dealiasing headroom: band 2K with the
            # data confined to |n| <= K.
            padded = np.zeros(4 * K + 1, dtype=complex)
            padded[K:3 * K + 1] = c
            u0 = TorusState(padded, 0.0, s, 2 * K)
        mass = u0.norm_sq()
        if V.sup_norm == 0.0:
            tr = trace_along_curve(u0, curve, T)
        else:
            tr = evolve_trace(u0, V, curve, T)
        names.append(name)
        ratios.append(tr / mass)
    return TraceBoundResult(T, s, V.sup_norm, names, ratios,
                            float(max(ratios)), float(min(ratios)))
