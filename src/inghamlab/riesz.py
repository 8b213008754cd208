"""Gram matrices of curve- and measure-restricted exponential systems,
their extreme eigenvalues (empirical Riesz bounds), and the quantitative
experiments built on them: observation-time sweeps, the short-time
failure family, high-frequency two-sided bounds over measures, the
sharpness sum of the product measure, and the merged low+high bound.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zherk

from . import DEFAULT_SEED, quad
from .classify import abs_pow
from .curves import (CurveSpec, MeasureSpec, build_measure, fit_fourier_decay,
                     product_nu_hat)
from .errors import DecayTooWeak, NotHermitian, ToleranceNotMet
from .oscint import phase_integral
from .quad import gauss_kronrod21, gl_grid, kronrod_panels

_HERMITIAN_TOL = 1e-12
_SANDWICH_SLACK = 1e-8
_RANDOM_VECTORS = 64       # unit vectors of the Riesz sandwich check
_EMPIRICAL_T_FRAC = 0.1    # share of the last lambda_min / T that marks the empirical T
_BLOCK = 4096              # nodes per block of the E^H W E product
_MAX_HALVINGS = 4          # panel halvings allowed to meet a curve Gram's tol
_FIT_CACHE_SIZE = 256      # decay fits a process keeps, least recently used dropped
# sharpness_sum's N x N tables peak at about 32 N^2 bytes (tracemalloc: 32 MiB
# at N = 1024), so its largest N is capped at 512 MiB of tables.
_MAX_SHARPNESS_N = 4096


# ---------------------------------------------------------------------------
# systems and Gram matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpSystem:
    """A finite family of exponentials e_n with temporal frequency |n|^s
    and spatial frequency n, restricted either to a curve (t, p(t)) over
    [0, T] or to a planar measure."""

    indices: tuple
    s: float
    curve: CurveSpec | None = None
    T: float | None = None
    weight: str = "lebesgue"            # or "arclength"
    measure: MeasureSpec | None = None

    def __post_init__(self):
        idx = tuple(int(n) for n in self.indices)
        if not idx:
            raise ValueError("the index set is empty")
        if list(idx) != sorted(set(idx)):
            raise ValueError("indices must be distinct and sorted")
        object.__setattr__(self, "indices", idx)
        has_curve = self.curve is not None
        if has_curve == (self.measure is not None):
            raise ValueError("provide exactly one of curve or measure")
        if has_curve:
            if self.T is None or not self.T > 0:
                raise ValueError("curve systems need T > 0")
            if self.weight not in ("lebesgue", "arclength"):
                raise ValueError("weight must be lebesgue or arclength")


def curve_system(indices, s: float, curve: CurveSpec, T: float,
                 weight: str = "lebesgue") -> ExpSystem:
    return ExpSystem(tuple(indices), s, curve=curve, T=T, weight=weight)


def measure_system(indices, s: float, measure: MeasureSpec) -> ExpSystem:
    return ExpSystem(tuple(indices), s, measure=measure)


@dataclass
class GramMatrix:
    entries: np.ndarray
    indices: tuple
    T_or_mass: float
    tol: float | None      # None for a measure, whose Gram applies no tol

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _phase_vectors(system: ExpSystem) -> np.ndarray:
    """Rows phi(n) = (|n|^s, n), one per index."""
    idx = np.asarray(system.indices)
    return np.stack([abs_pow(idx, system.s), idx.astype(float)], axis=1)


def _gram_product(t: np.ndarray, x: np.ndarray, wts: np.ndarray, phi: np.ndarray,
                  panels=None):
    """G = E^H W E with E[k, n] = exp(-2 pi i <z_k, phi(n)>) over nodes
    z_k = (t_k, x_k) with weights w_k >= 0, summed over blocks of whole
    panels.

    Without `panels` every node is its own panel: t, x and wts are the
    node coordinates and weights, as for a measure's cloud, and G is
    returned.  With panels = (halves, offsets, gauss), t holds the P
    panel midpoints, panel p has the R nodes at times t_p + halves_p
    offsets_j, and x and wts have shape (P, R); then (G, G_sub) is
    returned, where G_sub is the Gram over the first k offsets of every
    panel, k the size of gauss, with the weight of offset j scaled by
    gauss_j^2, taken from the same exponentials.

    Each entry factors as E[k, n] = a_k(tau_n) b_k(lambda_n), with
    a_k(tau) = exp(-2 pi i t_k tau) and b_k(lambda) = exp(-2 pi i x_k lambda).
    a takes one exp per distinct tau, since the indices +-n share |n|^s,
    and per node, or for panels per (tau, panel) and per (tau, distinct
    half-width, offset), as exp(-2 pi i tau t_p) exp(-2 pi i tau halves_p
    offsets_j): bisected panels repeat their widths.  b is multiplied up
    along the sorted lambdas from one direct exp of the smallest, by
    z_k^gap with one exp per distinct gap, for any real lambdas: the
    rounding of the gaps telescopes to about eps (lambda_max - lambda_min),
    and equally spaced lambdas take two exps per node.  The block of
    sqrt(W) E is built as a (J, block) array, offset by offset, whose
    transpose BLAS zherk reads without a copy and adds to the upper
    triangle of G."""
    if wts.min() < 0.0:
        k = int(np.argmin(wts))
        raise ValueError(f"weights must be nonnegative; weight {k} is {wts.flat[k]:.3e}")
    # The bookkeeping runs on Python lists: J is at most a few hundred,
    # and numpy's per-call cost would dominate the small curve Grams.
    lams = phi[:, 1].tolist()
    taus, tau_of = _distinct(phi[:, 0].tolist())
    order = sorted(range(len(lams)), key=lams.__getitem__)
    gaps, gap_of = _distinct([lams[j] - lams[i] for i, j in zip(order, order[1:])])
    # z[0] is the direct exp of the smallest lambda, z[1 + g] the power
    # for the g-th distinct gap.
    freqs = np.append(lams[order[0]], gaps)
    steps = tuple(zip(order, order[1:], (1 + g for g in gap_of)))
    P = t.shape[0]
    x, wts = x.reshape(P, -1), wts.reshape(P, -1)
    if panels is not None:
        halves, offsets, gauss = panels
        widths, width_of = np.unique(halves, return_inverse=True)
        # shift[u, j, h] = exp(-2 pi i tau_u widths_h offsets_j)
        shift = np.multiply.outer(-2j * np.pi * taus, np.outer(offsets, widths))
        np.exp(shift, out=shift)
    J, R = len(lams), x.shape[1]
    G = np.zeros((J, J), dtype=complex, order="F")
    G_sub = None if panels is None else np.zeros_like(G)
    block = max(1, _BLOCK // R)
    for lo in range(0, P, block):
        # columns offset by offset: column j * (panels in the block) + p
        xb = x[lo:lo + block].T.ravel()
        root_w = np.sqrt(wts[lo:lo + block].T.ravel())
        z = np.outer(-2j * np.pi * freqs, xb)
        np.exp(z, out=z)
        E = np.empty((J, xb.size), dtype=complex)
        np.multiply(root_w, z[0], out=E[order[0]])
        for prev, nxt, g in steps:
            np.multiply(E[prev], z[g], out=E[nxt])
        a = np.outer(-2j * np.pi * taus, t[lo:lo + block])
        np.exp(a, out=a)
        if panels is not None:
            # np.take gathers along the last axis far faster than indexing
            at_mid = a
            a = np.take(shift, width_of[lo:lo + block], axis=2)
            a *= at_mid[:, None, :]
            a = a.reshape(len(taus), -1)
        for row, u in zip(E, tau_of):
            row *= a[u]
        G = zherk(1.0, E.T, beta=1.0, c=G, trans=2, overwrite_c=1)
        if panels is not None:
            E_sub = (E.reshape(J, R, -1)[:, :gauss.size] * gauss[:, None]).reshape(J, -1)
            G_sub = zherk(1.0, E_sub.T, beta=1.0, c=G_sub, trans=2, overwrite_c=1)
    if panels is None:
        return _hermitian(G)
    return _hermitian(G), _hermitian(G_sub)


def _hermitian(G: np.ndarray) -> np.ndarray:
    """The Hermitian matrix whose upper triangle is G's (the lower one
    zero): G + G^H with the diagonal taken once, exactly Hermitian."""
    H = G + G.conj().T
    np.fill_diagonal(H, G.diagonal())
    return H


def _distinct(values: list) -> tuple:
    """The sorted distinct values of a list, as an array, and the position
    of each value among them."""
    distinct = sorted(set(values))
    where = {v: i for i, v in enumerate(distinct)}
    return np.array(distinct), [where[v] for v in values]


def _curve_gram(system: ExpSystem, phi: np.ndarray, tol: float) -> np.ndarray:
    curve, T = system.curve, system.T
    w = None if system.weight == "lebesgue" else \
        (lambda t: np.sqrt(1.0 + curve.dp(t) ** 2))
    bound = tol / phi.shape[0]
    # Panels of the envelope pair, whose phase speed |d p'(t) + e| bounds
    # that of every pair of a monotone curve: d takes the sign of p'.
    d, e = float(np.ptp(phi[:, 1])), float(np.ptp(phi[:, 0]))
    if float(curve.p(T)) < float(curve.p(0.0)):
        d = -d
    edges = phase_integral(d, e, curve, T, tol=bound, weight=w).edges
    r, wk, wg = gauss_kronrod21()
    gauss = np.sqrt(wg / wk[:wg.size])   # G10 weights over K21 weights

    for halvings in range(_MAX_HALVINGS + 1):
        if edges.size - 1 > quad.PANEL_BUDGET:
            raise ToleranceNotMet(
                f"curve Gram at T = {T}: {edges.size - 1} panels exceed the "
                f"panel budget {quad.PANEL_BUDGET}")
        mid, half, t = kronrod_panels(edges[:-1], edges[1:])
        t = t.ravel()
        gw = (half[:, None] * wk).ravel()
        gw = gw if w is None else gw * w(t)
        G, G10 = _gram_product(mid, curve.p(t), gw, phi, panels=(half, r, gauss))
        err = float(np.abs(G - G10).max())
        if err <= bound:
            break
        if halvings == _MAX_HALVINGS:
            raise ToleranceNotMet(
                f"curve Gram: max |K21 - G10| = {err:.3e} exceeds tol/J = "
                f"{bound:.3e} on {edges.size - 1} panels")
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    if w is None:
        np.fill_diagonal(G, T)
    return G


def gram_matrix(system: ExpSystem, tol: float = 1e-9) -> GramMatrix:
    """Gram matrix G[n, m] = <e_n, e_m> over the system's domain, formed
    as the PSD product E* W E over weighted nodes (positivity is
    structural).  A measure gives the Hadamard product of the Grams of
    its factors, each the product over the factor's own nodes, which is
    PSD by the Schur product theorem; its mass is the product of the
    factors' weight sums.  A curve gives the product over the nodes
    (t, p(t)) on the panels of one adaptive integral of the fastest pair:
    the 21-point Kronrod product, accepted once it agrees with the
    10-point Gauss product on the same nodes to tol / dim; each miss
    halves every panel, and a pass of more than quad.PANEL_BUDGET panels
    raises ToleranceNotMet before it is built.  A measure Gram applies no
    tol and records None."""
    phi = _phase_vectors(system)
    if system.measure is not None:
        factors = system.measure.factors
        G = functools.reduce(np.multiply, [_gram_product(t, x, w, phi)
                                           for t, x, w in factors])
        mass = float(np.prod([w.sum() for _, _, w in factors]))
        return GramMatrix(G, system.indices, mass, None)
    G = _curve_gram(system, phi, tol)
    mass = system.T if system.weight == "lebesgue" else float(G[0, 0].real)
    return GramMatrix(G, system.indices, mass, tol)


def gram_to_dict(G: GramMatrix) -> dict:
    return {
        "dim": G.dim,
        "indices": list(G.indices),
        "entries_re": G.entries.real.tolist(),
        "entries_im": G.entries.imag.tolist(),
        "T_or_mass": G.T_or_mass,
        "tol": G.tol,
    }


# ---------------------------------------------------------------------------
# Riesz bounds
# ---------------------------------------------------------------------------

@dataclass
class RieszReport:
    lambda_min: float
    lambda_max: float
    normalized: tuple
    random_vector_checks: int


def _charpoly_eigs(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix of dimension <= 3 via the
    characteristic polynomial, as an independent cross-check."""
    dim = H.shape[0]
    tr = float(np.trace(H).real)
    if dim == 1:
        return np.array([tr])
    det = float(np.linalg.det(H).real)
    if dim == 2:
        coeffs = [1.0, -tr, det]
    else:
        m2 = 0.5 * (tr ** 2 - float(np.trace(H @ H).real))
        coeffs = [1.0, -tr, m2, -det]
    return np.sort(np.roots(coeffs).real)


def riesz_bounds(G: GramMatrix, seed: int = DEFAULT_SEED) -> RieszReport:
    """Extreme eigenvalues of the Gram form, triple-checked: Hermitian
    eigensolver, characteristic polynomial for dim <= 3, and a
    random-unit-vector sandwich lambda_min - 1e-8 <= c*Gc <= lambda_max + 1e-8.
    """
    H = G.entries
    scale = max(1.0, float(np.abs(H).max()))
    if float(np.abs(H - H.conj().T).max()) > _HERMITIAN_TOL * scale:
        raise NotHermitian("Gram matrix fails the Hermitian symmetry check")
    eigs = np.linalg.eigvalsh(H)
    lmin, lmax = float(eigs[0]), float(eigs[-1])
    if H.shape[0] <= 3:
        ref = _charpoly_eigs(H)
        if not np.allclose(np.sort(eigs), ref,
                           atol=1e-8 * max(1.0, abs(lmax)), rtol=1e-8):
            raise ToleranceNotMet(
                "eigensolver disagrees with characteristic polynomial roots")
    # Row k of C is the k-th unit vector, drawn as its real part and then
    # its imaginary part, and q[k] = c_k^H H c_k.
    z = np.random.default_rng(seed).standard_normal((_RANDOM_VECTORS, 2, H.shape[0]))
    C = z[:, 0] + 1j * z[:, 1]
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    q = np.einsum("kj,kj->k", C.conj() @ H, C).real
    passed = int(np.count_nonzero((lmin - _SANDWICH_SLACK <= q)
                                  & (q <= lmax + _SANDWICH_SLACK)))
    diag = G.T_or_mass
    return RieszReport(lmin, lmax, (lmin / diag, lmax / diag), passed)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    s: float
    N: int
    T_grid: list
    lambda_min: list
    lambda_max: list
    monotone: bool
    empirical_T: float


def ingham_sweep(curve: CurveSpec, s: float, N: int, T_grid,
                 tol: float) -> SweepResult:
    """lambda_min / lambda_max of the full system -N..N over a grid of
    observation times.  lambda_min must be nondecreasing in T (the Gram
    increment over [T, T'] is itself PSD); the empirical observation
    time is the smallest grid T whose normalized lambda_min/T reaches
    a tenth of its value at the largest T."""
    if N > 60:
        raise ValueError("N above desk scale (60)")
    T_grid = sorted(float(T) for T in T_grid)
    if len(set(T_grid)) < 2:
        raise ValueError(f"T_grid needs two distinct times to compare, got {T_grid}")
    idx = range(-N, N + 1)
    lmins, lmaxs = [], []
    for T in T_grid:
        rep = riesz_bounds(gram_matrix(curve_system(idx, s, curve, T), tol))
        lmins.append(rep.lambda_min)
        lmaxs.append(rep.lambda_max)
    slack = 1e-7 * max(1.0, max(lmaxs))
    monotone = bool(np.all(np.diff(lmins) >= -slack))
    ratios = np.asarray(lmins) / np.asarray(T_grid)
    target = _EMPIRICAL_T_FRAC * ratios[-1]
    hits = np.nonzero(ratios >= target)[0]
    empirical_T = float(T_grid[hits[0]]) if hits.size else float("inf")
    return SweepResult(s, N, T_grid, lmins, lmaxs, monotone, empirical_T)


@dataclass
class MinimalTimeResult:
    s: float
    eps: float
    j_grid: list
    T_values: list
    ratios: list
    c_norm_sq: float
    decreasing: bool


def minimal_time_counterexample(curve: CurveSpec, s: float,
                                j_grid) -> MinimalTimeResult:
    """Short-time failure family: two-mode data c_0 = 1,
    c_j = -exp(-2 pi i j p(0)) observed over the shrinking windows
    T_j = j^(-(s+eps)), eps = (alpha s - 1)/(2 s).  The normalized
    energy ratio_j = integral_0^1 |1 - exp(2 pi i (j (p(T_j tau) - p(0))
    + j^s T_j tau))|^2 d tau collapses to 0, so no single T-independent
    lower Riesz constant can survive T -> 0."""
    alpha = curve.alpha
    eps = (alpha * s - 1.0) / (2.0 * s)
    j_grid = sorted(int(j) for j in j_grid)
    if len(set(j_grid)) < 2:
        raise ValueError(f"j_grid needs two distinct modes to compare, got {j_grid}")
    if j_grid[0] < 1:
        raise ValueError(f"j_grid modes must be >= 1, got {j_grid}")
    p0 = float(curve.p(np.array([0.0]))[0])
    tau, wts = gl_grid(0.0, 1.0, 256)
    Ts, ratios = [], []
    for j in j_grid:
        Tj = float(j) ** (-(s + eps))
        ph = 2.0 * np.pi * (j * (curve.p(Tj * tau) - p0) + float(j) ** s * Tj * tau)
        vals = np.abs(1.0 - np.exp(1j * ph)) ** 2
        ratios.append(float((vals * wts).sum()))
        Ts.append(Tj)
    decreasing = bool(np.all(np.diff(ratios) < 0))
    return MinimalTimeResult(s, eps, j_grid, Ts, ratios, 2.0, decreasing)


def _window_indices(N: int, window: int):
    if N < 1:
        raise ValueError(f"window base frequency N must be >= 1, got {N}")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    return tuple(range(-(N + window), -N + 1)) + tuple(range(N, N + window + 1))


def _decay_fit(measure: MeasureSpec, radii=None):
    """Fourier decay fit of the measure on radii (default 36 radii over
    [1, 200]), with a quadrature that resolves the largest radius, fitted
    once per measure document and radii in a process: the fit is a pure
    function of the kind, the parameters, the resolution and the exact
    radii, so a repeat returns the same DecayFit.  A fit that raises
    (InsufficientDecay) is not kept and raises again."""
    radii = np.asarray(np.geomspace(1.0, 200.0, 36) if radii is None else radii,
                       dtype=float)
    params = json.dumps(measure.params, sort_keys=True, default=_param_document)
    return _fit_document(measure.kind, params,
                         measure.resolution_for(float(np.max(radii))), radii.tobytes())


def _param_document(value):
    """The JSON form of a measure parameter that json cannot write: a
    curve as its {kind, params} document, numpy values as lists or
    numbers."""
    if isinstance(value, CurveSpec):
        return {"kind": value.kind, "params": value.params}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"measure parameter of type {type(value).__name__} has no "
                    f"JSON document")


@functools.lru_cache(maxsize=_FIT_CACHE_SIZE)
def _fit_document(kind: str, params: str, resolution: int, radii: bytes):
    return fit_fourier_decay(build_measure(kind, json.loads(params), resolution),
                             np.frombuffer(radii))


def _window_bounds(measure: MeasureSpec, s: float, indices) -> RieszReport:
    """Riesz bounds of the measure system on indices, with the measure's
    quadrature rebuilt to resolve the largest frequency difference."""
    phi = _phase_vectors(measure_system(indices, s, measure))
    span = phi.max(axis=0) - phi.min(axis=0)
    meas = measure.with_resolution(measure.resolution_for(float(np.hypot(*span))))
    return riesz_bounds(gram_matrix(measure_system(indices, s, meas)))


@dataclass
class HighFreqResult:
    s: float
    window: int
    N_grid: list
    lambda_min: list
    lambda_max: list
    N_star: int | None
    delta_hat: float
    eta_hat: float


def highfreq_bounds(measure: MeasureSpec, s: float, N_grid, window: int = 30,
                    fit_radii=None) -> HighFreqResult:
    """Two-sided Riesz bounds of the tail system {N <= |n| <= N+window}
    over a planar measure, expected to land in [1/2, 3/2] once N clears
    a measure-dependent threshold; N_star is the first grid N that does
    (with the 10% slack [0.45, 1.55] used by the acceptance run).

    The measure's quadrature is rebuilt for every N so that the largest
    frequency difference stays resolved.  The Fourier decay exponent is
    fitted once per measure document and radii in a process, and every
    call emits a DecayTooWeak warning (not an error) when
    s * delta_hat <= 1, where the theorem gives no guarantee.
    """
    fit = _decay_fit(measure, fit_radii)
    if s * fit.delta_hat <= 1.0:
        warnings.warn(
            f"fitted decay delta_hat={fit.delta_hat:.3f} gives "
            f"s*delta_hat={s * fit.delta_hat:.3f} <= 1; bounds may not close",
            DecayTooWeak)
    N_grid = sorted(int(N) for N in N_grid)
    lmins, lmaxs, N_star = [], [], None
    for N in N_grid:
        rep = _window_bounds(measure, s, _window_indices(N, window))
        lmins.append(rep.lambda_min)
        lmaxs.append(rep.lambda_max)
        if N_star is None and rep.lambda_min >= 0.45 and rep.lambda_max <= 1.55:
            N_star = N
    return HighFreqResult(s, window, N_grid, lmins, lmaxs, N_star,
                          fit.delta_hat, fit.eta_hat)


@dataclass
class DispersionSweep:
    N: int
    window: int
    s_grid: list
    lambda_min: list
    lambda_max: list
    eta_hat: float
    lo_target: float
    hi_target: float


def highfreq_dispersion_sweep(measure: MeasureSpec, s_grid, N: int = 2,
                              window: int = 10) -> DispersionSweep:
    """Fixed small N, dispersion s swept upward: the two-sided bounds
    should approach the window [(1 - eta)/2, (3 + eta)/2] where eta is
    the measure's near-frequency sup, fitted once per measure document and
    radii in a process.  Reported, not asserted."""
    fit = _decay_fit(measure)
    idx = _window_indices(N, window)
    lmins, lmaxs = [], []
    for s in sorted(float(x) for x in s_grid):
        rep = _window_bounds(measure, s, idx)
        lmins.append(rep.lambda_min)
        lmaxs.append(rep.lambda_max)
    eta = fit.eta_hat
    return DispersionSweep(N, window, sorted(float(x) for x in s_grid),
                           lmins, lmaxs, eta,
                           (1.0 - eta) / 2.0, (3.0 + eta) / 2.0)


@dataclass
class SharpnessResult:
    delta: float
    s: float
    N_grid: list
    values: list
    slope: float
    expected_slope: float
    passes: bool
    exceeds_diagonal: bool


def sharpness_sum(delta: float, s: float, N_grid) -> SharpnessResult:
    """S_N = sum over 1 <= n != m <= N of nu_hat(|n|^s - |m|^s) for the
    heavy-tailed product measure; grows like N^(2 - delta s) when
    delta s <= 1, witnessing that the high-frequency theorem's decay
    hypothesis is sharp (the off-diagonal mass swamps the diagonal N)."""
    if not (0 < delta < 1 and delta * s <= 1.0):
        raise ValueError("sharpness regime needs 0 < delta < 1 and delta*s <= 1")
    N_grid = sorted(int(N) for N in N_grid)
    if len(set(N_grid)) < 2:
        raise ValueError(f"N_grid needs two distinct sizes for a slope, got {N_grid}")
    if N_grid[0] < 2:
        raise ValueError(f"N_grid sizes must be >= 2, got {N_grid}")
    Nmax = N_grid[-1]
    if Nmax > _MAX_SHARPNESS_N:
        raise ValueError(f"N_grid sizes must be at most {_MAX_SHARPNESS_N}, "
                         f"got {Nmax}")
    n = np.arange(1, Nmax + 1, dtype=float) ** s
    M = product_nu_hat(delta, n[:, None] - n[None, :])
    P = M.cumsum(axis=0).cumsum(axis=1)
    values = [float(P[N - 1, N - 1] - N * float(product_nu_hat(delta, 0.0)))
              for N in N_grid]
    slope = float(np.polyfit(np.log(N_grid), np.log(values), 1)[0])
    expected = 2.0 - delta * s
    return SharpnessResult(delta, s, N_grid, values, slope, expected,
                           bool(abs(slope - expected) <= 0.1),
                           bool(values[-1] > N_grid[-1]))


@dataclass
class MergedResult:
    T: float
    N: int
    s_grid: list
    lambda_min: list
    coupling: list
    product_bound_max: list
    coupling_decreasing: bool


def merged_bound_experiment(curve: CurveSpec, T: float, s_grid, N: int,
                            tol: float) -> MergedResult:
    """Full-system lambda_min at fixed (possibly small) T as the
    dispersion s grows, together with the low/high coupling
    sup_{|m|<=1} sum_{2<=|n|<=N} |I_(m,n)| that the merged bound needs
    to absorb; the coupling must decrease along the s grid.  Also
    reports max |I_(m,n)| (|n|^s - 1), the scaled form that stays
    bounded."""
    if N > 30:
        raise ValueError("N above desk scale (30)")
    if N < 2:
        raise ValueError(f"N must be >= 2 to couple |m| <= 1 with |n| >= 2, got {N}")
    s_grid = sorted(float(x) for x in s_grid)
    if len(set(s_grid)) < 2:
        raise ValueError(f"s_grid needs two distinct values to compare, got {s_grid}")
    idx = tuple(range(-N, N + 1))
    lmins, couplings, prods = [], [], []
    for s in s_grid:
        G = gram_matrix(curve_system(idx, s, curve, T), tol)
        lmins.append(riesz_bounds(G).lambda_min)
        A = np.abs(G.entries)
        low = [i for i, n in enumerate(idx) if abs(n) <= 1]
        high = [i for i, n in enumerate(idx) if abs(n) >= 2]
        couplings.append(float(A[np.ix_(low, high)].sum(axis=1).max()))
        temp = abs_pow(np.asarray(idx), s)
        scale = temp[high] - 1.0
        prods.append(float((A[np.ix_(low, high)] * scale[None, :]).max()))
    decreasing = bool(np.all(np.diff(couplings) < 0))
    return MergedResult(T, N, s_grid, lmins, couplings, prods, decreasing)
