"""Gram matrices of curve- and measure-restricted exponential systems,
their extreme eigenvalues (empirical Riesz bounds), and the quantitative
experiments built on them: observation-time sweeps, the short-time
failure family, high-frequency two-sided bounds over measures, the
sharpness sum of the product measure, and the merged low+high bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .classify import abs_pow
from .curves import CurveSpec, MeasureSpec, fit_fourier_decay, product_nu_hat
from .errors import DecayTooWeak, NotHermitian, ToleranceNotMet
from .oscint import phase_integral
from .quad import panel_nodes

DEFAULT_SEED = 0x1CEB00DA
_HERMITIAN_TOL = 1e-12
_SANDWICH_SLACK = 1e-8
_BLOCK = 4096              # nodes per block of the E^H W E product
_MAX_HALVINGS = 4          # panel halvings allowed to meet a curve Gram's tol


# ---------------------------------------------------------------------------
# systems and Gram matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpSystem:
    """A finite family of exponentials e_n with temporal frequency |n|^s
    and spatial frequency lambda_n (default n), restricted either to a
    curve (t, p(t)) over [0, T] or to a planar measure."""

    indices: tuple
    s: float
    curve: CurveSpec | None = None
    T: float | None = None
    weight: str = "lebesgue"            # or "arclength"
    measure: MeasureSpec | None = None
    lambdas: tuple | None = None

    def __post_init__(self):
        idx = tuple(int(n) for n in self.indices)
        if list(idx) != sorted(set(idx)):
            raise ValueError("indices must be distinct and sorted")
        object.__setattr__(self, "indices", idx)
        lams = idx if self.lambdas is None else tuple(float(x) for x in self.lambdas)
        if len(lams) != len(idx):
            raise ValueError("one spatial frequency per index")
        gaps = np.diff(np.sort(np.asarray(lams, dtype=float)))
        if gaps.size and float(gaps.min()) < 1e-9:
            raise ValueError("spatial frequencies must be pairwise distinct")
        object.__setattr__(self, "lambdas", lams)
        has_curve = self.curve is not None
        if has_curve == (self.measure is not None):
            raise ValueError("provide exactly one of curve or measure")
        if has_curve:
            if self.T is None or self.T <= 0:
                raise ValueError("curve systems need T > 0")
            if self.weight not in ("lebesgue", "arclength"):
                raise ValueError("weight must be lebesgue or arclength")

    def temporal_freq(self, n: int) -> float:
        return float(abs_pow(np.asarray(n), self.s))

    def spatial_freq(self, n: int) -> float:
        return self.lambdas[self.indices.index(n)]

    @property
    def dim(self) -> int:
        return len(self.indices)


def curve_system(indices, s: float, curve: CurveSpec, T: float,
                 weight: str = "lebesgue", lambdas=None) -> ExpSystem:
    return ExpSystem(tuple(indices), s, curve=curve, T=T, weight=weight,
                     lambdas=lambdas)


def measure_system(indices, s: float, measure: MeasureSpec,
                   lambdas=None) -> ExpSystem:
    return ExpSystem(tuple(indices), s, measure=measure, lambdas=lambdas)


@dataclass
class GramMatrix:
    entries: np.ndarray
    indices: tuple
    T_or_mass: float
    tol: float

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _phase_vectors(system: ExpSystem) -> np.ndarray:
    """Rows phi(n) = (|n|^s, lambda_n), one per index."""
    temp = abs_pow(np.asarray(system.indices), system.s)
    return np.stack([np.atleast_1d(temp),
                     np.asarray(system.lambdas, dtype=float)], axis=1)


def _gram_product(nodes: np.ndarray, wts: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """G = E^H W E with E[k, n] = exp(-2 pi i <z_k, phi(n)>), summed over
    fixed blocks of nodes z_k and Hermitian-symmetrized."""
    G = np.zeros((phi.shape[0],) * 2, dtype=complex)
    for lo in range(0, nodes.shape[0], _BLOCK):
        E = np.exp(-2j * np.pi * (nodes[lo:lo + _BLOCK] @ phi.T))
        G += E.conj().T @ (wts[lo:lo + _BLOCK, None] * E)
    return 0.5 * (G + G.conj().T)


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

    def panel_gram(order):
        t, gw = (x.ravel() for x in panel_nodes(edges[:-1], edges[1:], order))
        gw = gw if w is None else gw * w(t)
        return _gram_product(np.column_stack([t, curve.p(t)]), gw, phi)

    for halvings in range(_MAX_HALVINGS + 1):
        G = panel_gram(20)
        err = float(np.abs(G - panel_gram(10)).max())
        if err <= bound:
            break
        if halvings == _MAX_HALVINGS:
            raise ToleranceNotMet(
                f"curve Gram: max |G20 - G10| = {err:.3e} exceeds tol/J = "
                f"{bound:.3e} on {edges.size - 1} panels")
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    if w is None:
        np.fill_diagonal(G, T)
    return G


def gram_matrix(system: ExpSystem, tol: float = 1e-9) -> GramMatrix:
    """Gram matrix G[n, m] = <e_n, e_m> over the system's domain, formed
    as the PSD product E* W E over weighted nodes (positivity is
    structural): a measure's own nodes, or for a curve the nodes (t, p(t))
    on the panels of one adaptive integral of the fastest pair, accepted
    once the order-20 and order-10 products agree to tol / dim."""
    phi = _phase_vectors(system)
    if system.measure is not None:
        meas = system.measure
        return GramMatrix(_gram_product(meas.nodes, meas.weights, phi),
                          system.indices, float(meas.weights.sum()), tol)
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


def gram_from_dict(doc: dict) -> GramMatrix:
    entries = np.asarray(doc["entries_re"], dtype=float) \
        + 1j * np.asarray(doc["entries_im"], dtype=float)
    return GramMatrix(entries, tuple(doc["indices"]),
                      float(doc["T_or_mass"]), float(doc["tol"]))


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


def riesz_bounds(G: GramMatrix, seed: int = DEFAULT_SEED,
                 n_random: int = 64) -> RieszReport:
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
    rng = np.random.default_rng(seed)
    passed = 0
    for _ in range(n_random):
        c = rng.standard_normal(H.shape[0]) + 1j * rng.standard_normal(H.shape[0])
        c /= np.linalg.norm(c)
        q = float(np.real(c.conj() @ H @ c))
        if lmin - _SANDWICH_SLACK <= q <= lmax + _SANDWICH_SLACK:
            passed += 1
    diag = G.T_or_mass
    return RieszReport(lmin, lmax, (lmin / diag, lmax / diag), passed)


def quadratic_form_quadrature(system: ExpSystem, coeffs,
                              points_per_cycle: float = 12.0) -> float:
    """The quadratic form c^H G c realized directly as the integral of
    |sum_n conj(c_n) e_n|^2 over the system's domain (dense composite
    Gauss-Legendre along the curve, or a plain weighted sum over measure
    nodes) without going through the Gram matrix.  Closes the loop
    matrix-form vs integral-form."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (len(system.indices),):
        raise ValueError("one coefficient per index")
    phi = _phase_vectors(system)
    if system.measure is not None:
        meas = system.measure
        u = np.exp(-2j * np.pi * (meas.nodes @ phi.T)) @ c
        return float((meas.weights * np.abs(u) ** 2).sum())
    curve, T = system.curve, system.T
    pmax = float(np.abs(curve.p(np.linspace(0.0, T, 512))).max())
    cycles = float(np.abs(phi[:, 1]).max() * pmax + np.abs(phi[:, 0]).max() * T)
    panels = max(64, int(points_per_cycle * cycles / 10.0) + 1)
    edges = np.linspace(0.0, T, panels + 1)
    nodes, wts = panel_nodes(edges[:-1], edges[1:], 10)
    t = nodes.ravel()
    ph = np.outer(curve.p(t), phi[:, 1]) + np.outer(t, phi[:, 0])
    u = np.exp(-2j * np.pi * ph) @ c
    vals = np.abs(u) ** 2
    if system.weight == "arclength":
        vals = vals * np.sqrt(1.0 + curve.dp(t) ** 2)
    return float((vals.reshape(nodes.shape) * wts).sum())


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
                 tol: float = 1e-8, threshold_frac: float = 0.1) -> SweepResult:
    """lambda_min / lambda_max of the full system -N..N over a grid of
    observation times.  lambda_min must be nondecreasing in T (the Gram
    increment over [T, T'] is itself PSD); the empirical observation
    time is the smallest grid T whose normalized lambda_min/T reaches
    threshold_frac of its value at the largest T."""
    if N > 60:
        raise ValueError("N above desk scale (60)")
    T_grid = sorted(float(T) for T in T_grid)
    if len(T_grid) < 2:
        raise ValueError("need at least two grid times")
    idx = range(-N, N + 1)
    lmins, lmaxs = [], []
    for T in T_grid:
        rep = riesz_bounds(gram_matrix(curve_system(idx, s, curve, T), tol))
        lmins.append(rep.lambda_min)
        lmaxs.append(rep.lambda_max)
    slack = 1e-7 * max(1.0, max(lmaxs))
    monotone = bool(np.all(np.diff(lmins) >= -slack))
    ratios = np.asarray(lmins) / np.asarray(T_grid)
    target = threshold_frac * ratios[-1]
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


def minimal_time_counterexample(curve: CurveSpec, s: float, j_grid,
                                order: int = 10, panels: int = 256) -> MinimalTimeResult:
    """Short-time failure family: two-mode data c_0 = 1,
    c_j = -exp(-2 pi i j p(0)) observed over the shrinking windows
    T_j = j^(-(s+eps)), eps = (alpha s - 1)/(2 s).  The normalized
    energy ratio_j = integral_0^1 |1 - exp(2 pi i (j (p(T_j tau) - p(0))
    + j^s T_j tau))|^2 d tau collapses to 0, so no single T-independent
    lower Riesz constant can survive T -> 0."""
    alpha = curve.alpha
    eps = (alpha * s - 1.0) / (2.0 * s)
    j_grid = sorted(int(j) for j in j_grid)
    p0 = float(curve.p(np.array([0.0]))[0])
    edges = np.linspace(0.0, 1.0, panels + 1)
    nodes, wts = panel_nodes(edges[:-1], edges[1:], order)
    tau = nodes.ravel()
    Ts, ratios = [], []
    for j in j_grid:
        Tj = float(j) ** (-(s + eps))
        ph = 2.0 * np.pi * (j * (curve.p(Tj * tau) - p0) + float(j) ** s * Tj * tau)
        vals = np.abs(1.0 - np.exp(1j * ph)) ** 2
        ratios.append(float((vals.reshape(nodes.shape) * wts).sum()))
        Ts.append(Tj)
    decreasing = bool(np.all(np.diff(ratios) < 0))
    return MinimalTimeResult(s, eps, j_grid, Ts, ratios, 2.0, decreasing)


def _window_indices(N: int, window: int):
    return tuple(range(-(N + window), -N + 1)) + tuple(range(N, N + window + 1))


def _resolved(measure: MeasureSpec, xi_max: float,
              nodes_per_cycle: float) -> MeasureSpec:
    """The measure rebuilt with nodes_per_cycle nodes per cycle of the
    frequency xi_max across its diameter (at least 4,096 nodes)."""
    return measure.with_resolution(
        max(4096, int(np.ceil(nodes_per_cycle * xi_max * measure.diameter()))))


def _decay_fit(measure: MeasureSpec, nodes_per_cycle: float, radii=None):
    """Fourier decay fit of the measure on radii (default 36 radii over
    [1, 200]), with a quadrature that resolves the largest radius."""
    if radii is None:
        radii = np.geomspace(1.0, 200.0, 36)
    return fit_fourier_decay(
        _resolved(measure, float(np.max(radii)), nodes_per_cycle), radii)


def _window_bounds(measure: MeasureSpec, s: float, indices,
                   nodes_per_cycle: float) -> RieszReport:
    """Riesz bounds of the measure system on indices, with the measure's
    quadrature rebuilt to resolve the largest frequency difference."""
    phi = _phase_vectors(measure_system(indices, s, measure))
    span = phi.max(axis=0) - phi.min(axis=0)
    meas = _resolved(measure, float(np.hypot(span[0], span[1])), nodes_per_cycle)
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
                    nodes_per_cycle: float = 16.0, fit_radii=None) -> HighFreqResult:
    """Two-sided Riesz bounds of the tail system {N <= |n| <= N+window}
    over a planar measure, expected to land in [1/2, 3/2] once N clears
    a measure-dependent threshold; N_star is the first grid N that does
    (with the 10% slack [0.45, 1.55] used by the acceptance run).

    The measure's quadrature is rebuilt for every N so that the largest
    frequency difference stays resolved; the Fourier decay exponent is
    fitted once and a DecayTooWeak warning (not an error) is emitted
    when s * delta_hat <= 1, where the theorem gives no guarantee.
    """
    fit = _decay_fit(measure, nodes_per_cycle, fit_radii)
    if s * fit.delta_hat <= 1.0:
        warnings.warn(
            f"fitted decay delta_hat={fit.delta_hat:.3f} gives "
            f"s*delta_hat={s * fit.delta_hat:.3f} <= 1; bounds may not close",
            DecayTooWeak)
    N_grid = sorted(int(N) for N in N_grid)
    lmins, lmaxs, N_star = [], [], None
    for N in N_grid:
        rep = _window_bounds(measure, s, _window_indices(N, window),
                             nodes_per_cycle)
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
                              window: int = 10,
                              nodes_per_cycle: float = 16.0) -> DispersionSweep:
    """Fixed small N, dispersion s swept upward: the two-sided bounds
    should approach the window [(1 - eta)/2, (3 + eta)/2] where eta is
    the measure's fitted near-frequency sup.  Reported, not asserted."""
    fit = _decay_fit(measure, nodes_per_cycle)
    idx = _window_indices(N, window)
    lmins, lmaxs = [], []
    for s in sorted(float(x) for x in s_grid):
        rep = _window_bounds(measure, s, idx, nodes_per_cycle)
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
    if N_grid[0] < 1:
        raise ValueError(f"N_grid sizes must be >= 1, got {N_grid}")
    Nmax = N_grid[-1]
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


def merged_bound_experiment(curve: CurveSpec, T: float, s_grid, N: int = 20,
                            tol: float = 1e-8) -> MergedResult:
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
    idx = tuple(range(-N, N + 1))
    lmins, couplings, prods = [], [], []
    for s in s_grid:
        G = gram_matrix(curve_system(idx, s, curve, T), tol)
        lmins.append(riesz_bounds(G).lambda_min)
        A = np.abs(G.entries)
        low = [i for i, n in enumerate(idx) if abs(n) <= 1]
        high = [i for i, n in enumerate(idx) if abs(n) >= 2]
        couplings.append(float(A[np.ix_(low, high)].sum(axis=1).max()))
        temp = np.atleast_1d(abs_pow(np.asarray(idx), s))
        scale = temp[high] - 1.0
        prods.append(float((A[np.ix_(low, high)] * scale[None, :]).max()))
    decreasing = bool(np.all(np.diff(couplings) < 0))
    return MergedResult(T, N, s_grid, lmins, couplings, prods, decreasing)
