"""Code that only the tests call: slow, independent reference
computations, and helpers that write library objects back to JSON,
state and scan the stationary-phase decay bounds of the pair integrals,
and take Vandermonde determinants.

The reference computations share no code with what they check: the
closed-form free flow and a Duhamel (Picard) iterate, with its own
spectral padding, for the Strang stepper of inghamlab.schrodinger; a
finite-difference determinant for the factorized Wronskian of
inghamlab.rigidity; the pairwise tag rule for classify.region_grid; the
full-square scan for the pair-weight supremum of sums.sup_M; the
decay of S_m in |m| from single tail sums; a 30-digit tail sum by
Euler-Maclaurin, with neither Hurwitz zeta nor a binomial series; and
the cell-by-cell table writers (a (rank, str, float) sort key per cell,
one format call per cell, json's indent=1 encoder) that the column
writers of inghamlab.tables must match byte for byte; and a curve
system's quadratic form integrated along the curve by numpy's
Gauss-Legendre rule, for curve Grams and the V = 0 trace."""

import json
import math
from collections import defaultdict
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import cumulative_trapezoid

from inghamlab import riesz
from inghamlab.classify import abs_pow, tau_threshold
from inghamlab.curves import CurveSpec
from inghamlab.errors import ArtifactError
from inghamlab.rigidity import ObservationCurveGamma
from inghamlab.schrodinger import PotentialSpec, TorusState
from inghamlab.sums import SupScan, tail_sum
from inghamlab.tables import REGION_COLORS, plain

_TWO_PI = 2.0 * np.pi
_PICARD_GRID = 2048            # tau intervals of the Picard quadrature


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    """Composite Simpson weights on an odd-count equispaced grid."""
    if n_points % 2 == 0:
        raise ValueError("Simpson needs an odd number of points")
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def normalize_pair(d: int, a: int, b: int):
    """Map the phase (d, e = a^s - b^s) to the canonical half-plane
    representative using I(-d, -e) = conj(I(d, e)); the sign of e is the
    sign of a - b for every s > 0.  Returns (d, a, b, conjugate_flag)."""
    if a < b or (a == b and d < 0):
        return -d, b, a, True
    return d, a, b, False


# Grid points per chunk of simpson_pair_oracle: each np.vdot then stays
# at or below OpenBLAS's 10,000-element threshold and runs on one thread,
# so the values do not depend on the BLAS thread count, and two oracle
# runs in threads do not contend for the BLAS pool.
_SIMPSON_CHUNK = 1 << 13


def simpson_pair_oracle(p, s_values, T: float, pairs, n_points=1_000_001,
                        chunk=_SIMPSON_CHUNK):
    """Simpson values of integral_0^T exp(2 pi i (d p(t) + e t)) dt, with
    d = n - m and e = |n|^s - |m|^s, for every s in s_values and every
    (n, m) in pairs, computed on a shared n_points grid.

    Returns a dict (s, n, m) -> complex.  Work is shared across pairs and
    s values: each canonical (d, |n|, |m|) is integrated once per s, the
    exp(2 pi i d p) factors are built per chunk once for each distinct
    |d|, and exp(2 pi i e t) is formed as
    exp(2 pi i |n|^s t) conj(exp(2 pi i |m|^s t)) from one rotation per
    distinct |n| and s.
    """
    t_all = np.linspace(0.0, T, n_points)
    h = t_all[1] - t_all[0]
    w_all = simpson_weights(n_points, h)

    canonical = {(n, m): normalize_pair(n - m, abs(n), abs(m))
                 for (n, m) in pairs}
    by_d = {}
    for d, a, b in sorted({key[:3] for key in canonical.values()}):
        by_d.setdefault(d, {}).setdefault(a, []).append(b)
    moduli = sorted({abs(n) for pair in pairs for n in pair})

    acc = defaultdict(complex)
    for lo in range(0, n_points, chunk):
        hi = min(lo + chunk, n_points)
        t = t_all[lo:hi]
        w = w_all[lo:hi]
        pv = p(t)
        base = {ad: np.exp(2j * np.pi * ad * pv)
                for ad in sorted({abs(d) for d in by_d})}
        for s in s_values:
            rot = {a: np.exp(2j * np.pi * a ** s * t) for a in moduli}
            for d, by_a in by_d.items():
                fac = base[abs(d)] if d >= 0 else np.conj(base[abs(d)])
                wf = w * fac
                for a, bs in by_a.items():
                    wfa = wf * rot[a]
                    for b in bs:
                        acc[(s, d, a, b)] += np.vdot(rot[b], wfa)

    out = {}
    for s in s_values:
        for key, (d, a, b, conj) in canonical.items():
            v = acc[(s, d, a, b)]
            out[(s,) + key] = np.conj(v) if conj else v
    return out


def curve_to_dict(curve: CurveSpec) -> dict:
    """The JSON document of a curve, which curves.curve_from_dict reads."""
    params = {}
    for key, val in curve.params.items():
        if isinstance(val, np.ndarray):
            params[key] = val.tolist()
        elif key == "coefficients":
            params[key] = [[a, e] for a, e in val]
        else:
            params[key] = val
    return {"kind": curve.kind, "params": params,
            "alpha": curve.alpha, "c1": curve.c1, "c2": curve.c2, "c3": curve.c3}


def measure_to_dict(measure) -> dict:
    """The JSON document of a measure, which curves.measure_from_dict reads."""
    params = {key: curve_to_dict(val) if isinstance(val, CurveSpec) else val
              for key, val in measure.params.items()}
    return {
        "kind": measure.kind,
        "params": params,
        "resolution": measure.resolution,
        "nodes": measure.nodes.tolist(),
        "weights": measure.weights.tolist(),
    }


def gram_from_dict(doc: dict) -> riesz.GramMatrix:
    """The Gram matrix of a riesz.gram_to_dict document."""
    entries = np.asarray(doc["entries_re"], dtype=float) \
        + 1j * np.asarray(doc["entries_im"], dtype=float)
    tol = doc["tol"]
    return riesz.GramMatrix(entries, tuple(doc["indices"]), float(doc["T_or_mass"]),
                            None if tol is None else float(tol))


_QF_POINTS_PER_CYCLE = 30.0   # nodes per cycle of the fastest single wave


def quadratic_form_quadrature(system: riesz.ExpSystem, coeffs) -> float:
    """The quadratic form c^H G c of a curve system realized directly as
    the integral of |sum_n conj(c_n) e_n|^2 along the curve (numpy's
    order-10 Gauss-Legendre on equal panels, 30 nodes per cycle of the
    fastest single wave) without going through the Gram matrix.  Closes
    the loop matrix-form vs integral-form; it is also the V = 0
    Schrodinger trace."""
    if system.measure is not None:
        raise ValueError("quadratic_form_quadrature takes a curve system, "
                         f"not the measure {system.measure.kind!r}")
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (len(system.indices),):
        raise ValueError("one coefficient per index")
    n = np.asarray(system.indices, dtype=float)
    freq = np.abs(n) ** system.s
    curve, T = system.curve, system.T
    pmax = float(np.abs(curve.p(np.linspace(0.0, T, 512))).max())
    cycles = float(np.abs(n).max() * pmax + freq.max() * T)
    panels = max(64, int(_QF_POINTS_PER_CYCLE / 10.0 * cycles) + 1)
    x, w = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(0.0, T, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
    wts = (half * w).ravel()
    u = np.exp(-2j * np.pi * (np.outer(curve.p(t), n) + np.outer(t, freq))) @ c
    vals = np.abs(u) ** 2
    if system.weight == "arclength":
        vals = vals * np.sqrt(1.0 + curve.dp(t) ** 2)
    return float((vals * wts).sum())


def measure_quadratic_form(system: riesz.ExpSystem, c) -> float:
    """c^H G c of a measure system as the weighted sum of
    |sum_n conj(c_n) e_n|^2 over the measure's own nodes, without the
    Gram matrix."""
    idx = np.asarray(system.indices)
    t, x = system.measure.nodes.T
    u = np.exp(-2j * np.pi * (np.outer(t, abs_pow(idx, system.s))
                              + np.outer(x, idx))) @ np.asarray(c, dtype=complex)
    return float((system.measure.weights * np.abs(u) ** 2).sum())


@dataclass(frozen=True)
class PairClass:
    tag: str
    ratio: float | None
    tau: float


def classify_pair(n: int, m: int, s: float, tau: float) -> PairClass:
    """The tag of one index pair by the rule of inghamlab.classify's
    module docstring, with its ratio (None on the diagonal)."""
    if not (0 < tau < math.inf and math.isfinite(s)):
        raise ValueError(f"need finite s and finite tau > 0, got s={s}, tau={tau}")
    if n == m:
        return PairClass("Diagonal", None, tau)
    if n == -m:
        return PairClass("AntiDiagonal", 0.0, tau)
    pn, pm = abs_pow(np.array([n, m]), s)
    ratio = float((pn - pm) / (n - m))
    if ratio > 0:
        tag = "GoodPlus"
    elif ratio <= -tau:
        tag = "GoodMinus"
    else:
        tag = "Bad"
    return PairClass(tag, ratio, tau)


def tail_m_decay(gamma: float, delta: float, s: float) -> tuple:
    """Vanishing of S_m as |m| grows, at N = 10: compare max S_m over
    m = 0, 10, ..., 100 against max over 12 log-spaced m in [1000, 10000].
    Returns (max_small, max_large, decays)."""
    def max_S(ms):
        return max(tail_sum(gamma, delta, s, int(m), 10).value for m in ms)

    max_small = max_S(range(0, 101, 10))
    max_large = max_S(np.unique(np.geomspace(1000, 10000, 12).astype(int)))
    return max_small, max_large, bool(max_large < max_small)


def tail_sum_mpmath(gamma: float, delta: float, s: float, m: int, N: int):
    """S_m(N) of inghamlab.sums.tail_sum at 30 digits: the terms below
    K = max(N, 2|m| + 1, 100) one by one, the rest by mpmath's
    Euler-Maclaurin sum.  Its integral is taken after the change x = K u^(-a),
    a = 1/(gamma + s delta - 1), which turns the x^(-q) decay into a
    bounded integrand on (0, 1]; mpmath.quad loses digits on the plain
    slowly decaying tail."""
    with mpmath.workdps(30):
        g, d, sp, am = mpmath.mpf(gamma), mpmath.mpf(delta), mpmath.mpf(s), abs(m)
        b = mpmath.mpf(am) ** sp

        def f(n):
            return (abs(n - am) ** -g + (n + am) ** -g) * abs(n ** sp - b) ** -d

        K = max(N, 2 * am + 1, 100)
        direct = mpmath.fsum(f(mpmath.mpf(n)) for n in range(N, K) if n != am)
        a = 1 / (g + sp * d - 1)
        tail = mpmath.quad(lambda u: f(K * u ** -a) * a * K * u ** (-a - 1), [0, 1])
        return direct + mpmath.sumem(f, [K, mpmath.inf], integral=tail)


_SQUARE_CELL_BUDGET = 1 << 20   # float64 cells per row block of sup_square_scan


def sup_square_scan(gamma: float, s: float, N_trunc: int, checkpoints) -> SupScan:
    """inghamlab.sums.sup_M by scanning every cell (a, b) of the quadrant
    [0, N_trunc]^2 for (a + b) / |a^s - b^s|^gamma, in row blocks of about
    _SQUARE_CELL_BUDGET cells that also end at every checkpoint, so the
    prefix maxima are exact; the argmax is the first maximal cell in
    row-major order."""
    checkpoints = sorted(set(int(c) for c in checkpoints))
    b = np.arange(N_trunc + 1, dtype=float)
    pow_b = b ** s
    best_val, best_ab = -1.0, (0, 1)
    col_best = np.zeros(N_trunc + 1)      # running max over processed a, per b
    prefix: list = []

    rows = max(1, _SQUARE_CELL_BUDGET // (N_trunc + 1))
    cuts = sorted({*range(0, N_trunc + 1, rows), N_trunc + 1,
                   *(cp + 1 for cp in checkpoints)})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        a = b[lo:hi]
        denom = np.abs(pow_b[lo:hi, None] - pow_b[None, :])
        np.fill_diagonal(denom[:, lo:hi], np.inf)
        vals = (a[:, None] + b[None, :]) / (denom if gamma == 1.0
                                            else denom ** gamma)
        flat = int(np.argmax(vals))
        ia, ib = divmod(flat, N_trunc + 1)
        if vals[ia, ib] > best_val:
            best_val = float(vals[ia, ib])
            best_ab = (lo + ia, ib)
        np.maximum(col_best, vals.max(axis=0), out=col_best)
        if hi - 1 in checkpoints:
            prefix.append((hi - 1, float(col_best[:hi].max())))

    growth = None
    if len(prefix) >= 2:
        xs, ys = np.log(prefix).T
        growth = float(np.polyfit(xs, ys, 1)[0])
    a_star, b_star = best_ab
    return SupScan(gamma, s, N_trunc, best_val, (-a_star, b_star), growth, prefix)


def wronskian_n1_fd(gamma: ObservationCurveGamma, x: float) -> complex:
    """The N = 1 Wronskian of rigidity.wronskian_n1 as a direct 3x3
    determinant of (f, f', f'') rows with derivatives taken by central
    finite differences."""
    x, h = float(x), 1e-5

    def triple(xx):
        g = float(gamma.gamma(np.asarray([xx]))[0])
        return np.array([np.exp(1j * _TWO_PI * (g - xx)),
                         1.0,
                         np.exp(1j * _TWO_PI * (g + xx))])

    f0 = triple(x)
    fp, fm = triple(x + h), triple(x - h)
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fp - 2.0 * f0 + fm) / h ** 2
    return complex(np.linalg.det(np.stack([f0, d1, d2])))


def free_evolution(u0: TorusState, t: float) -> TorusState:
    """Exact closed-form flow for V = 0: c_n -> c_n exp(2 pi i |n|^s t)."""
    phase = np.exp(2j * np.pi * abs_pow(u0.modes, u0.s) * t)
    return TorusState(u0.coeffs * phase, u0.time + t, u0.s, u0.K)


def pad_spectrum(coeffs: np.ndarray, K: int, M: int) -> np.ndarray:
    """Coefficients c_-K..c_K (last axis) as an M-point DFT spectrum:
    c_n at position n mod M, zero elsewhere."""
    f = np.zeros(coeffs.shape[:-1] + (M,), dtype=complex)
    f[..., : K + 1] = coeffs[..., K:]
    f[..., M - K:] = coeffs[..., :K]
    return f


def truncate_spectrum(f: np.ndarray, K: int) -> np.ndarray:
    """The modes -K..K of an M-point DFT spectrum (last axis)."""
    M = f.shape[-1]
    out = np.empty(f.shape[:-1] + (2 * K + 1,), dtype=complex)
    out[..., K:] = f[..., : K + 1]
    out[..., :K] = f[..., M - K:]
    return out


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
        vals = np.fft.ifft(pad_spectrum(U, K, M), axis=1) * M
        vu = np.fft.fft(vals * vgrid[None, :], axis=1) / M
        integrand = np.conj(rot) * truncate_spectrum(vu, K)
        acc = cumulative_trapezoid(integrand, taus, axis=0, initial=0.0)
        U = rot * (u0.coeffs[None, :] - 2j * np.pi * acc)
    return TorusState(U[-1], u0.time + t_final, u0.s, u0.K)


class InadmissibleEta(ArtifactError):
    """Interpolation parameter eta outside the admissible range."""


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
    pn, pm = abs_pow(np.array([n, m]), s)
    e = abs(float(pn - pm))
    if pc.tag in ("GoodPlus", "GoodMinus"):
        return 1.0 / e
    if eta is None:
        raise InadmissibleEta("bad-pair bound needs an explicit eta")
    al = curve.alpha
    denom = 2.0 * (al - 1.0)
    return (T ** ((1.0 - eta) / 2.0)
            * abs(n - m) ** (-eta / denom)
            * e ** (-(al - 1.0 - eta) / denom))


@dataclass
class RatioScan:
    """Empirical check that |I_(n,m)| / bound stays bounded over a pair grid."""

    max_ratio: float
    argmax: tuple
    pairs: int


def vdc_ratio_scan(curve: CurveSpec, s: float, T: float, N: int) -> RatioScan:
    """Max of |I_(n,m)(T)| / vdc_theoretical_bound over |n|, |m| <= N,
    n > m, with the bad-pair bound at default_eta.

    Every |I_(n,m)| is read from one curve Gram on -N..N.  Reported, not
    asserted: the implied constants of the bounds are not explicit.
    """
    eta = default_eta(s, curve.alpha)
    G = riesz.gram_matrix(riesz.curve_system(range(-N, N + 1), s, curve, T))
    best, arg, pairs = 0.0, (0, 0), 0
    for i, n in enumerate(G.indices):
        for j, m in enumerate(G.indices[:i]):
            bound = vdc_theoretical_bound(n, m, s, curve, T, eta)
            pairs += 1
            ratio = float(abs(G.entries[i, j])) / bound
            if ratio > best:
                best, arg = ratio, (n, m)
    return RatioScan(best, arg, pairs)


@dataclass
class VandermondeReport:
    det_magnitude: float
    invertible: bool
    zero_frequency: bool
    dim: int


def vandermonde_rank(lambdas) -> VandermondeReport:
    """|det| of the matrix V[m, k] = (2 pi i lambda_k)^m, m = 1..K, by
    the closed product formula, cross-checked against a direct LU
    determinant.  The powers start at m = 1, so lambda = 0 yields a
    zero column: reported as non-invertible with the zero_frequency
    flag raised (not silently shifted to powers from 0)."""
    lam = np.asarray([float(x) for x in lambdas])
    K = lam.size
    diff = np.abs(lam[None, :] - lam[:, None])[np.triu_indices(K, 1)]
    prod_pairs = float(np.prod(diff)) if diff.size else 1.0
    prod_lams = float(np.prod(np.abs(lam)))
    magnitude = (2.0 * np.pi) ** (K + K * (K - 1) // 2) * prod_lams * prod_pairs
    z = 2j * np.pi * lam
    V = z[None, :] ** np.arange(1, K + 1)[:, None]
    direct = abs(np.linalg.det(V))
    if magnitude > 0 and abs(direct - magnitude) > 1e-10 * magnitude:
        raise ArithmeticError(
            "product-formula determinant disagrees with LU determinant")
    zero_freq = bool(np.any(lam == 0.0))
    distinct = bool(diff.size == 0 or diff.min() > 0.0)
    return VandermondeReport(magnitude, bool(distinct and not zero_freq),
                             zero_freq, K)


# ---------------------------------------------------------------------------
# reference table writers: one key, one format call and one encoder step
# per cell
# ---------------------------------------------------------------------------

_PLAIN = (str, int, float, type(None))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _sort_key(row):
    # Total order over heterogeneous rows: compare per cell by
    # (type rank, value) so ints/floats sort numerically and strings
    # lexically without ever comparing across types.
    key = []
    for cell in row:
        if isinstance(cell, bool):
            key.append((2, "", float(cell)))
        elif isinstance(cell, (int, float)):
            key.append((0, "", float(cell)))
        else:
            key.append((1, str(cell), 0.0))
    return key


@dataclass
class ReferenceTable:
    """inghamlab.tables.ResultTable, plained and sorted row by row."""
    name: str
    columns: tuple
    rows: list
    provenance: object
    meta: dict

    def __post_init__(self):
        self.columns = tuple(self.columns)
        rows = [tuple(v if isinstance(v, _PLAIN) else plain(v) for v in row)
                for row in self.rows]
        self.meta = plain(dict(self.meta))
        for row in rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.name}: row width {len(row)} != "
                    f"{len(self.columns)} columns")
        self.rows = sorted(rows, key=_sort_key)


def _header_lines(table) -> list:
    lines = [
        f"# inghamlab {table.provenance.version}",
        f"# config {table.provenance.config_hash}",
        f"# generated {table.provenance.timestamp}",
        f"# table {table.name}",
    ]
    for key in sorted(table.meta):
        lines.append(f"# {key} {_fmt(table.meta[key])}")
    return lines


def reference_write_csv(table, path: str) -> str:
    lines = _header_lines(table)
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _json_cell(value):
    if isinstance(value, float) and value != value:
        return None
    return value


def reference_write_json(table, path: str) -> str:
    doc = {
        "name": table.name,
        "provenance": {
            "version": table.provenance.version,
            "config_hash": table.provenance.config_hash,
            "timestamp": table.provenance.timestamp,
        },
        "meta": {k: _json_cell(table.meta[k]) for k in sorted(table.meta)},
        "columns": list(table.columns),
        "rows": [[_json_cell(v) for v in r] for r in table.rows],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _write_xy(path: str, xs, ys, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    for x, y in zip(xs, ys):
        lines.append(f"{_fmt(float(x))} {_fmt(float(y))}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _plot_loglog_fit(name, out_base, xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.unique(xs).size < 2:
        raise ValueError(f"table {name}: a log-log fit needs at least two "
                         "distinct x values")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError(f"table {name}: a log-log fit needs finite data")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log plot needs positive data")
    slope, intercept = np.polyfit(np.log10(xs), np.log10(ys), 1)
    fitted = 10.0 ** (intercept + slope * np.log10(xs))
    paths = [_write_xy(out_base + ".dat", xs, ys)]
    paths.append(_write_xy(out_base + ".fit.dat", xs, fitted,
                           comments=[f"slope {_fmt(float(slope))}",
                                     f"intercept {_fmt(float(intercept))}"]))
    return paths


def _plot_region_svg(out_base, ns, ms, tags):
    cell = 6   # pixels per side
    n_min, n_max = min(ns), max(ns)
    m_min, m_max = min(ms), max(ms)
    width = (n_max - n_min + 1) * cell
    height = (m_max - m_min + 1) * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for n, m, tag in zip(ns, ms, tags):
        color = REGION_COLORS.get(str(tag), "#ff00ff")
        if color == "#ffffff":
            continue
        px = (n - n_min) * cell
        py = (m_max - m) * cell
        parts.append(f'<rect x="{px}" y="{py}" width="{cell}" '
                     f'height="{cell}" fill="{color}"/>')
    parts.append("</svg>")
    path = out_base + ".svg"
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return [path]


def reference_emit_plot_data(table, kind: str, out_base: str) -> list:
    columns = [[row[i] for row in table.rows] for i in range(len(table.columns))]
    if kind == "xy":
        return [_write_xy(out_base + ".dat", columns[0], columns[1])]
    if kind == "loglog-fit":
        return _plot_loglog_fit(table.name, out_base, columns[0], columns[1])
    if kind == "region-svg":
        return _plot_region_svg(out_base, *columns[:3])
    if kind == "curve":
        return [_write_xy(f"{out_base}.{name}.dat", columns[0], ys)
                for name, ys in zip(table.columns[1:], columns[1:])]
    raise ValueError(f"unknown plot kind {kind!r}")
