"""Code that only the tests call: slow, independent reference
computations, and helpers that write library objects back to JSON,
scan the decay bounds, and take Vandermonde determinants."""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from inghamlab import oscint, riesz
from inghamlab.curves import CurveSpec


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


def simpson_pair_oracle(p, s_values, T: float, pairs, n_points=1_000_001,
                        chunk=1 << 17):
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
        "claimed_delta": measure.claimed_delta,
        "resolution": measure.resolution,
        "nodes": measure.nodes.tolist(),
        "weights": measure.weights.tolist(),
    }


def gram_from_dict(doc: dict) -> riesz.GramMatrix:
    """The Gram matrix of a riesz.gram_to_dict document."""
    entries = np.asarray(doc["entries_re"], dtype=float) \
        + 1j * np.asarray(doc["entries_im"], dtype=float)
    return riesz.GramMatrix(entries, tuple(doc["indices"]),
                            float(doc["T_or_mass"]), float(doc["tol"]))


@dataclass
class RatioScan:
    """Empirical check that |I_(n,m)| / bound stays bounded over a pair grid."""

    max_ratio: float
    argmax: tuple
    pairs: int


def vdc_ratio_scan(curve: CurveSpec, s: float, T: float, N: int) -> RatioScan:
    """Max of |I_(n,m)(T)| / oscint.vdc_theoretical_bound over |n|, |m| <= N,
    n > m, with the bad-pair bound at oscint.default_eta.

    Every |I_(n,m)| is read from one curve Gram on -N..N.  Reported, not
    asserted: the implied constants of the bounds are not explicit.
    """
    eta = oscint.default_eta(s, curve.alpha)
    G = riesz.gram_matrix(riesz.curve_system(range(-N, N + 1), s, curve, T))
    best, arg, pairs = 0.0, (0, 0), 0
    for i, n in enumerate(G.indices):
        for j, m in enumerate(G.indices[:i]):
            bound = oscint.vdc_theoretical_bound(n, m, s, curve, T, eta)
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
