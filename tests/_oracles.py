"""Slow, independent reference computations used only by the tests."""

from collections import defaultdict

import numpy as np


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
