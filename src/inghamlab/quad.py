"""Shared quadrature rules for the quadrature-heavy modules: equal-panel
Gauss-Legendre grids, and the embedded 10/21-point Gauss-Kronrod pair
that the adaptive integrals and curve Grams take their values and error
estimates from."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_GAUSS = 10   # Gauss-Legendre order that the Kronrod rule extends
# Most panels one adaptive curve quadrature may split [0, T] into: the
# phase integrals, the curve Grams and the Schrodinger traces read it
# when they split.
PANEL_BUDGET = 2 ** 20


def _frozen(*arrays):
    """The arrays, made read-only: a cached rule is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def gl_grid(a: float, b: float, panels: int):
    """Flattened order-10 Gauss-Legendre nodes and weights on `panels`
    equal panels of [a, b]; the endpoints are never nodes."""
    x, _, w = gauss_kronrod21()
    x = x[:_GAUSS]
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _kronrod_jacobi(n: int, alpha: np.ndarray, beta: np.ndarray):
    """Laurie's algorithm: the Jacobi matrix (diagonal a, squared
    off-diagonal b) of the (2n+1)-point Gauss-Kronrod rule from the first
    3n/2 + 1 recurrence coefficients of the weight's monic orthogonal
    polynomials.  Laurie, Math. Comp. 66 (1997), 1133-1145, in the
    vectorized form of Gautschi's r_kronrod; each cumulative sum reads the
    arrays as they were before the step."""
    a = np.zeros(2 * n + 1)
    b = np.zeros(2 * n + 1)
    a[:3 * n // 2 + 1] = alpha[:3 * n // 2 + 1]
    b[:(3 * n + 1) // 2 + 1] = beta[:(3 * n + 1) // 2 + 1]
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        i = m - k
        s[k + 1] = np.cumsum((a[k + n + 1] - a[i]) * t[k + 1]
                             + b[k + n + 1] * s[k] - b[i] * s[k + 1])
        s, t = t, s
    j = np.arange(n // 2, -1, -1)
    s[j + 1] = s[j]
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        i = m - k
        j = n - 1 - i
        s[j + 1] = np.cumsum(-(a[k + n + 1] - a[i]) * t[j + 1]
                             - b[k + n + 1] * s[j + 1] + b[i] * s[j + 2])
        j = j[-1]
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    return a, b


@lru_cache(maxsize=None)
def gauss_kronrod21():
    """The 21-point Gauss-Kronrod rule on [-1, 1], exact to degree 31, that
    extends the 10-point Gauss-Legendre rule.

    Returns (x, wk, wg): the 21 nodes with the 10 Gauss nodes first (in
    ascending order, then the 11 Kronrod nodes in ascending order), their
    Kronrod weights, and the Gauss-Legendre weights of x[:10].  The nodes
    and weights are the eigenvalues and first eigenvector components of
    the Kronrod Jacobi matrix, symmetrized about 0; the Gauss nodes are
    numpy's leggauss(10), so x[:10] with wg is exactly that rule."""
    k = np.arange(1, 3 * _GAUSS // 2 + 2, dtype=float)
    beta = np.concatenate([[2.0], k ** 2 / (4.0 * k ** 2 - 1.0)])  # Legendre, monic
    a, b = _kronrod_jacobi(_GAUSS, np.zeros(beta.size), beta)
    off = np.sqrt(b[1:])
    eigs, vecs = np.linalg.eigh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    x = 0.5 * (eigs - eigs[::-1])
    w = b[0] * vecs[0] ** 2
    w = 0.5 * (w + w[::-1])
    gx, gw = np.polynomial.legendre.leggauss(_GAUSS)
    # Sorted Kronrod nodes interlace: the Gauss nodes sit at odd positions.
    x[1::2] = gx
    order = np.r_[1:2 * _GAUSS + 1:2, 0:2 * _GAUSS + 1:2]
    return _frozen(x[order], w[order], gw)


def bisect(f, lo: float, hi: float, f_lo: float, width) -> float:
    """A root of the continuous scalar f in [lo, hi], where f(lo) = f_lo
    and f(hi) are nonzero and of opposite signs.  The bracket is halved,
    keeping the sign change, until it is at most width(hi) wide or no
    float lies strictly between its ends; then its midpoint is returned.
    A midpoint where f is exactly 0 is returned at once."""
    while hi - lo > width(hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kronrod_panels(a, b):
    """Midpoints, half-widths and (P, 21) Gauss-Kronrod nodes of the panels
    [a_p, b_p]; node j of panel p is mid_p + half_p x_j, with x from
    gauss_kronrod21, so its first 10 nodes are the Gauss nodes."""
    x = gauss_kronrod21()[0]
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return mid, half, mid[:, None] + half[:, None] * x
