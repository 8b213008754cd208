"""Reference computations for the benchmark's correctness checks.

Nothing here imports inghamlab: curve formulas, quadrature and node sums
are written out again with plain numpy, so a check never compares the
library with itself.
"""

from __future__ import annotations

import numpy as np


def curve_p(doc: dict, t):
    """p(t) of a Monomial or ArctanModulated curve document."""
    t = np.asarray(t, dtype=float)
    if doc["kind"] == "Monomial":
        prm = doc["params"]
        return prm.get("a", 0.0) + prm["b"] * t ** prm["alpha"]
    if doc["kind"] == "ArctanModulated":
        return (1.0 + (2.0 / np.pi) * np.arctan(t)) / 3.0 * t ** 3
    raise ValueError(f"oracle has no formula for {doc['kind']!r}")


def curve_dp(doc: dict, t):
    t = np.asarray(t, dtype=float)
    if doc["kind"] == "Monomial":
        prm = doc["params"]
        return prm["alpha"] * prm["b"] * t ** (prm["alpha"] - 1.0)
    if doc["kind"] == "ArctanModulated":
        eta = (1.0 + (2.0 / np.pi) * np.arctan(t)) / 3.0
        deta = 2.0 / (3.0 * np.pi * (1.0 + t * t))
        return deta * t ** 3 + 3.0 * eta * t * t
    raise ValueError(f"oracle has no formula for {doc['kind']!r}")


def _dense_nodes(T: float, cycles: float, order: int = 20):
    """Fixed composite Gauss-Legendre nodes on [0, T]: eight panels per
    oscillation of the fastest integrand, never fewer than 32."""
    panels = max(32, int(np.ceil(8.0 * cycles)))
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, T, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def curve_gram(doc: dict, indices, s: float, T: float, weight: str,
               pairs=None) -> np.ndarray:
    """Gram entries G[i, j] = int_0^T e_i conj(e_j) w dt for the system
    e_n(t) = exp(2 pi i (n p(t) + |n|^s t)) on fixed dense nodes.

    pairs=None returns the full matrix; otherwise a vector with one entry
    per (i, j) position pair.
    """
    lam = np.asarray(indices, dtype=float)
    temp = np.abs(lam) ** s
    pmax = float(np.abs(curve_p(doc, np.linspace(0.0, T, 257))).max())
    cycles = float(np.ptp(lam)) * pmax + float(np.ptp(temp)) * T
    t, w = _dense_nodes(T, cycles)
    if weight == "arclength":
        w = w * np.sqrt(1.0 + curve_dp(doc, t) ** 2)
    p = curve_p(doc, t)
    if pairs is None:
        E = np.exp(2j * np.pi * (np.outer(p, lam) + np.outer(t, temp)))
        return E.T @ (w[:, None] * E.conj())
    i, j = (np.asarray(v) for v in zip(*pairs))
    phase = np.outer(p, lam[i] - lam[j]) + np.outer(t, temp[i] - temp[j])
    return w @ np.exp(2j * np.pi * phase)


def measure_entry(nodes: np.ndarray, weights: np.ndarray,
                  phi_i, phi_j) -> complex:
    """sum_k w_k exp(2 pi i <z_k, phi_i - phi_j>), one direct node sum."""
    diff = np.asarray(phi_i, dtype=float) - np.asarray(phi_j, dtype=float)
    return complex(weights @ np.exp(2j * np.pi * (nodes @ diff)))


def hermitian_defect(G: np.ndarray) -> float:
    """max |G - G^H| relative to max(1, max |G|)."""
    return float(np.abs(G - G.conj().T).max()) / max(1.0, float(np.abs(G).max()))


def extreme_eigs(G: np.ndarray) -> tuple:
    eigs = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    return float(eigs[0]), float(eigs[-1])
