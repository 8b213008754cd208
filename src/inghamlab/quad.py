"""Shared Gauss-Legendre helpers for the quadrature-heavy modules."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def leggauss(order: int):
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(a, b, order: int):
    """Gauss-Legendre nodes/weights for a batch of panels.

    a, b are arrays of panel endpoints with shape (P,).  Returns arrays of
    shape (P, order); the integral over the union of panels of a function f
    is (f(nodes) * weights).sum().
    """
    x, w = leggauss(order)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes, weights


def gl_grid(a: float, b: float, panels: int):
    """Flattened order-10 Gauss-Legendre nodes and weights on `panels`
    equal panels of [a, b]; the endpoints are never nodes."""
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = panel_nodes(edges[:-1], edges[1:], 10)
    return nodes.ravel(), weights.ravel()
