"""Index-pair classification and the explicit boundary of the bad region.

For a pair (n, m) with n != m the discriminating quantity is the ratio

    ratio = (|n|^s - |m|^s) / (n - m),

compared against the threshold tau = 2 c2 T^(alpha-1) of the observation
window.  The partition is

    Diagonal       n == m
    AntiDiagonal   n == -m != 0            (ratio = 0)
    GoodPlus       ratio > 0
    GoodMinus      ratio <= -tau
    Bad            -tau < ratio < 0

so a boundary ratio of exactly -tau lands in GoodMinus.  For s = 3/2 and
tau = 4 the Bad/GoodMinus interface admits exact algebraic parametrizations
(two ellipse arcs and two mixed branches), implemented below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CurveSpec
from .errors import OutOfDomain

TAGS = ("Diagonal", "AntiDiagonal", "GoodPlus", "GoodMinus", "Bad")
BRANCHES = ("EllipseUV", "EllipseVU", "MixedXPos", "MixedYPos")
# A classify run peaks at about 380 bytes per cell of the (2N+1)^2 grid,
# most of it the table rows (tracemalloc: 378 MiB at N = 500, of which the
# grid's own arrays are 48 MiB), so N is capped near 1 GiB.
_MAX_GRID_N = 800
# A boundary run peaks at about 3.2 kB per sample (four branches, written
# as JSON; tracemalloc: 308 MiB at 100,000 samples, 220 MiB as CSV), so
# the sample count is capped near 1 GiB.
_MAX_SAMPLES = 300_000


def abs_pow(n: np.ndarray, s: float) -> np.ndarray:
    """|n|^s elementwise from the power function, which is within an ulp
    where exp(s log |n|) is not; exactly 0 for n = 0.  A power that is not
    a finite float raises a ValueError naming s and the largest |n|."""
    out = np.zeros(n.shape, dtype=float)
    nz = n != 0
    with np.errstate(over="ignore"):
        out[nz] = np.abs(n[nz]).astype(float) ** s
    if not np.isfinite(out).all():
        raise ValueError(f"|n|^s is not a finite float at s = {s} and "
                         f"|n| = {np.abs(n).max()}")
    return out


def tau_threshold(curve: CurveSpec, T: float) -> float:
    """tau = 2 c2 T^(alpha-1)."""
    if T <= 0:
        raise ValueError("T must be positive")
    return 2.0 * curve.c2 * T ** (curve.alpha - 1.0)


@dataclass
class RegionGrid:
    """Classification of the full integer grid |n|, |m| <= N."""

    s: float
    tau: float
    N: int
    ns: np.ndarray        # shape (2N+1,), the index axis -N..N
    tags: np.ndarray      # shape (2N+1, 2N+1), int8 codes into TAGS
    ratios: np.ndarray    # same shape, nan on the diagonal
    counts: dict

    def rows(self):
        """(n, m, tag, ratio) per cell as plain Python values, row-major."""
        ns = self.ns.tolist()
        for n, tags, ratios in zip(ns, self.tags.tolist(), self.ratios.tolist()):
            for m, tag, ratio in zip(ns, tags, ratios):
                yield n, m, TAGS[tag], ratio


def region_grid(s: float, tau: float, N: int) -> RegionGrid:
    if not (0 < tau < math.inf and math.isfinite(s)) or N < 1:
        raise ValueError("need finite s, finite tau > 0 and N >= 1")
    if N > _MAX_GRID_N:
        raise ValueError(f"grid half-width N must be at most {_MAX_GRID_N}, got {N}")
    axis = np.arange(-N, N + 1)
    pw = abs_pow(axis, s)
    nn, mm = np.meshgrid(axis, axis, indexing="ij")
    pn, pm = np.meshgrid(pw, pw, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (pn - pm) / (nn - mm)
    tags = np.empty(nn.shape, dtype=np.int8)
    tags[ratios > 0] = TAGS.index("GoodPlus")
    tags[ratios <= -tau] = TAGS.index("GoodMinus")
    tags[(ratios < 0) & (ratios > -tau)] = TAGS.index("Bad")
    anti = (nn == -mm) & (nn != 0)
    tags[anti] = TAGS.index("AntiDiagonal")
    ratios[anti] = 0.0
    diag = nn == mm
    tags[diag] = TAGS.index("Diagonal")
    ratios[diag] = np.nan
    counts = {tag: int(np.sum(tags == k)) for k, tag in enumerate(TAGS)}
    return RegionGrid(s, tau, N, axis, tags, ratios, counts)


# ---------------------------------------------------------------------------
# boundary parametrization at s = 3/2, tau = 4
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryPoint:
    branch: str
    parameter: float
    point: tuple

    def residual(self) -> float:
        """|x|^1.5 - |y|^1.5 + 4 (x - y); zero on the boundary."""
        x, y = self.point
        return abs(x) ** 1.5 - abs(y) ** 1.5 + 4.0 * (x - y)


def boundary_parametrization(branch: str, parameter: float) -> BoundaryPoint:
    """Point of the boundary set |x|^1.5 - |y|^1.5 = -4 (x - y), branch-wise.

    EllipseUV covers y < x < 0 with theta in (pi/6, pi/2]; EllipseVU swaps
    the coordinates.  MixedXPos covers y < 0 < x with t in (0, 1);
    MixedYPos swaps signs and roles.  The upper ellipse endpoint theta =
    pi/2 is kept (it meets the mixed branches at (0, -16)); theta = pi/6 is
    excluded because the construction degenerates there (u = v).
    """
    th = float(parameter)
    if branch in ("EllipseUV", "EllipseVU"):
        if not (math.pi / 6.0 < th <= math.pi / 2.0):
            raise OutOfDomain(f"theta={th} outside (pi/6, pi/2]")
        u = math.sqrt(16.0 / 3.0) * math.cos(th) - (4.0 / 3.0) * math.sin(th) + 4.0 / 3.0
        v = (8.0 / 3.0) * math.sin(th) + 4.0 / 3.0
        if branch == "EllipseUV":
            return BoundaryPoint(branch, th, (-u * u, -v * v))
        return BoundaryPoint(branch, th, (-v * v, -u * u))
    if branch in ("MixedXPos", "MixedYPos"):
        if not (0.0 < th < 1.0):
            raise OutOfDomain(f"t={th} outside (0, 1)")
        g = 4.0 * (th * th + 1.0) / (1.0 - th ** 3)
        if branch == "MixedXPos":
            return BoundaryPoint(branch, th, ((th * g) ** 2, -g * g))
        return BoundaryPoint(branch, th, (-g * g, (th * g) ** 2))
    raise ValueError(f"unknown branch {branch!r}")


def boundary_samples(branch: str, count: int) -> list[BoundaryPoint]:
    """Evenly sampled points on a branch, inside a numerically safe subrange.

    The mixed branches blow up as t -> 1, which amplifies float cancellation
    in the residual; the subranges keep |x|, |y| moderate.
    """
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    if count > _MAX_SAMPLES:
        raise ValueError(f"sample count must be at most {_MAX_SAMPLES}, got {count}")
    if branch in ("EllipseUV", "EllipseVU"):
        lo, hi = math.pi / 6.0 + 1e-6, math.pi / 2.0
    else:
        lo, hi = 0.01, 0.90
    return [boundary_parametrization(branch, t) for t in np.linspace(lo, hi, count)]
