"""Box-counting dimension estimation for interval approximations.

Counts grid-aligned boxes [j*eps, (j+1)*eps) met by a band set, exactly
from the interval endpoints, and fits the log-log slope over a geometric
scale grid.  For the sets of interest Hausdorff and box dimensions
coincide, so the slope is reported as "the" dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import BandSet

__all__ = [
    "DimensionEstimate",
    "box_count",
    "box_dimension",
    "cantor_bands",
    "geometric_scales",
    "local_dimension",
]

#: regression residual above which an estimate should be distrusted
RESIDUAL_FLAG = 0.05


@dataclass
class DimensionEstimate:
    value: float
    scale_range: tuple[float, float]
    regression_residual: float
    counts: list[tuple[float, int]]

    @property
    def flagged(self) -> bool:
        return self.regression_residual > RESIDUAL_FLAG


def box_count(b: BandSet, eps: float) -> int:
    """Number of eps-grid boxes whose interior meets the band set.

    Degenerate (zero-width) intervals count the single box holding the
    point.  Grid boxes are half-open and anchored at 0, so [0, 1] at
    eps = 0.1 occupies exactly 10 boxes.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if not b:
        raise ValueError("empty band set has no box count")
    ranges = []
    for lo, hi in b.intervals:
        if hi > lo:
            # open-overlap convention: box j counts iff j*eps < hi and
            # (j+1)*eps > lo
            j0 = math.floor(lo / eps)
            if (j0 + 1) * eps <= lo:
                j0 += 1
            j1 = math.ceil(hi / eps) - 1
            if j1 * eps >= hi:
                j1 -= 1
            j1 = max(j1, j0)
        else:
            j0 = j1 = math.floor(lo / eps)
        ranges.append((j0, j1))
    ranges.sort()
    total = 0
    cur_lo, cur_hi = ranges[0]
    for j0, j1 in ranges[1:]:
        if j0 <= cur_hi + 0:
            cur_hi = max(cur_hi, j1)
        else:
            total += cur_hi - cur_lo + 1
            cur_lo, cur_hi = j0, j1
    total += cur_hi - cur_lo + 1
    return total


def geometric_scales(
    eps_max: float, ratio: float = 0.5, n: int = 7
) -> list[float]:
    if not 0 < ratio <= 0.5:
        raise ValueError("ratio must be in (0, 1/2]")
    if n < 5:
        raise ValueError("need at least 5 scales")
    return [eps_max * ratio**i for i in range(n)]


def box_dimension(b: BandSet, eps_grid) -> DimensionEstimate:
    """Least-squares slope of log N(eps) against log(1/eps).

    The scale grid must be geometric with ratio <= 1/2, hold at least 5
    scales, and stay a factor 4 above the band set's narrowest interval;
    below that the finite approximation dominates and the slope drifts
    toward 1.
    """
    eps = sorted(float(e) for e in eps_grid)
    if len(eps) < 5:
        raise ValueError("need at least 5 scales")
    for small, big in zip(eps, eps[1:]):
        if small > 0.5 * big * (1 + 1e-9):
            raise ValueError("scale grid must be geometric with ratio <= 1/2")
    native = b.native_resolution
    usable = [e for e in eps if native == 0.0 or e >= 4.0 * native]
    if len(usable) < 5:
        raise ValueError(
            f"fewer than 5 scales above 4x the native resolution {native:g}"
        )
    counts = [(e, box_count(b, e)) for e in usable]
    xs = [math.log(1.0 / e) for e, _ in counts]
    ys = [math.log(c) for _, c in counts]
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    residual = math.sqrt(
        sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys)) / n
    )
    return DimensionEstimate(
        value=slope,
        scale_range=(usable[0], usable[-1]),
        regression_residual=residual,
        counts=counts,
    )


def local_dimension(b: BandSet, window, eps_grid) -> DimensionEstimate:
    """Box dimension of the band set restricted to a closed window."""
    lo, hi = float(window[0]), float(window[1])
    restricted = b.intersect_window(lo, hi)
    if not restricted:
        raise ValueError(f"window [{lo}, {hi}] misses the band set")
    return box_dimension(restricted, eps_grid)


def auto_scale_grid(b: BandSet, ratio: float = 0.5) -> list[float]:
    """Geometric scale grid adapted to a band set.

    Runs from a quarter of the diameter down to 4x the native
    resolution, the window where the set's Cantor structure is actually
    resolved by the approximation.
    """
    lo, hi = b.extent
    eps = (hi - lo) / 4.0
    floor = 4.0 * b.native_resolution
    grid = []
    while eps >= floor and len(grid) < 64:
        grid.append(eps)
        eps *= ratio
    if len(grid) < 5:
        raise ValueError("band set too coarse for a 5-scale grid")
    return grid


def asymptote_check(
    V_list,
    k: int,
    eps_grid=None,
) -> list[dict]:
    """Dimension of the spectrum against the strong-coupling limit.

    For each coupling V >= 16 computes a level-k spectral cover (backing
    off to a smaller level where band widths fall under floating-point
    resolution), estimates its box dimension, and tabulates dim * log V.
    The product approaches log(1 + sqrt(2)) ~ 0.8814 as V grows; no rate
    is known, so callers should treat this as a trend, not a limit.
    """
    from .spectrum import approximant_chain

    rows = []
    for V in V_list:
        V = float(V)
        if V < 16.0:
            raise ValueError("asymptote check requires V >= 16")
        chain = approximant_chain(k + 1, V)
        j = k
        while j > 2:
            cover = chain[j - 1].union(chain[j])
            lo, hi = cover.extent
            ulp = math.ulp(max(abs(lo), abs(hi)))
            if cover.min_width > 100.0 * ulp:
                break
            j -= 1
        cover = chain[j - 1].union(chain[j])
        cover.generation = j
        grid = eps_grid if eps_grid is not None else auto_scale_grid(cover)
        est = box_dimension(cover, grid)
        rows.append(
            {
                "V": V,
                "level": j,
                "dim": est.value,
                "dim_log_V": est.value * math.log(V),
                "residual": est.regression_residual,
            }
        )
    return rows


def cantor_bands(ratio: float, depth: int, maps: int = 2) -> BandSet:
    """Depth-n interval approximation of a self-similar set in [0, 1].

    ``maps`` affine contractions of the given ratio, anchored at equally
    spaced offsets; ratio 1/3 with two maps is the middle-thirds Cantor
    set, with closed-form dimension log(maps) / log(1/ratio).
    """
    if not 0 < ratio < 1.0 / maps:
        raise ValueError("ratio must be in (0, 1/maps)")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    offsets = [i * (1.0 - ratio) / (maps - 1) for i in range(maps)]
    intervals = [(0.0, 1.0)]
    for _ in range(depth):
        intervals = [
            (off + ratio * lo, off + ratio * hi)
            for off in offsets
            for lo, hi in intervals
        ]
    return BandSet(intervals, generation=depth)
