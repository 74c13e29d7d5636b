"""Box-counting dimension estimation for interval approximations.

Counts grid-aligned boxes [j*eps, (j+1)*eps) met by a band set, exactly
from the interval endpoints, and fits the log-log slope over a geometric
scale grid.  For the sets of interest Hausdorff and box dimensions
coincide, so the slope is reported as "the" dimension.

The scales are counted from fine to coarse, each on the set counted at
the scale before with every gap of width <= eps/2 closed.  A gap
narrower than eps holds no whole box, so every box meeting it also
meets a band on one side and closing it leaves N(eps) unchanged; the
factor 1/2 leaves a wide margin over rounding in j*eps.  At coarse
scales the closed set has about N(eps) bands rather than all of them.
A set holding a zero-width band is counted as given.

A count needs no sort.  Box j meets a band when fl(j*eps) < hi and
fl((j+1)*eps) > lo, and fl(j*eps) never decreases in j, so each band
meets one run of boxes j0..j1.  A ``BandSet`` is sorted and its bands
are separated, so j0 and j1 never decrease from one band to the next:
a run can share boxes only with the run just before it, and N(eps) is
the span j1[-1] - j0[0] + 1 less the empty boxes between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectrum
from .intervals import BandSet

__all__ = [
    "DimensionEstimate",
    "asymptote_check",
    "auto_scale_grid",
    "box_count",
    "box_dimension",
    "cantor_bands",
    "local_dimension",
]

#: regression residual above which an estimate should be distrusted
RESIDUAL_FLAG = 0.05


@dataclass
class DimensionEstimate:
    value: float
    regression_residual: float
    counts: list[tuple[float, int]]

    @property
    def flagged(self) -> bool:
        return self.regression_residual > RESIDUAL_FLAG


def box_count(b: BandSet, eps: float) -> int:
    """Number of eps-grid boxes whose interior meets the band set.

    Box j counts iff fl(j*eps) < hi and fl((j+1)*eps) > lo for some
    band, so grid boxes are half-open and anchored at 0: [0, 1] at
    eps = 0.1 occupies exactly 10 boxes.  A zero-width band counts the
    single box holding the point, the least j with fl((j+1)*eps) > lo.

    Both tests are monotone in j, so band i meets the boxes j0[i]..j1[i],
    j0 the least j passing the second and j1 the greatest passing the
    first.  The bands are sorted and separated, so j0 and j1 never
    decrease and the count is one pass with no sort: the span
    j1[-1] - j0[0] + 1 less the boxes between consecutive runs.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if not b:
        raise ValueError("empty band set has no box count")
    lo, hi = b.intervals.T
    if max(map(abs, b.extent)) / eps >= 2.0**53:
        raise ValueError(f"eps = {eps:g} puts box indices past 2^53, "
                         "where float64 no longer holds them exactly")
    # below 2^53 the rounded quotients are at most one box off, and one
    # step either way settles j0 and j1 exactly
    j0 = np.floor(lo / eps)
    j0 -= j0 * eps > lo
    j0 += (j0 + 1) * eps <= lo
    j1 = np.ceil(hi / eps) - 1
    j1 += (j1 + 1) * eps < hi
    j1 -= j1 * eps >= hi
    # a zero-width band ends with j1 = j0 - 1 or j0, and counts box j0;
    # integers keep the span and the sums exact past 2^53 boxes
    j0 = j0.astype(np.int64)
    j1 = np.maximum(j1, j0).astype(np.int64)
    missed = np.maximum(j0[1:] - j1[:-1] - 1, 0).sum()
    return int(j1[-1] - j0[0] + 1 - missed)


def box_dimension(b: BandSet, eps_grid) -> DimensionEstimate:
    """Least-squares slope of log N(eps) against log(1/eps).

    The scale grid must be geometric with ratio <= 1/2, hold at least 5
    scales, and stay a factor 4 above the band set's narrowest interval;
    below that the finite approximation dominates and the slope drifts
    toward 1.

    The scales are counted from fine to coarse, each on the set counted
    at the scale before with every gap of width <= eps/2 closed
    (``BandSet.close_gaps``).  A gap narrower than eps holds no whole
    grid box, so every box that meets it also meets a band beside it and
    N(eps) is unchanged, while at coarse scales the closed set has about
    N(eps) bands instead of all of them.
    """
    eps = sorted(float(e) for e in eps_grid)
    bad = [e for e in eps if not 0 < e < math.inf]
    if bad:
        raise ValueError(f"scales must be finite and > 0, got {bad[0]}")
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
    # a zero-width band on a grid line counts the box to its right, which
    # a band closed up to it would not, so sets with points are not closed
    close = b.min_width > 0
    counts = []
    for e in usable:
        if close:
            b = b.close_gaps(0.5 * e)
        counts.append((e, box_count(b, e)))
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


def auto_scale_grid(b: BandSet) -> list[float]:
    """Geometric scale grid of ratio 1/2 adapted to a band set.

    Runs from a quarter of the diameter down to 4x the native
    resolution, the window where the set's Cantor structure is actually
    resolved by the approximation, and no lower than 2^-52 of the
    largest |edge|, about its float64 spacing, where box indices stay
    below 2^52.  A single band has native resolution 0 and stops there.
    """
    lo, hi = b.extent
    eps = (hi - lo) / 4.0
    floor = max(4.0 * b.native_resolution,
                np.finfo(float).eps * max(abs(lo), abs(hi)))
    grid = []
    while eps >= floor and len(grid) < 64:
        grid.append(eps)
        eps *= 0.5
    if len(grid) < 5:
        raise ValueError("band set too coarse for a 5-scale grid")
    return grid


def asymptote_check(V_list, k: int) -> list[dict]:
    """Dimension of the spectrum against the strong-coupling limit.

    For each coupling V >= 16 takes the gap-free spectral cover of
    ``spectrum.spectrum_cover``, which backs off from level k to the
    deepest level pair float64 resolves, estimates its box dimension,
    and tabulates dim * log V with the level used.  The product
    approaches log(1 + sqrt(2)) ~ 0.8814 as V grows; no rate is known,
    so callers should treat this as a trend, not a limit.
    """
    rows = []
    for V in V_list:
        V = float(V)
        if V < 16.0:
            raise ValueError("asymptote check requires V >= 16")
        cover = spectrum.spectrum_cover(V, k, 0.0)
        est = box_dimension(cover, auto_scale_grid(cover))
        rows.append(
            {
                "V": V,
                "level": cover.generation,
                "dim": est.value,
                "dim_log_V": est.value * math.log(V),
                "residual": est.regression_residual,
                "flagged": est.flagged,
            }
        )
    return rows


def cantor_bands(ratio: float, depth: int) -> BandSet:
    """Depth-n interval approximation of a self-similar set in [0, 1].

    Two affine contractions of the given ratio, anchored at 0 and
    1 - ratio; ratio 1/3 is the middle-thirds Cantor set, and every
    ratio gives the closed-form dimension log 2 / log(1/ratio).
    """
    if not 0 < ratio < 0.5:
        raise ValueError("ratio must be in (0, 1/2)")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    offsets = np.array([0.0, 1.0 - ratio])
    intervals = np.array([[0.0, 1.0]])
    for _ in range(depth):
        intervals = (offsets[:, None, None] + ratio * intervals).reshape(-1, 2)
    return BandSet(intervals)
