"""Finite unions of disjoint closed intervals on the energy axis."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BandSet", "merge_intervals"]


def merge_intervals(intervals) -> np.ndarray:
    """Sort intervals and merge the ones that overlap or touch.

    Takes any sequence of (lo, hi) pairs and returns the merged bands as
    a sorted (n, 2) float array.  A pair with hi < lo or a NaN end raises
    ValueError.  ``BandSet.close_gaps`` closes gaps of a given width.
    """
    ivs = np.asarray(intervals, dtype=float).reshape(-1, 2)
    # np.take gathers whole rows far faster than fancy indexing
    ivs = np.take(ivs, np.argsort(ivs[:, 0], kind="stable"), axis=0)
    # a NaN end fails lo <= hi as an inverted interval does
    bad = ~(ivs[:, 0] <= ivs[:, 1])
    if bad.any():
        lo, hi = ivs[bad][0]
        raise ValueError(f"interval has hi < lo or a NaN end: ({lo}, {hi})")
    if not len(ivs):
        return ivs
    # a band starts wherever lo clears everything before it; the running
    # max of hi is the reach of the band being built
    reach = np.maximum.accumulate(ivs[:, 1])
    starts = np.flatnonzero(np.r_[True, ivs[1:, 0] > reach[:-1]])
    return np.column_stack([ivs[starts, 0], np.maximum.reduceat(ivs[:, 1], starts)])


@dataclass
class BandSet:
    """Ordered disjoint closed intervals, e.g. a spectral approximant.

    ``intervals`` takes any sequence of (lo, hi) pairs and holds them as a
    sorted (n, 2) float array.  Pairs given sorted and strictly separated
    (each lo above the hi before it) are kept as a copy, since
    ``merge_intervals`` would return them unchanged; any others are
    merged.  ``generation`` is the level a spectral cover was built from,
    set by ``spectrum.spectrum_cover`` and written to its output; every
    other band set, those the methods below return included, holds 0.
    """

    intervals: np.ndarray = field(default_factory=list)
    generation: int = 0

    def __post_init__(self):
        ivs = np.asarray(self.intervals, dtype=float).reshape(-1, 2)
        lo, hi = ivs.T
        if np.all(lo[1:] > hi[:-1]) and np.all(hi >= lo):
            self.intervals = ivs.copy()
        else:
            self.intervals = merge_intervals(ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    def __bool__(self) -> bool:
        return len(self.intervals) > 0

    @property
    def _widths(self) -> np.ndarray:
        return self.intervals[:, 1] - self.intervals[:, 0]

    @property
    def measure(self) -> float:
        # summed left to right like the builtin, not pairwise like np.sum
        return float(sum(self._widths.tolist()))

    @property
    def min_width(self) -> float:
        """Width of the narrowest band (the set's native resolution)."""
        if not self:
            raise ValueError("empty band set has no bands")
        return float(self._widths.min())

    @property
    def native_resolution(self) -> float:
        """Coarsest unresolved feature: the widest band of a multi-band
        approximation.  Below this scale some bands are themselves
        unresolved and box counts drift toward slope 1.  A single
        interval is exact and reports 0.
        """
        if not self:
            raise ValueError("empty band set has no resolution")
        if len(self) == 1:
            return 0.0
        return float(self._widths.max())

    @property
    def extent(self) -> tuple[float, float]:
        if not self:
            raise ValueError("empty band set has no extent")
        return float(self.intervals[0, 0]), float(self.intervals[-1, 1])

    def union(self, other: "BandSet") -> "BandSet":
        # the merged array is sorted and disjoint, so it is set directly, not
        # merged again by __post_init__; generation keeps its default
        merged = object.__new__(BandSet)
        merged.intervals = merge_intervals(
            np.concatenate([self.intervals, other.intervals])
        )
        return merged

    def close_gaps(self, gap_tol: float) -> "BandSet":
        """The band set with every gap of width <= ``gap_tol`` closed.

        Requires ``intervals`` sorted and disjoint, as ``BandSet`` keeps
        them, so it runs in one pass with no sort.  This is the only way
        to close gaps; ``union`` and ``merge_intervals`` close none.
        """
        if not gap_tol >= 0:
            raise ValueError("gap_tol must be >= 0")
        if not self:
            return BandSet([])
        # a band starts wherever lo clears the previous band's hi by more
        # than gap_tol, and ends at the hi just before the next start
        lo, hi = self.intervals.T
        split = np.flatnonzero(lo[1:] > hi[:-1] + gap_tol)
        kept = np.empty((len(split) + 1, 2))
        kept[0, 0], kept[1:, 0] = lo[0], lo[split + 1]
        kept[:-1, 1], kept[-1, 1] = hi[split], hi[-1]
        closed = object.__new__(BandSet)
        closed.intervals = kept
        return closed

    def intersect_window(self, lo: float, hi: float) -> "BandSet":
        """Restriction to the closed window [lo, hi]."""
        if hi < lo:
            raise ValueError("window has hi < lo")
        a, b = self.intervals.T
        clipped = np.clip(self.intervals[(b >= lo) & (a <= hi)], lo, hi)
        return BandSet(clipped)

    def as_array(self) -> np.ndarray:
        return self.intervals.copy()
