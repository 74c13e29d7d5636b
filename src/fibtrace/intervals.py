"""Finite unions of disjoint closed intervals on the energy axis."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BandSet", "merge_intervals"]


def merge_intervals(intervals, gap_tol: float = 0.0) -> np.ndarray:
    """Sort intervals and merge overlaps and gaps narrower than ``gap_tol``.

    Takes any sequence of (lo, hi) pairs and returns the merged bands as
    a sorted (n, 2) float array.
    """
    if not gap_tol >= 0:
        raise ValueError("gap_tol must be >= 0")
    ivs = np.asarray(intervals, dtype=float).reshape(-1, 2)
    # np.take gathers whole rows far faster than fancy indexing
    ivs = np.take(ivs, np.argsort(ivs[:, 0], kind="stable"), axis=0)
    inverted = ivs[:, 1] < ivs[:, 0]
    if inverted.any():
        lo, hi = ivs[inverted][0]
        raise ValueError(f"interval has hi < lo: ({lo}, {hi})")
    if not len(ivs):
        return ivs
    # a band starts wherever lo clears everything before it by more than
    # gap_tol; with gap_tol >= 0 the running max of hi is the reach of the
    # band being built
    reach = np.maximum.accumulate(ivs[:, 1])
    starts = np.flatnonzero(np.r_[True, ivs[1:, 0] > reach[:-1] + gap_tol])
    return np.column_stack([ivs[starts, 0], np.maximum.reduceat(ivs[:, 1], starts)])


@dataclass
class BandSet:
    """Ordered disjoint closed intervals, e.g. a spectral approximant.

    ``intervals`` takes any sequence of (lo, hi) pairs and holds them as a
    sorted (n, 2) float array.  Pairs given sorted and strictly separated
    (each lo above the hi before it) are kept as a copy, since
    ``merge_intervals`` would return them unchanged; any others are
    merged.  ``generation`` records the approximant index or refinement
    depth the set came from; it is carried through serialization but not
    used in set arithmetic.
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

    def contains(self, e: float, slack: float = 0.0) -> bool:
        lo, hi = self.intervals.T
        return bool(np.any((lo - slack <= e) & (e <= hi + slack)))

    def union(self, other: "BandSet", gap_tol: float = 0.0) -> "BandSet":
        # the merged array is already sorted and disjoint, so it is set
        # directly rather than merged again by __post_init__
        merged = object.__new__(BandSet)
        merged.intervals = merge_intervals(
            np.concatenate([self.intervals, other.intervals]), gap_tol
        )
        merged.generation = max(self.generation, other.generation)
        return merged

    def close_gaps(self, gap_tol: float) -> "BandSet":
        """The band set with every gap of width <= ``gap_tol`` closed.

        Requires ``intervals`` sorted and disjoint, as ``BandSet`` keeps
        them, so it runs in one pass with no sort.  The bands equal
        ``merge_intervals(self.intervals, gap_tol)`` bit for bit.
        """
        if not gap_tol >= 0:
            raise ValueError("gap_tol must be >= 0")
        if not self:
            return BandSet([], generation=self.generation)
        # a band starts wherever lo clears the previous band's hi by more
        # than gap_tol, and ends at the hi just before the next start
        lo, hi = self.intervals.T
        split = lo[1:] > hi[:-1] + gap_tol
        closed = object.__new__(BandSet)
        closed.intervals = np.column_stack(
            [lo[np.r_[True, split]], hi[np.r_[split, True]]]
        )
        closed.generation = self.generation
        return closed

    def intersect_window(self, lo: float, hi: float) -> "BandSet":
        """Restriction to the closed window [lo, hi]."""
        if hi < lo:
            raise ValueError("window has hi < lo")
        a, b = self.intervals.T
        clipped = np.clip(self.intervals[(b >= lo) & (a <= hi)], lo, hi)
        return BandSet(clipped, generation=self.generation)

    def as_array(self) -> np.ndarray:
        return self.intervals.copy()
