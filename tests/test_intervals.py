import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibtrace.intervals import BandSet, merge_intervals
from fibtrace.spectrum import spectrum_cover


def _merge_reference(pairs, gap_tol):
    """The scalar sweep: extend the last band while lo is within gap_tol."""
    merged = []
    for lo, hi in sorted(pairs):
        if merged and lo <= merged[-1][1] + gap_tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def test_merge_sorts_and_merges():
    merged = merge_intervals([(2.0, 3.0), (0.0, 1.0), (0.5, 1.5)])
    assert merged.shape == (2, 2) and merged.dtype == np.float64
    assert merged.tolist() == [[0.0, 1.5], [2.0, 3.0]]


def test_merge_gap_tolerance():
    assert merge_intervals([(0.0, 1.0), (1.05, 2.0)], gap_tol=0.1).tolist() == [
        [0.0, 2.0]
    ]
    assert merge_intervals([(0.0, 1.0), (1.05, 2.0)], gap_tol=0.01).tolist() == [
        [0.0, 1.0],
        [1.05, 2.0],
    ]


def test_merge_rejects_inverted():
    with pytest.raises(ValueError):
        merge_intervals([(1.0, 0.0)])
    with pytest.raises(ValueError):
        merge_intervals([(0.0, 1.0)], gap_tol=-0.1)


# quarter-integer endpoints and tolerances make touching bands and gaps
# of exactly gap_tol common
_endpoint = st.one_of(st.integers(-40, 40).map(lambda q: q / 4), st.floats(-10, 10))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    pairs=st.lists(st.tuples(_endpoint, _endpoint).map(sorted), max_size=40),
    gap_tol=st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 2.0)),
)
def test_merge_matches_scalar_reference(pairs, gap_tol):
    assert merge_intervals(pairs, gap_tol).tolist() == _merge_reference(pairs, gap_tol)


def test_bandset_properties():
    b = BandSet([(0.0, 1.0), (2.0, 2.25)], generation=3)
    assert len(b) == 2 and bool(b)
    assert b.measure == 1.25
    assert b.min_width == 0.25
    assert b.native_resolution == 1.0  # widest band of a multi-band set
    assert b.extent == (0.0, 2.25)
    assert b.generation == 3
    copy = b.as_array()
    copy[0, 0] = -1.0
    assert b.extent == (0.0, 2.25)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    pairs=st.lists(st.tuples(_endpoint, _endpoint).map(sorted), max_size=40),
    gap_tol=st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 2.0)),
)
def test_merging_a_gap_free_merge_again_is_one_merge(pairs, gap_tol):
    # merging a gap-free merge again at a tolerance must equal one merge at
    # that tolerance, bit for bit
    once = merge_intervals(pairs, gap_tol)
    twice = merge_intervals(merge_intervals(pairs, 0.0), gap_tol)
    assert once.shape == twice.shape
    assert np.array_equal(once.view(np.int64), twice.view(np.int64))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    pairs=st.lists(st.tuples(_endpoint, _endpoint).map(sorted), max_size=40),
    gap_tol=st.one_of(st.sampled_from([0.0, 0.25, 0.5, np.inf]), st.floats(0.0, 2.0)),
)
def test_closing_gaps_is_one_merge(pairs, gap_tol):
    # spectrum_cover and box_dimension close the gaps of a sorted disjoint
    # set in one pass; that must equal one merge at the tolerance, bit for bit
    closed = BandSet(pairs, generation=5).close_gaps(gap_tol)
    merged = merge_intervals(pairs, gap_tol)
    assert closed.generation == 5
    assert closed.intervals.shape == merged.shape
    assert np.array_equal(closed.intervals.view(np.int64), merged.view(np.int64))


def test_close_gaps_rejects_bad_tolerance():
    for gap_tol in (-0.1, np.nan):
        with pytest.raises(ValueError):
            BandSet([(0.0, 1.0)]).close_gaps(gap_tol)


# np.sum's pairwise order gives a different last bit on all but (1, 12)
@pytest.mark.parametrize("coupling, k", [(1.0, 12), (1.0, 8), (0.5, 10), (0.5, 12)])
def test_measure_sums_left_to_right(coupling, k):
    cover = spectrum_cover(coupling, k, 1e-6)
    rows = cover.intervals.tolist()
    assert cover.measure == sum(hi - lo for lo, hi in rows)


def test_single_interval_is_exact():
    assert BandSet([(0.0, 1.0)]).native_resolution == 0.0


def test_contains_and_window():
    b = BandSet([(0.0, 1.0), (2.0, 3.0)])
    assert b.contains(0.5) and not b.contains(1.5)
    assert b.contains(1.05, slack=0.1)
    w = b.intersect_window(0.5, 2.5)
    assert w.intervals.tolist() == [[0.5, 1.0], [2.0, 2.5]]
    assert not b.intersect_window(1.2, 1.8)


def test_union_and_merged():
    a = BandSet([(0.0, 1.0)], generation=1)
    b = BandSet([(1.5, 2.0)], generation=2)
    u = a.union(b)
    assert u.intervals.tolist() == [[0.0, 1.0], [1.5, 2.0]] and u.generation == 2
    assert a.union(b, gap_tol=0.6).intervals.tolist() == [[0.0, 2.0]]


def test_union_merges_once(monkeypatch):
    from fibtrace import intervals

    calls = []

    def counting_merge(ivs, gap_tol=0.0):
        calls.append(gap_tol)
        return merge_intervals(ivs, gap_tol)

    a = BandSet([(0.0, 1.0), (3.0, 4.0)], generation=3)
    b = BandSet([(0.5, 2.0), (2.05, 2.5)], generation=4)
    monkeypatch.setattr(intervals, "merge_intervals", counting_merge)
    u = a.union(b, gap_tol=0.1)
    assert calls == [0.1]
    assert u.intervals.tolist() == [[0.0, 2.5], [3.0, 4.0]] and u.generation == 4
    assert isinstance(u, BandSet) and u.measure == 3.5


def test_separated_bands_are_kept_without_a_merge(monkeypatch):
    from fibtrace import intervals

    calls = []

    def counting_merge(ivs, gap_tol=0.0):
        calls.append(gap_tol)
        return merge_intervals(ivs, gap_tol)

    monkeypatch.setattr(intervals, "merge_intervals", counting_merge)
    given = np.array([[0.0, 1.0], [1.5, 1.5], [2.0, 3.0]])
    kept = BandSet(given)
    assert calls == []
    assert kept.intervals.tobytes() == given.tobytes()
    given[0, 0] = -1.0  # the set holds a copy
    assert kept.intervals[0, 0] == 0.0
    # touching, overlapping or unsorted bands are merged
    assert BandSet([(0.0, 1.0), (1.0, 2.0)]).intervals.tolist() == [[0.0, 2.0]]
    assert BandSet([(0.0, 1.5), (1.0, 2.0)]).intervals.tolist() == [[0.0, 2.0]]
    assert BandSet([(2.0, 3.0), (0.0, 1.0)]).intervals.tolist() == [[0.0, 1.0], [2.0, 3.0]]
    assert calls == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        BandSet([(0.0, 1.0), (3.0, 2.0)])


def test_empty_bandset_raises_on_queries():
    empty = BandSet([])
    assert not empty and empty.intervals.shape == (0, 2)
    assert empty.measure == 0.0
    with pytest.raises(ValueError):
        empty.extent
    with pytest.raises(ValueError):
        empty.min_width
