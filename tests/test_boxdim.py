import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibtrace import boxdim, spectrum
from fibtrace.intervals import BandSet, merge_intervals


def _boxes_reference(b: BandSet, eps: float) -> int:
    """Enumerate the boxes each band meets and count the distinct ones."""
    boxes = set()
    for lo, hi in b.intervals.tolist():
        if hi > lo:
            boxes.update(
                j
                for j in range(math.floor(lo / eps) - 2, math.ceil(hi / eps) + 2)
                if j * eps < hi and (j + 1) * eps > lo
            )
        else:
            boxes.add(math.floor(lo / eps))
    return len(boxes)


# an endpoint (k + q/4) * eps: on a grid line when q = 0, otherwise a
# quarter or more of a box away from one
_grid_point = st.tuples(st.integers(-40, 40), st.integers(0, 3))


def test_box_count_conventions():
    unit = BandSet([(0.0, 1.0)])
    assert boxdim.box_count(unit, 0.1) == 10
    assert boxdim.box_count(unit, 1.0) == 1
    # a point counts one box
    assert boxdim.box_count(BandSet([(0.3, 0.3)]), 0.1) == 1
    # touching a grid line from outside does not add a box
    assert boxdim.box_count(BandSet([(0.1, 0.2)]), 0.1) == 1


def test_box_count_merges_shared_boxes():
    b = BandSet([(0.01, 0.02), (0.08, 0.09)])  # both inside box 0
    assert boxdim.box_count(b, 0.1) == 1


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    eps=st.floats(1e-3, 10.0),
    cells=st.lists(
        st.tuples(_grid_point, _grid_point).map(sorted), min_size=1, max_size=30
    ),
)
def test_box_count_matches_enumeration(eps, cells):
    b = BandSet(
        [((k0 + q0 / 4) * eps, (k1 + q1 / 4) * eps) for (k0, q0), (k1, q1) in cells]
    )
    count = boxdim.box_count(b, eps)
    assert type(count) is int and count == _boxes_reference(b, eps)


def test_box_count_rejects_bad_input():
    with pytest.raises(ValueError):
        boxdim.box_count(BandSet([(0.0, 1.0)]), 0.0)
    with pytest.raises(ValueError):
        boxdim.box_count(BandSet([]), 0.1)


def test_box_count_refuses_indices_past_2_53():
    # |edge| / eps = 2^53 leaves the integers float64 holds exactly
    two = BandSet([(-2.0, 1.0)])
    assert boxdim.box_count(two, 2.0**-51) == 3 * 2**51
    with pytest.raises(ValueError, match="eps = "):
        boxdim.box_count(two, 2.0**-52)


def test_single_band_grid_stops_at_the_float_spacing():
    # one band has native resolution 0, so only the float spacing ends its grid
    band = BandSet([(-2.0, 2.0)])
    grid = boxdim.auto_scale_grid(band)
    assert grid[-1] >= 2.0 * np.finfo(float).eps > 0.5 * grid[-1]
    est = boxdim.box_dimension(band, grid)
    assert est.value == pytest.approx(1.0, abs=1e-12) and not est.flagged


def test_unit_interval_has_dimension_one():
    est = boxdim.box_dimension(
        BandSet([(0.0, 1.0)]), boxdim.geometric_scales(0.25, n=8)
    )
    assert abs(est.value - 1.0) < 0.01
    assert not est.flagged


def test_cantor_middle_thirds():
    bands = boxdim.cantor_bands(1.0 / 3.0, 10)
    # shift keeps construction endpoints off the counting lattice
    shifted = BandSet(
        [(lo + 1.0 / 7.0, hi + 1.0 / 7.0) for lo, hi in bands.intervals]
    )
    grid = boxdim.geometric_scales(1.0 / 3.0, ratio=1.0 / 3.0, n=8)
    est = boxdim.box_dimension(shifted, grid)
    assert abs(est.value - math.log(2) / math.log(3)) < 0.02
    # the generic binary grid oscillates but stays in range
    loose = boxdim.box_dimension(bands, boxdim.auto_scale_grid(bands))
    assert abs(loose.value - math.log(2) / math.log(3)) < 0.05


def test_cantor_quarter_ratio():
    bands = boxdim.cantor_bands(0.25, 10)
    est = boxdim.box_dimension(bands, boxdim.auto_scale_grid(bands))
    assert abs(est.value - 0.5) < 0.02


def test_scale_grid_validation():
    b = boxdim.cantor_bands(1.0 / 3.0, 8)
    with pytest.raises(ValueError):
        boxdim.box_dimension(b, [0.1, 0.09, 0.08, 0.07, 0.06])  # not geometric
    with pytest.raises(ValueError):
        boxdim.box_dimension(b, [0.1, 0.05, 0.025])  # too few scales
    with pytest.raises(ValueError):
        # all scales below the resolution floor
        boxdim.box_dimension(b, boxdim.geometric_scales(1e-7, n=5))
    with pytest.raises(ValueError):
        boxdim.geometric_scales(0.1, ratio=0.7)


def test_local_dimension_window():
    b = boxdim.cantor_bands(1.0 / 3.0, 10)
    est = boxdim.local_dimension(b, (0.0, 1.0 / 3.0), boxdim.auto_scale_grid(b))
    assert abs(est.value - math.log(2) / math.log(3)) < 0.05
    with pytest.raises(ValueError):
        boxdim.local_dimension(b, (0.4, 0.45), boxdim.auto_scale_grid(b))


def test_residual_flag():
    est = boxdim.DimensionEstimate(
        value=0.5, scale_range=(0.1, 0.01), regression_residual=0.2, counts=[]
    )
    assert est.flagged


def test_cantor_bands_validation():
    with pytest.raises(ValueError):
        boxdim.cantor_bands(0.6, 3)
    with pytest.raises(ValueError):
        boxdim.cantor_bands(0.3, -1)
    # three maps of ratio 1/5: dimension log 3 / log 5
    b = boxdim.cantor_bands(0.2, 8, maps=3)
    est = boxdim.box_dimension(b, boxdim.auto_scale_grid(b))
    assert abs(est.value - math.log(3) / math.log(5)) < 0.03


BELOW_HALF = float(np.nextafter(0.5, 0.0))
BELOW_THIRD = float(np.nextafter(1.0 / 3.0, 0.0))

# the dimension benchmark's six Cantor oracles, then ratios up to the
# largest double below 1 / maps
CANTOR_CASES = (
    [(ratio, depth, 2) for ratio, depth in ((0.2, 16), (0.25, 15), (0.3, 14),
                                            (1.0 / 3.0, 16), (0.35, 15), (0.4, 14))]
    + [(ratio, depth, 2)
       for ratio in (0.01, 0.1, 0.25, 0.45, 0.49, 0.499, 0.4999, 0.499999999999, BELOW_HALF)
       for depth in (0, 1, 5, 10, 16)]
    + [(ratio, depth, 3)
       for ratio in (0.01, 0.1, 0.3, 0.33, 0.333, 0.333333333333, BELOW_THIRD)
       for depth in (0, 1, 4, 9)]
)

# cases whose bands float64 cannot keep strictly apart: at ratio 0.01 the
# deep levels are narrower than the spacing of doubles, and next to
# 1 / maps the gaps round away; BandSet merges these
CANTOR_UNSEPARATED = {
    (0.01, 10, 2), (0.01, 16, 2), (0.499999999999, 16, 2),
    (BELOW_HALF, 5, 2), (BELOW_HALF, 10, 2), (BELOW_HALF, 16, 2),
    (0.01, 9, 3), (0.333333333333, 9, 3), (BELOW_THIRD, 4, 3), (BELOW_THIRD, 9, 3),
}


def test_cantor_bands_are_their_own_merge():
    # BandSet keeps the construction's intervals unmerged exactly when
    # they are strictly separated; either way they must equal their own
    # merge bit for bit
    unseparated = set()
    for ratio, depth, maps in CANTOR_CASES:
        b = boxdim.cantor_bands(ratio, depth, maps)
        merged = merge_intervals(b.intervals)
        assert b.intervals.shape == merged.shape
        assert b.intervals.tobytes() == merged.tobytes()
        if len(b) < maps**depth:
            unseparated.add((ratio, depth, maps))
    assert unseparated == CANTOR_UNSEPARATED


def test_asymptote_check_requires_large_coupling():
    with pytest.raises(ValueError):
        boxdim.asymptote_check([8.0], 8)


def test_asymptote_check_single_value():
    rows = boxdim.asymptote_check([16.0], 8)
    assert len(rows) == 1
    r = rows[0]
    assert 0.5 < r["dim_log_V"] < 1.3
    assert r["level"] <= 8 and np.isfinite(r["residual"])


def test_sweep_levels_back_off_with_coupling():
    # the cover backs off where float64 stops resolving level 11's bands
    rows = boxdim.asymptote_check([16.0, 32.0, 64.0, 128.0], 10)
    assert [r["level"] for r in rows] == [10, 10, 9, 8]


# a gap of half a box at scale i, one ulp either side of that, or a whole box
_gap = st.tuples(
    st.integers(0, 6), st.sampled_from(["half", "below half", "above half", "box"])
)
# a band of width q/32 of the finest scale (q = 0 is a point) that follows
# the band before it by a gap, or starts or ends on a grid line of scale i
_band = st.tuples(
    st.sampled_from(["after gap", "starts on grid", "ends on grid"]),
    _gap,
    st.integers(0, 4),
)


def _gap_width(eps: float, kind: str) -> float:
    half = 0.5 * eps
    return {
        "half": half,
        "below half": np.nextafter(half, 0.0),
        "above half": np.nextafter(half, np.inf),
        "box": eps,
    }[kind]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    eps_max=st.floats(1e-3, 10.0),
    n=st.integers(5, 7),
    start=_grid_point,
    bands=st.lists(_band, min_size=1, max_size=30),
)
def test_gap_closed_counts_equal_counts_of_the_set(eps_max, n, start, bands):
    grid = boxdim.geometric_scales(eps_max, n=n)
    finest = grid[-1]
    # every band is at most an eighth of the finest scale wide, so all
    # scales stay above 4x the native resolution
    (k, q), pairs = start, []
    for how, (i, kind), q_width in bands:
        eps, width = grid[min(i, n - 1)], q_width / 32 * finest
        if not pairs:
            lo = (k + q / 4) * finest
        elif how == "after gap":
            lo = pairs[-1][1] + _gap_width(eps, kind)
        elif how == "starts on grid":
            lo = (math.floor(pairs[-1][1] / eps) + 1) * eps
        else:
            hi = (math.floor((pairs[-1][1] + width) / eps) + 1) * eps
            pairs.append((hi - width, hi))
            continue
        pairs.append((lo, lo + width))
    b = BandSet(pairs)
    est = boxdim.box_dimension(b, grid)
    assert est.counts == [(e, boxdim.box_count(b, e)) for e in sorted(grid)]


def test_a_point_on_a_grid_line_keeps_its_box():
    # the point at 0.2 counts box [0.2, 0.3); closing the gap of 0.02 < eps/2
    # before it would end the band at 0.2 and lose that box
    b = BandSet([(0.17, 0.18), (0.2, 0.2)])
    grid = boxdim.geometric_scales(0.8, n=5)
    est = boxdim.box_dimension(b, grid)
    assert est.counts == [(e, boxdim.box_count(b, e)) for e in sorted(grid)]
    assert dict(est.counts)[0.1] == 2


# the dimension benchmark's Cantor oracles and spectral covers
@pytest.mark.parametrize(
    "make, args",
    [(boxdim.cantor_bands, (ratio, depth))
     for ratio, depth in ((0.2, 16), (0.25, 15), (0.3, 14), (1.0 / 3.0, 16),
                          (0.35, 15), (0.4, 14))]
    + [(spectrum.spectrum_cover, (V, 11, 1e-7)) for V in (2.0, 6.0, 8.0, 12.0)],
)
def test_gap_closed_counts_on_benchmark_sets(make, args):
    b = make(*args)
    grid = boxdim.auto_scale_grid(b)
    est = boxdim.box_dimension(b, grid)
    assert est.counts == [(e, boxdim.box_count(b, e)) for e in sorted(grid)]
