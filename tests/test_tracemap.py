import numpy as np
import pytest

from fibtrace.spectrum import trace_sequence
from fibtrace.tracemap import (
    PER2_POLE_BAND,
    fricke,
    per2_point,
    singular_points,
    surface_points,
    trace_orbit,
    trace_step,
)
from oracles import on_surface, singular_orbit, trace_step_inv


def test_forward_then_inverse_is_identity():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, size=(200, 3))
    back = trace_step_inv(trace_step(pts))
    assert np.allclose(back, pts, atol=1e-12)


def test_fricke_is_conserved():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-10, 10, size=(5000, 3))
    g0 = fricke(pts)
    g1 = fricke(trace_step(pts))
    assert np.all(np.abs(g1 - g0) <= 1e-9 * (1.0 + np.abs(g0)))


def test_fricke_conserved_by_inverse_too():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-10, 10, size=(1000, 3))
    assert np.allclose(fricke(trace_step_inv(pts)), fricke(pts), rtol=1e-9,
                       atol=1e-9)


def test_line_point_lies_on_surface():
    # the half-traces start from the line point (x_1, x_0, x_{-1}) =
    # ((E - V)/2, E/2, 1), which has G = V^2/4 for every energy
    E = np.linspace(-5, 5, 21)
    for V in (0.0, 0.5, 1.0, 4.0):
        x = trace_sequence(E, V, 1)
        assert np.all(on_surface(np.stack([x[2], x[1], x[0]], axis=-1), V))


def test_per2_point_is_period_two():
    for x in (-2.0, -0.3, 0.49, 0.51, 0.9, 3.0):
        p = per2_point(x)
        q = trace_step(trace_step(p))
        assert np.allclose(q, p, atol=1e-10)


def test_per2_pole_is_rejected():
    with pytest.raises(ValueError):
        per2_point(0.5)
    with pytest.raises(ValueError):
        per2_point(0.5 + 0.5 * PER2_POLE_BAND)
    per2_point(0.5 + 2.0 * PER2_POLE_BAND)  # just outside the band is fine


def test_per2_point_takes_an_array():
    xs = np.array([-2.0, -0.3, 0.49, 0.51, 0.9, 3.0])
    pts = per2_point(xs)
    assert per2_point(0.9).shape == (3,) and pts.shape == (6, 3)
    assert np.array_equal(pts, np.stack([per2_point(x) for x in xs]))
    for bad in (0.5 + 0.5 * PER2_POLE_BAND, np.nan, np.inf):
        with pytest.raises(ValueError):
            per2_point(np.append(xs, bad))


def test_singular_orbit_structure():
    orbit = singular_orbit()
    pts = orbit["points"]
    p1 = pts[orbit["fixed"][0]]
    assert np.array_equal(trace_step(p1), p1)
    cyc = orbit["cycle"]
    for i, j in zip(cyc, cyc[1:] + cyc[:1]):
        assert np.array_equal(trace_step(pts[i]), pts[j])
    # all four are genuine points of S_0
    assert np.allclose(fricke(pts), 0.0, atol=1e-15)


def test_singular_points_shape():
    assert singular_points().shape == (4, 3)


def test_surface_points_keeps_only_real_nodes():
    # at V=0 the region |x|<1, |y|>1 (and vice versa) has no real sheet
    u = np.linspace(-2.0, 2.0, 81)
    xx, yy = np.meshgrid(u, u, indexing="ij")
    x, y, z = surface_points(0.0, xx, yy)
    real = (xx * xx - 1.0) * (yy * yy - 1.0) >= 0.0
    assert 0 < real.sum() < real.size
    half = len(x) // 2
    for col, grid in ((x, xx), (y, yy)):
        assert np.array_equal(col[:half], grid[real])
        assert np.array_equal(col[half:], grid[real])
    assert np.all(z[:half] >= z[half:])
    assert np.all(on_surface(np.stack([x, y, z], axis=-1), 0.0, tol=1e-9))


def test_nonfinite_points_rejected():
    with pytest.raises(ValueError):
        trace_step([1.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        fricke([np.inf, 0.0, 0.0])


@pytest.mark.parametrize("backward", [False, True])
def test_trace_orbit_matches_iterated_steps_bit_for_bit(backward):
    pts = np.random.default_rng(3).uniform(-1.5, 1.5, size=(500, 3))
    x, y, z = pts.T
    n = 12
    s = trace_orbit(x, y, z, n) if backward else trace_orbit(z, y, x, n)
    assert s.shape == (n + 3, len(pts))
    q = pts
    for k in range(n + 1):
        window = s[k:k + 3].T
        assert np.array_equal(window if backward else window[:, ::-1], q)
        q = trace_step_inv(q) if backward else trace_step(q)


@pytest.mark.filterwarnings("error")
def test_escaping_orbits_run_to_inf_or_nan_without_warnings():
    # from (3, 3, 3) the orbit grows doubly exponentially, overflows at
    # s_15 and turns to NaN at s_18 (inf - inf); (1, 1, 1) is fixed
    start = np.array([3.0, 1.0])
    s = trace_orbit(start, start, start, 40)
    assert np.all(np.isfinite(s[:15, 0]))
    assert np.all(np.isinf(s[15:18, 0])) and np.all(np.isnan(s[18:, 0]))
    assert np.all(s[:, 1] == 1.0)


def test_trace_orbit_broadcasts_its_starts_and_checks_n():
    assert trace_orbit(1.0, 2.0, 3.0, 0).tolist() == [1.0, 2.0, 3.0]
    assert trace_orbit(1.0, np.zeros((2, 4)), 0.5, 5).shape == (8, 2, 4)
    with pytest.raises(ValueError, match="n must be >= 0"):
        trace_orbit(1.0, 2.0, 3.0, -1)
