import numpy as np
import pytest

from fibtrace.tracemap import (
    PER2_POLE_BAND,
    fricke,
    line_point,
    on_surface,
    per2_point,
    singular_orbit,
    singular_points,
    surface_mesh,
    trace_step,
    trace_step_inv,
)


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
    for V in (0.0, 0.5, 1.0, 4.0):
        for E in np.linspace(-5, 5, 21):
            assert on_surface(line_point(E, V), V)


def test_line_point_rejects_bad_input():
    with pytest.raises(ValueError):
        line_point(np.inf, 1.0)
    with pytest.raises(ValueError):
        line_point(0.0, -1.0)


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


def test_surface_mesh_points_lie_on_surface():
    mesh = surface_mesh(0.01, resolution=41)
    pts = mesh.points()
    assert len(pts) > 0
    assert np.all(on_surface(pts[:, :3], 0.01, tol=1e-9))
    assert set(np.unique(pts[:, 3])) <= {-1.0, 1.0}


def test_surface_mesh_validity_mask():
    mesh = surface_mesh(0.0, x_range=(-2, 2), y_range=(-2, 2), resolution=81)
    # at V=0 the region |x|<1, |y|>1 (and vice versa) has no real sheet
    assert not mesh.valid.all()
    assert mesh.valid.any()
    assert np.isnan(mesh.z_plus[~mesh.valid]).all()


def test_surface_mesh_rejects_bad_args():
    with pytest.raises(ValueError):
        surface_mesh(-1.0)
    with pytest.raises(ValueError):
        surface_mesh(1.0, resolution=1)
    with pytest.raises(ValueError):
        surface_mesh(1.0, x_range=(0.0, np.inf))


def test_nonfinite_points_rejected():
    with pytest.raises(ValueError):
        trace_step([1.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        fricke([np.inf, 0.0, 0.0])
