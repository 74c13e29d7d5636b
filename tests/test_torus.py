import numpy as np
import pytest

from fibtrace import torus
from fibtrace.tracemap import fricke


def test_eigen_data_exact():
    mu, v_u, v_s = torus.MU, torus.V_U, torus.V_S
    assert abs(mu - (1 + np.sqrt(5)) / 2) < 1e-15
    assert np.allclose(torus.TORUS_MATRIX @ v_u, mu * v_u, atol=1e-14)
    assert np.allclose(torus.TORUS_MATRIX @ v_s, -(1 / mu) * v_s, atol=1e-14)
    assert np.allclose([v_u @ v_u, v_s @ v_s], 1.0, atol=1e-15)  # unit vectors
    assert abs(v_u @ v_s) < 1e-15  # orthogonal eigenbasis


def test_torus_auto_inverse():
    rng = np.random.default_rng(3)
    t = rng.uniform(0, 1, size=(500, 2))
    # the inverse matrix [[0, 1], [1, -1]] undoes one step
    u = torus.torus_auto(t)
    back = np.stack([u[:, 1], u[:, 0] - u[:, 1]], axis=-1)
    assert np.allclose(np.mod(back - t + 0.5, 1.0) - 0.5, 0.0, atol=1e-12)


def test_semiconj_image_on_s0():
    rng = np.random.default_rng(4)
    t = rng.uniform(0, 1, size=(2000, 2))
    assert np.max(np.abs(fricke(torus.semiconj(t)))) < 1e-12


def test_semiconjugacy_defect_small():
    assert torus.check_semiconjugacy(128) <= 1e-10


def test_check_semiconjugacy_validates_grid():
    with pytest.raises(ValueError):
        torus.check_semiconjugacy(1)


def test_invert_semiconj_roundtrip():
    rng = np.random.default_rng(5)
    t = rng.uniform(0, 1, size=(400, 2))
    p = torus.semiconj(t)
    back = torus.semiconj(torus.invert_semiconj(p))
    assert np.allclose(back, p, atol=1e-9)


def _invert_semiconj_loop(p):
    """The four sign choices tried one at a time, the first best kept."""
    p = np.asarray(p, dtype=float)
    tau = 2.0 * np.pi
    th0 = np.arccos(np.clip(p[..., 1], -1.0, 1.0)) / tau
    ph0 = np.arccos(np.clip(p[..., 2], -1.0, 1.0)) / tau
    best = best_err = None
    for sth in (1.0, -1.0):
        for sph in (1.0, -1.0):
            th, ph = np.mod(sth * th0, 1.0), np.mod(sph * ph0, 1.0)
            err = np.abs(np.cos(tau * (th + ph)) - p[..., 0])
            cand = np.stack([th, ph], axis=-1)
            if best is None:
                best, best_err = cand, err
            else:
                take = err < best_err
                best = np.where(take[..., None], cand, best)
                best_err = np.minimum(err, best_err)
    return best


def test_invert_semiconj_matches_the_candidate_loop():
    rng = np.random.default_rng(9)
    # off-surface points, S_0 images, exact ties at theta or phi = 0, 1/2,
    # and a single point and a 2-d batch for the shapes
    points = [
        rng.uniform(-1.2, 1.2, size=(5000, 3)),
        torus.semiconj(rng.uniform(0, 1, size=(2000, 2))),
        torus.semiconj(np.array([[0.0, 0.0], [0.5, 0.25], [0.25, 0.5], [0.5, 0.5]])),
        np.array([0.3, -0.2, 0.9]),
        rng.uniform(-1.0, 1.0, size=(7, 5, 3)),
    ]
    for p in points:
        got, want = torus.invert_semiconj(p), _invert_semiconj_loop(p)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_df_semiconj_matches_finite_differences():
    rng = np.random.default_rng(6)
    h = 1e-7
    for t in rng.uniform(0, 1, size=(20, 2)):
        jac = torus.df_semiconj(t)
        for j in range(2):
            dt = np.zeros(2)
            dt[j] = h
            fd = (torus.semiconj(t + dt) - torus.semiconj(t - dt)) / (2 * h)
            assert np.allclose(jac[:, j], fd, atol=1e-6)
