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


def _invert_semiconj_broadcast(p):
    """The earlier formulation: the four sign choices by np.mod on a
    broadcast leading axis, picked by take_along_axis."""
    p = np.asarray(p, dtype=float)
    y = np.clip(p[..., 1], -1.0, 1.0)
    z = np.clip(p[..., 2], -1.0, 1.0)
    tau = 2.0 * np.pi
    t0 = np.stack([np.arccos(y) / tau, np.arccos(z) / tau], axis=-1)
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    cand = np.mod(signs.reshape((4,) + (1,) * (t0.ndim - 1) + (2,)) * t0, 1.0)
    err = np.abs(np.cos(tau * (cand[..., 0] + cand[..., 1])) - p[..., 0])
    pick = np.argmin(err, axis=0)
    return np.take_along_axis(cand, pick[None, ..., None], axis=0)[0]


def test_invert_semiconj_matches_the_broadcast_formulation():
    rng = np.random.default_rng(10)
    p = rng.uniform(-1.3, 1.3, size=(30000, 3))
    # y or z at +-1 (theta or phi 0 or 1/2), past it (clamped), and both:
    # there candidates tie exactly, and the first must be kept
    p[::5, 1] = rng.choice([-1.0, 1.0, -1.5, 1.5], len(p[::5]))
    p[::7, 2] = rng.choice([-1.0, 1.0, -1.5, 1.5], len(p[::7]))
    edge = np.array([[x, y, z] for x in (-1.0, 0.0, 1.0)
                     for y in (-1.0, 1.0) for z in (-1.0, 0.0, 1.0)])
    ties = torus.semiconj(np.array([[0.0, 0.3], [0.3, 0.0], [0.5, 0.2],
                                    [0.2, 0.5], [0.0, 0.5], [0.5, 0.5]]))
    for pts in (p, edge, ties, p[:24].reshape(2, 3, 4, 3), p[0]):
        got, want = torus.invert_semiconj(pts), _invert_semiconj_broadcast(pts)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the tie rows do tie: a candidate after the first is as good
    th, ph = np.arccos(ties[:, 1]) / (2 * np.pi), np.arccos(ties[:, 2]) / (2 * np.pi)
    assert np.all((th == 0.0) | (th == 0.5) | (ph == 0.0) | (ph == 0.5))


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
