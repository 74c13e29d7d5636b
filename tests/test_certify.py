import numpy as np
import pytest

from fibtrace import certify

MU = (1 + np.sqrt(5)) / 2


def test_singular_eigenvalues_exact():
    e = certify.singular_eigen()
    expected = np.array([(3 + np.sqrt(5)) / 2, -1.0, (3 - np.sqrt(5)) / 2])
    assert np.allclose(e.eigenvalues, expected, atol=1e-10)
    assert abs(e.eigenvalues[0] - MU**2) < 1e-10
    # eigenvectors actually diagonalize the matrix
    for val, vec in zip(e.eigenvalues, e.eigenvectors.T):
        assert np.allclose(e.matrix @ vec, val * vec, atol=1e-12)


def test_cone_membership():
    assert certify.cone_member_3d([0.0, 0.0, 1.0], 0.5, 1.0)
    assert not certify.cone_member_3d([1.0, 0.0, 0.1], 0.5, 1.0)
    # boundary is inside
    z_p = 0.25
    assert certify.cone_member_3d([1.0, 0.0, np.sqrt(z_p)], z_p, 1.0)
    with pytest.raises(ValueError):
        certify.cone_member_3d(np.zeros(3), 0.5, 1.0)
    with pytest.raises(ValueError):
        certify.cone_member_3d([0, 0, 1], 0.5, 0.0)


def test_model_map_audit_and_plane_invariance():
    m = certify.make_model_map(delta=1e-3, seed=0)
    rep = m.audit(samples=2000, rng=1)
    assert rep["df_ok"] and rep["plane_invariant"]
    p = np.array([0.3, -0.7, 0.0])
    assert m(p)[2] == 0.0


def test_model_map_rejects_bad_params():
    with pytest.raises(ValueError):
        certify.make_model_map(lam=0.9)
    with pytest.raises(ValueError):
        certify.make_model_map(delta=-1e-3)


def test_linear_map_certificate_exact():
    m = certify.ModelMap(lam=certify.LAMBDA_BIG, delta=0.0, c1=1.0)
    z0 = certify.LAMBDA_BIG ** (-30)
    p = np.array([0.1, 0.2, z0])
    v = np.array([1.0, 0.0, np.sqrt(z0)]) / np.sqrt(1 + z0)
    rep = certify.expansion_certificate(m, p, v)
    assert rep.status == "ok"
    assert rep.all_ok
    # z grows by exactly lambda per step; the exit lands on step 30 or
    # 31 depending on which side of 1.0 the rounded lambda^0 falls
    assert rep.exit_time in (30, 31)
    assert rep.expansion_at_exit_ok and rep.thin_cone_ok


def test_perturbed_certificates_pass():
    rng = np.random.default_rng(12)
    m = certify.make_model_map(delta=1e-3, seed=2)
    n0 = 200
    for _ in range(25):
        zp = certify.LAMBDA_BIG ** (-rng.uniform(n0 + 1, n0 + 40))
        p = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), zp])
        v = certify.sample_cone_vector_3d(zp, 1.0, rng)
        rep = certify.expansion_certificate(m, p, v)
        assert rep.status == "ok"
        assert rep.all_ok


def test_certificate_input_validation():
    m = certify.make_model_map(delta=0.0, seed=3)
    with pytest.raises(ValueError):
        certify.expansion_certificate(m, [0, 0, 2.0], [0, 0, 1])
    with pytest.raises(ValueError):
        # vector far outside the cone at a large z
        certify.expansion_certificate(m, [0, 0, 0.9], [1, 0, 1e-6])


def test_sampled_cone_vectors_are_members():
    rng = np.random.default_rng(13)
    for _ in range(100):
        zp = 10.0 ** rng.uniform(-40, -1)
        v = certify.sample_cone_vector_3d(zp, 1.0, rng)
        assert certify.cone_member_3d(v, zp, 1.0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def _cone_batch(rng, n, n0=200):
    P, V = [], []
    for _ in range(n):
        zp = certify.LAMBDA_BIG ** (-rng.uniform(n0 + 1, n0 + 40))
        P.append([rng.uniform(-1, 1), rng.uniform(-1, 1), zp])
        V.append(certify.sample_cone_vector_3d(zp, 1.0, rng))
    return np.array(P), np.array(V)


def test_batched_certificates_match_one_row_calls():
    m = certify.make_model_map(delta=1e-3, seed=4)
    P, V = _cone_batch(np.random.default_rng(20), 64)
    batch = certify.expansion_certificates(m, P, V)
    assert len(batch) == 64
    for p, v, got in zip(P, V, batch):
        one = certify.expansion_certificate(m, p, v)
        assert got.exit_time == one.exit_time
        assert got.status == one.status
        assert got.expansion_at_exit_ok == one.expansion_at_exit_ok
        assert got.thin_cone_ok == one.thin_cone_ok
        assert got.expansion_along_orbit_ok == one.expansion_along_orbit_ok


def test_batch_reports_inconclusive_only_for_the_slow_row():
    m = certify.make_model_map(delta=1e-3, seed=5)
    zs = certify.LAMBDA_BIG ** -np.array([10.5, 60.5, 12.5])
    P = np.column_stack([[0.1, -0.2, 0.3], [0.4, 0.0, -0.5], zs])
    V = np.tile([0.0, 0.0, 1.0], (3, 1))
    reps = certify.expansion_certificates(m, P, V, max_iter=30)
    assert [r.status for r in reps] == ["ok", "inconclusive", "ok"]
    assert reps[1].exit_time == 30
    assert not reps[1].all_ok
    assert reps[0].all_ok and reps[2].all_ok
    assert reps[0].exit_time < reps[2].exit_time < 30


def test_batch_with_one_invalid_row_raises():
    m = certify.make_model_map(delta=1e-3, seed=6)
    P, V = _cone_batch(np.random.default_rng(21), 4)
    bad_z = P.copy()
    bad_z[2, 2] = 1.5
    with pytest.raises(ValueError, match="z in"):
        certify.expansion_certificates(m, bad_z, V)
    bad_v = V.copy()
    bad_v[1] = [1.0, 0.0, 1e-300]
    with pytest.raises(ValueError, match="outside the cone"):
        certify.expansion_certificates(m, P, bad_v)


def test_model_map_audit_value_is_pinned():
    # the figure of the earlier point-by-point audit
    m = certify.make_model_map(delta=1e-3, seed=0)
    dev = m.audit(samples=2000, rng=1)["df_deviation"]
    assert dev == pytest.approx(0.0004083036591343811, rel=1e-12)


def test_model_map_accepts_point_arrays():
    m = certify.make_model_map(delta=1e-2, seed=7)
    pts = np.random.default_rng(22).uniform(-1, 1, size=(5, 3))
    assert m(pts[0]).shape == (3,) and m.jacobian(pts[0]).shape == (3, 3)
    images, jacs = m(pts), m.jacobian(pts)
    h = 1e-6
    for p, image, jac in zip(pts, images, jacs):
        assert np.array_equal(image, m(p))
        assert np.array_equal(jac, m.jacobian(p))
        fd = np.column_stack(
            [(m(p + h * e) - m(p - h * e)) / (2 * h) for e in np.eye(3)]
        )
        assert np.allclose(jac, fd, atol=1e-8)
    v = np.random.default_rng(23).normal(size=(5, 3))
    pushed_p, pushed_v = m.push(pts, v)
    assert np.allclose(pushed_p, images, rtol=1e-15, atol=0)
    assert np.allclose(pushed_v, np.einsum("nij,nj->ni", jacs, v))


def test_batch_orbit_growth_flags_are_per_row():
    # linear map, growth exactly lambda^k against a demanded
    # (eta/2) lambda^(1.1 k): the bound fails from step 15 on
    m = certify.ModelMap(lam=certify.LAMBDA_BIG, delta=0.0, c1=1.0)
    zs = certify.LAMBDA_BIG ** -np.array([9.5, 29.5, 29.5])
    P = np.column_stack([[0.1, 0.2, 0.3], [0.0, 0.1, 0.2], zs])
    V = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.1]])
    reps = certify.expansion_certificates(m, P, V, epsilon=-0.3)
    assert [r.exit_time for r in reps] == [10, 30, 30]
    # exits before the dip; dips; starts outside the eta-cone
    assert [r.expansion_along_orbit_ok for r in reps] == [True, False, None]
