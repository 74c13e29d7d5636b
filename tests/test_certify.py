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
    assert certify.cone_member_3d([0.0, 0.0, 1.0], 0.5)
    assert not certify.cone_member_3d([1.0, 0.0, 0.1], 0.5)
    # boundary is inside
    z_p = 0.25
    assert certify.cone_member_3d([1.0, 0.0, np.sqrt(z_p)], z_p)
    with pytest.raises(ValueError):
        certify.cone_member_3d(np.zeros(3), 0.5)


def test_cone_membership_does_not_depend_on_scale():
    # where the squares of the plain rule stay normal, scaling changes no
    # answer, the boundary included; past that range the plain rule's
    # squares overflow (False, with a warning) or underflow (a zero vector)
    rng = np.random.default_rng(5)
    v = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-100, 100, (20000, 1))
    z_p = 10.0 ** rng.uniform(-8, 2, 20000)
    v[::2, 2] = np.sqrt(z_p[::2]) * np.linalg.norm(v[::2, :2], axis=-1)
    plain = np.abs(v[:, 2]) >= np.sqrt(z_p) * np.linalg.norm(v[:, :2], axis=-1)
    assert np.array_equal(certify.cone_member_3d(v, z_p), plain)
    assert plain[::2].all() and not plain.all()
    for scale in (1e200, 1e-200, 2.0**1000, 2.0**-1060):
        assert certify.cone_member_3d([scale, 0.0, scale], 0.25)
        assert certify.cone_member_3d([scale, 0.0, scale / 2.0], 0.25)
        assert not certify.cone_member_3d([scale, 0.0, scale / 4.0], 0.25)


def test_model_map_audit_and_plane_invariance():
    # make_model_map's proved bound, in place of the sampled audit it made:
    # ||Df - A|| <= (3 sqrt 3 / 8) delta on the box |p_i| <= 2, whatever
    # the phases
    for delta in (1e-3, 1e-2, 0.5, 2.0):
        for seed in range(4):
            m = certify.make_model_map(delta=delta, seed=seed)
            pts = np.random.default_rng(seed).uniform(-2.0, 2.0, (3, 10000))
            dev = np.moveaxis(m.jacobian(pts), -1, 0) - m.linear
            norms = np.linalg.norm(dev, ord=2, axis=(-2, -1))
            assert norms.max() <= 3.0 * np.sqrt(3.0) / 8.0 * delta
            assert norms.max() > 0.3 * delta
            pts[2] = 0.0
            assert np.all(m(pts)[2] == 0.0)
    m = certify.make_model_map(delta=1e-3, seed=0)
    assert m([0.3, -0.7, 0.0])[2] == 0.0


def test_model_map_rejects_bad_params():
    for delta in (-1e-3, np.nan):
        with pytest.raises(ValueError, match="delta must be in"):
            certify.make_model_map(delta=delta)
    # the largest delta whose second derivatives C1 = 1 bounds
    assert certify.make_model_map(delta=2.0, seed=0).delta == 2.0


def test_linear_map_certificate_exact():
    m = certify.ModelMap(delta=0.0)
    z0 = certify.LAMBDA_BIG ** (-30)
    p = np.array([0.1, 0.2, z0])
    v = np.array([1.0, 0.0, np.sqrt(z0)]) / np.sqrt(1 + z0)
    rep = certify.expansion_certificate(m, p, v)
    assert rep.exited is True
    assert rep.all_ok is True
    # z grows by exactly lambda per step; the exit lands on step 30 or
    # 31 depending on which side of 1.0 the rounded lambda^0 falls
    assert rep.exit_time in (30, 31)
    assert rep.expansion_at_exit_ok and rep.thin_cone_ok


def test_perturbed_certificates_pass():
    m = certify.make_model_map(delta=1e-3, seed=2)
    P, V = _cone_batch(np.random.default_rng(12), 25)
    for p, v in zip(P, V):
        rep = certify.expansion_certificate(m, p, v)
        assert rep.exited
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
    zp = 10.0 ** rng.uniform(-40, -1, 1000)
    V = certify.sample_cone_vectors_3d(zp, rng)
    assert V.shape == (1000, 3)
    assert np.all(certify.cone_member_3d(V, zp))
    assert np.all(np.abs(np.linalg.norm(V, axis=-1) - 1.0) < 1e-12)
    # |v_z| / |v_xy| is sqrt(z) times a log-uniform factor in [1, 1e6],
    # with either sign
    lift = np.abs(V[:, 2]) / np.linalg.norm(V[:, :2], axis=-1) / np.sqrt(zp)
    assert np.all((lift > 1.0 - 1e-12) & (lift < 1e6 * (1.0 + 1e-12)))
    quarters = np.histogram(np.log(lift), bins=4, range=(0.0, np.log(1e6)))[0]
    assert quarters.min() > 200
    assert 400 < np.count_nonzero(V[:, 2] > 0.0) < 600
    one = certify.sample_cone_vectors_3d(0.25, 1)
    assert one.shape == (3,) and certify.cone_member_3d(one, 0.25)


def _cone_batch(rng, n, n0=200):
    zp = certify.LAMBDA_BIG ** -rng.uniform(n0 + 1, n0 + 40, n)
    P = np.column_stack([rng.uniform(-1.0, 1.0, (n, 2)), zp])
    return P, certify.sample_cone_vectors_3d(zp, rng)


def test_batched_certificates_match_one_row_calls():
    m = certify.make_model_map(delta=1e-3, seed=4)
    P, V = _cone_batch(np.random.default_rng(20), 64)
    batch = certify.expansion_certificates(m, P, V)
    fields = vars(batch)
    assert all(np.shape(col) == (64,) for col in fields.values())
    for i, (p, v) in enumerate(zip(P, V)):
        one = certify.expansion_certificate(m, p, v)
        assert vars(one) == {name: col[i] for name, col in fields.items()}


def test_batch_reports_inconclusive_only_for_the_slow_row():
    m = certify.make_model_map(delta=1e-3, seed=5)
    zs = certify.LAMBDA_BIG ** -np.array([10.5, 60.5, 12.5])
    P = np.column_stack([[0.1, -0.2, 0.3], [0.4, 0.0, -0.5], zs])
    V = np.tile([0.0, 0.0, 1.0], (3, 1))
    rep = certify.expansion_certificates(m, P, V, max_iter=30)
    assert rep.exited.tolist() == [True, False, True]
    assert rep.all_ok.tolist() == [True, False, True]
    assert rep.exit_time[1] == 30
    assert rep.exit_time[0] < rep.exit_time[2] < 30


def test_norms_past_the_float_range_of_squares_are_scored_as_unscaled():
    # a power-of-two scale passes exactly through every push, so each
    # pushed vector is the unscaled one times 2^400; from |w| ~ 1e154 on
    # their squares overflow and the scaled norms take over
    m = certify.make_model_map(delta=1e-3, seed=7)
    P, V = _cone_batch(np.random.default_rng(22), 200)
    plain = certify.expansion_certificates(m, P, V)
    big = certify.expansion_certificates(m, P, V * 2.0**400)
    assert vars(big).keys() == vars(plain).keys()
    for name, col in vars(plain).items():
        assert np.array_equal(vars(big)[name], col), name
    assert plain.all_ok.all()


def test_a_pushed_vector_whose_components_overflow_raises():
    # the plain start norm is finite (the cone check needs it); z keeps
    # growing by lambda a step until the vector's z-component overflows
    # at step 379, before the point exits at step ~400
    m = certify.ModelMap(delta=0.0)
    P = np.array([[0.0, 0.0, certify.LAMBDA_BIG**-400]])
    V = np.array([[0.0, 0.0, 1e150]])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="norm overflowed at step 379$"):
            certify.expansion_certificates(m, P, V)


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
    # the figure of the earlier sampled audit: the largest ||Df - A|| over
    # the 2000 points it drew with rng 1, so the map's phases are unchanged
    m = certify.make_model_map(delta=1e-3, seed=0)
    pts = np.random.default_rng(1).uniform(-2.0, 2.0, (2000, 3))
    dev = np.moveaxis(m.jacobian(pts.T), -1, 0) - m.linear
    worst = np.linalg.norm(dev, ord=2, axis=(-2, -1)).max()
    assert worst == pytest.approx(0.0004083036591343811, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-2])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_audit_norms_match_the_svd_norm(delta, seed):
    # Df - A = (delta/8) (z diag(slopes) G + waves e_z^T): on z = 0 only
    # the z-column is left, whose length is the 2-norm; elsewhere the two
    # terms bound it by the triangle inequality
    m = certify.make_model_map(delta=delta, seed=seed)
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, (10000, 3))
    pts[:500, 2] = 0.0  # rank <= 1: only the z-column is left
    dev = np.moveaxis(m.jacobian(pts.T), -1, 0) - m.linear
    ref = np.linalg.norm(dev, ord=2, axis=(-2, -1))
    assert np.all(dev[:500, :, :2] == 0.0)
    column = np.linalg.norm(dev[:500, :, 2], axis=-1)
    assert np.all(np.abs(column - ref[:500]) <= 1e-12 * ref[:500])
    waves, slopes = _formula_waves(m, pts)
    tilt = np.linalg.norm(slopes[:, :, None] * _GRAD, ord=2, axis=(-2, -1))
    bound = delta / 8.0 * (np.abs(pts[:, 2]) * tilt + np.linalg.norm(waves, axis=-1))
    # A's z-entry is subtracted back out: allow its rounding
    assert np.all(ref <= bound + 4 * np.finfo(float).eps * certify.LAMBDA_BIG)
    if delta == 0.0:
        assert np.all(ref == 0.0)
    else:
        assert np.all(ref[:500] > 0.0)


_GRAD = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def _formula_waves(m, p):
    """Waves and slopes of (n, 3) rows, as ModelMap computed them."""
    shifts = np.concatenate([m.phases, m.phases]) + np.array([0, 1, 0, 1, 0, 1]) * (
        np.pi / 2.0)
    args = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, 0.0]] * 2)
    sines = np.sin(p @ args.T + shifts)
    return sines[..., :3], sines[..., 3:]


def _push_formula(m, p, v):
    """f(p) and Df(p) v as ModelMap.push computed them term by term."""
    waves, slopes = _formula_waves(m, p)
    s = m.delta / 8.0
    scale = np.array([1.0 / certify.LAMBDA_BIG, 1.0, certify.LAMBDA_BIG])
    pushed = v * scale
    pushed += (s * p[..., 2:3]) * slopes * (v @ _GRAD.T)
    pushed += s * waves * v[..., 2:3]
    return p * scale + (m.delta / 8.0) * p[..., 2:3] * waves, pushed


@pytest.mark.parametrize("delta, seed", [(1e-3, 8), (1e-2, 9), (0.0, 10)])
def test_pushes_are_pinned_to_the_formula(delta, seed):
    # 240 steps of 400 rows, as one model job makes them
    m = certify.make_model_map(delta=delta, seed=seed)
    P, V = _cone_batch(np.random.default_rng(seed), 400)
    q, w, q_ref, w_ref = P.T, V.T, P, V
    for _ in range(240):
        q, w = m.push(q, w)
        q_ref, w_ref = _push_formula(m, q_ref, w_ref)
        assert np.array_equal(q.T, q_ref) and np.array_equal(w.T, w_ref)
        # the certificate's plain norms of the columns are the rows' norms
        with np.errstate(over="ignore"):
            norms = np.sqrt(certify._sum_squares(w))
            assert np.array_equal(norms, np.linalg.norm(w_ref, axis=-1))
    assert np.all(np.isfinite(q)) and np.any(q[2] > 1.0)


def test_model_map_accepts_point_arrays():
    # coordinate first: a (3,) point or a (3, n) array of columns
    m = certify.make_model_map(delta=1e-2, seed=7)
    pts = np.random.default_rng(22).uniform(-1, 1, size=(3, 5))
    assert m(pts[:, 0]).shape == (3,) and m.jacobian(pts[:, 0]).shape == (3, 3)
    images, jacs = m(pts), m.jacobian(pts)
    assert images.shape == (3, 5) and jacs.shape == (3, 3, 5)
    h = 1e-6
    for p, image, jac in zip(pts.T, images.T, np.moveaxis(jacs, -1, 0)):
        assert np.array_equal(image, m(p))
        assert np.array_equal(jac, m.jacobian(p))
        fd = np.column_stack(
            [(m(p + h * e) - m(p - h * e)) / (2 * h) for e in np.eye(3)]
        )
        assert np.allclose(jac, fd, atol=1e-8)
    v = np.random.default_rng(23).normal(size=(3, 5))
    pushed_p, pushed_v = m.push(pts, v)
    assert np.array_equal(pushed_p, images)
    assert np.allclose(pushed_v, np.einsum("ijn,jn->in", jacs, v))


def test_batch_orbit_growth_flags_are_per_row():
    # linear map, growth exactly lambda^k against a demanded
    # (eta/2) lambda^(1.1 k): the bound fails from step 15 on
    m = certify.ModelMap(delta=0.0)
    zs = certify.LAMBDA_BIG ** -np.array([9.5, 29.5, 29.5])
    P = np.column_stack([[0.1, 0.2, 0.3], [0.0, 0.1, 0.2], zs])
    V = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.1]])
    rep = certify.expansion_certificates(m, P, V, epsilon=-0.3)
    assert rep.exit_time.tolist() == [10, 30, 30]
    # exits before the dip; dips; starts outside the eta-cone
    assert rep.expansion_along_orbit_ok.tolist() == [True, False, True]


def _reference_certificates(m, P, V, epsilon=0.1, eta=0.5, max_iter=100000):
    """The (n, 3)-row stepping loop that expansion_certificates ran
    before it held its state as (3, n) columns, pushing with
    ``_push_formula``."""

    def row_norms(w):
        with np.errstate(over="ignore"):
            r = np.linalg.norm(w, axis=-1)
        big = ~np.isfinite(r)
        if big.any():
            wb = w[big]
            top = np.max(np.abs(wb), axis=-1)
            with np.errstate(over="ignore", invalid="ignore"):
                r[big] = top * np.linalg.norm(wb / top[:, None], axis=-1)
        return r

    n = len(P)
    v_xy0 = row_norms(V[:, :2])
    rate = certify.LAMBDA_BIG ** (0.5 * (1.0 - 4.0 * epsilon))
    eta_start = np.abs(V[:, 2]) >= eta * v_xy0
    exit_time = np.full(n, max_iter)
    w_exit = np.zeros((n, 3))
    grew = np.zeros(n, dtype=bool)
    dipped = np.zeros(n, dtype=bool)
    active = np.arange(n)
    q, w = P, V
    v0_norm = row_norms(V)
    dip = np.zeros(n, dtype=bool)
    for k in range(1, max_iter + 1):
        if not len(active):
            break
        q, w = _push_formula(m, q, w)
        with np.errstate(over="ignore"):
            g = row_norms(w) / v0_norm
        if not np.isfinite(g).all():
            raise ValueError(f"pushed vector norm overflowed at step {k}")
        bound = rate**k
        dip |= g < 0.5 * eta * bound
        out = q[:, 2] > 1.0
        if out.any():
            done = active[out]
            exit_time[done] = k
            w_exit[done] = w[out]
            grew[done] = g[out] >= bound
            dipped[done] = dip[out]
            keep = ~out
            active, q, w = active[keep], q[keep], w[keep]
            v0_norm, dip = v0_norm[keep], dip[keep]
    exited = np.ones(n, dtype=bool)
    exited[active] = False
    u_xy = row_norms(w_exit[:, :2])
    u_z = np.abs(w_exit[:, 2])
    if m.delta > 0.0:
        thin = u_xy < 2.0 * np.sqrt(m.delta) * u_z
    else:
        thin = u_xy <= v_xy0 * (1.0 + 1e-12)
    return certify.ExpansionReport(
        exit_time=exit_time,
        exited=exited,
        expansion_at_exit_ok=grew,
        thin_cone_ok=exited & thin,
        expansion_along_orbit_ok=~(eta_start & dipped),
    )


@pytest.mark.parametrize("n0", [200, 600, 696])
@pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-2, 0.5, 2.0])
def test_column_certificates_match_the_row_engine(delta, n0):
    # from n0 ~ 672 on the squares of the pushed norms overflow, so 696
    # also takes the scaled norms
    for seed in range(5):
        m = certify.make_model_map(delta=delta, seed=seed)
        P, V = _cone_batch(np.random.default_rng(100 + seed), 400, n0)
        got = certify.expansion_certificates(m, P, V)
        ref = _reference_certificates(m, P, V)
        for name, col in vars(ref).items():
            assert np.array_equal(vars(got)[name], col), (seed, name)
        assert ref.exited.all()
