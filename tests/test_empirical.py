import itertools
import tracemalloc

import numpy as np
import pytest

from fibtrace import certify, empirical, torus
from fibtrace.tracemap import (
    on_surface,
    singular_points,
    trace_step,
    trace_step_inv,
)


def test_trace_jacobian_matches_finite_differences():
    rng = np.random.default_rng(14)
    h = 1e-7
    for p in rng.uniform(-2, 2, size=(20, 3)):
        jac = empirical.trace_jacobian(p)
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            fd = (trace_step(p + dp) - trace_step(p - dp)) / (2 * h)
            assert np.allclose(jac[:, j], fd, atol=1e-6)


def test_sampled_points_are_bounded_surface_points():
    pts = empirical.sample_bounded_points(0.05, 200, n_forward=20, rng=15)
    assert len(pts) > 0
    assert np.all(on_surface(pts, 0.05, tol=1e-9))
    q = pts.copy()
    for _ in range(20):
        q = trace_step(q)
        assert np.all(np.linalg.norm(q, axis=-1) <= 10.0 + 1e-9)


def _reference_candidates(coupling, grid, rng):
    """The (n, 3) candidate points of the bounded-point draw, in grid
    order, the singular vertices not yet excluded."""
    u = np.linspace(-0.999, 0.999, grid)
    xx, yy = np.meshgrid(u, u, indexing="ij")
    xx = xx + rng.uniform(-0.5, 0.5, xx.shape) * (u[1] - u[0])
    yy = yy + rng.uniform(-0.5, 0.5, yy.shape) * (u[1] - u[0])
    disc = (xx * xx - 1.0) * (yy * yy - 1.0) + coupling * coupling / 4.0
    ok = disc >= 0.0
    root = np.sqrt(np.where(ok, disc, 0.0))
    return np.concatenate([
        np.stack([xx[ok], yy[ok], (xx * yy + root)[ok]], axis=-1),
        np.stack([xx[ok], yy[ok], (xx * yy - root)[ok]], axis=-1),
    ])


def _reference_survivors(cand, n_forward, norm_cap):
    """The rows of cand off the singular vertices that stay within
    norm_cap for n_forward steps both ways, in order: stepped row by row
    with trace_step and trace_step_inv, dropping each row as it fails,
    with np.linalg.norm for every norm."""
    for s in singular_points():
        cand = cand[np.linalg.norm(cand - s, axis=-1) > 1e-6]
    live = np.arange(len(cand))
    for stepper in (trace_step, trace_step_inv):
        q = cand[live]
        for _ in range(n_forward):
            q = stepper(q)
            ok = np.linalg.norm(q, axis=-1) <= norm_cap
            q, live = q[ok], live[ok]
        if not len(live):
            break
    return cand[live]


def _reference_sample(coupling, n_samples, n_forward=30, norm_cap=10.0,
                      grid=160, rng=None):
    """The earlier full-screen draw: every candidate screened, then
    n_samples of the survivors picked by rng.choice."""
    rng = np.random.default_rng(rng)
    pts = _reference_survivors(_reference_candidates(coupling, grid, rng),
                               n_forward, norm_cap)
    if len(pts) > n_samples:
        pts = pts[rng.choice(len(pts), size=n_samples, replace=False)]
    return pts


def _reference_first_survivors(coupling, n_samples, n_forward=30, norm_cap=10.0,
                               grid=160, rng=None):
    """The sampler's rule on a full screen: the candidates in the order
    of a seeded permutation, and the first n_samples that survive."""
    rng = np.random.default_rng(rng)
    cand = _reference_candidates(coupling, grid, rng)
    cand = cand[rng.permutation(len(cand))]
    return _reference_survivors(cand, n_forward, norm_cap)[:n_samples]


@pytest.mark.parametrize("coupling", [0.02, 0.05])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampler_matches_linalg_norm_reference(coupling, seed):
    pts = empirical.sample_bounded_points(coupling, 400, rng=seed)
    assert len(pts) == 400
    assert np.array_equal(pts, _reference_first_survivors(coupling, 400, rng=seed))


@pytest.mark.filterwarnings("error")
def test_sampler_matches_reference_over_the_parameter_grid():
    # couplings x steps x caps x seeds, 200 cases, on a 40 x 40 grid of
    # (x, y) so that the row-by-row reference stays cheap
    for coupling, n_forward, norm_cap, seed in itertools.product(
        (0.02, 0.05, 0.2, 0.5), (0, 1, 2, 7, 30), (1.2, 1.5, 3.0, 10.0, 1e3), (1, 2)
    ):
        args = (coupling, 400, n_forward, norm_cap, 40, seed)
        pts = empirical.sample_bounded_points(*args)
        ref = _reference_first_survivors(*args)
        assert pts.shape == ref.shape, args
        assert pts.tobytes() == ref.tobytes(), args


def _rows(pts):
    return {row.tobytes() for row in pts}


@pytest.mark.parametrize("coupling, n_forward, norm_cap", [
    (0.05, 30, 10.0), (0.5, 7, 1.5), (0.2, 2, 1.2),
])
def test_sampler_keeps_survivors_of_the_full_screen(coupling, n_forward, norm_cap):
    grid, seed = 40, 4
    survivors = _reference_survivors(
        _reference_candidates(coupling, grid, np.random.default_rng(seed)),
        n_forward, norm_cap)
    count = len(survivors)
    assert 0 < count < 2 * grid * grid
    for n in (1, 100, count - 1):
        pts = empirical.sample_bounded_points(coupling, n, n_forward, norm_cap,
                                              grid, seed)
        assert len(pts) == min(n, count)
        assert _rows(pts) <= _rows(survivors)
        assert len(_rows(pts)) == len(pts)
    # at least as many asked for as there are: all of them
    for n in (count, count + 1, 10**6):
        pts = empirical.sample_bounded_points(coupling, n, n_forward, norm_cap,
                                              grid, seed)
        assert len(pts) == count
        assert _rows(pts) == _rows(survivors)


@pytest.mark.parametrize("backward", [False, True])
def test_rows_back_under_the_cap_stay_dropped(backward):
    # rows that leave the ball and come back under the cap later are in
    # neither direction's mask, though their orbits are run to the end
    n_steps, cap = 7, 1.5
    cand = _reference_candidates(0.5, 40, np.random.default_rng(1))
    stepper = trace_step_inv if backward else trace_step
    q, outside = cand, []
    for _ in range(n_steps):
        q = stepper(q)
        outside.append(np.linalg.norm(q, axis=-1) > cap)
    outside = np.array(outside)
    returned = np.any([outside[:i].any(axis=0) & ~outside[i]
                       for i in range(1, n_steps)], axis=0)
    assert returned.any()
    alive = empirical._bounded_rows(*cand.T, n_steps, cap, backward)
    assert np.array_equal(alive, ~outside.any(axis=0))
    assert not alive[returned].any()


@pytest.mark.parametrize("backward", [False, True])
def test_a_row_on_the_cap_is_kept_and_one_past_it_dropped(backward):
    # caps set row by row to each row's own reference norm after one step
    # pin the screen's norm to np.linalg.norm's bit for bit: a sum in
    # another order, or s compared with cap**2, drops some of these rows
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, (20000, 3))
    stepper = trace_step_inv if backward else trace_step
    norms = np.linalg.norm(stepper(pts), axis=-1)
    for cap, kept in ((norms, True), (np.nextafter(norms, 0.0), False)):
        alive = empirical._bounded_rows(*pts.T, 1, cap, backward)
        assert np.all(alive == kept)


@pytest.mark.parametrize("norm_cap", [np.inf, np.nan])
def test_sampler_rejects_a_cap_that_is_not_finite(norm_cap):
    with pytest.raises(ValueError, match="norm_cap"):
        empirical.sample_bounded_points(0.5, 10, norm_cap=norm_cap, grid=20, rng=1)


def test_sampler_rejects_a_negative_sample_count():
    with pytest.raises(ValueError, match="n_samples"):
        empirical.sample_bounded_points(0.5, -1, grid=20, rng=1)
    assert empirical.sample_bounded_points(0.5, 0, grid=20, rng=1).shape == (0, 3)


def test_sampler_peak_memory_is_pinned():
    # this draw peaked at 2,675,282 bytes under tracemalloc (numpy 2,
    # CPython 3.11); the full column screen before it at 3,774,828 and
    # the row-by-row screen before that at 5,335,554
    bound = 2.68e6
    empirical.sample_bounded_points(0.02, 400, rng=3)  # one-time caches
    tracemalloc.start()
    try:
        empirical.sample_bounded_points(0.02, 400, rng=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_certificate_reports_clean_statistics():
    rep = empirical.empirical_trace_certificate(
        0.05,
        sample_size=150,
        n_forward=25,
        singular_radius=0.2,
        rng=16,
    )
    assert rep.samples_total > 0
    assert rep.inconclusive_rate < 0.05
    assert rep.cone_checks > 0
    assert rep.cone_invariance_fraction == 1.0
    assert np.isfinite(rep.min_expansion_ratio)
    assert rep.min_expansion_ratio > 0.0
    assert len(rep.per_sample_ratios) == rep.samples_used


def test_certificate_input_validation():
    with pytest.raises(ValueError):
        empirical.empirical_trace_certificate(0.0)
    with pytest.raises(ValueError):
        empirical.empirical_trace_certificate(1.0)
    with pytest.raises(ValueError):
        empirical.empirical_trace_certificate(0.05, sample_size=0)


# zeta in (0, 1) bounds the unstable cone |c_u| > |c_s| / zeta, epsilon the
# target rate mu^(n (1 - 4 eps)), and a negative radius means nothing
@pytest.mark.parametrize("kw", [
    {"zeta": 0.0}, {"zeta": -1.0}, {"zeta": 1.0},
    {"epsilon": 0.0}, {"epsilon": 0.25}, {"epsilon": 5.0},
    {"singular_radius": -1.0},
])
def test_certificate_refuses_meaningless_parameters(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        empirical.empirical_trace_certificate(0.05, sample_size=10, **kw)


def test_certificate_is_deterministic_given_seed():
    kw = dict(sample_size=60, n_forward=15, singular_radius=0.2)
    a = empirical.empirical_trace_certificate(0.05, rng=17, **kw)
    b = empirical.empirical_trace_certificate(0.05, rng=17, **kw)
    assert a.min_expansion_ratio == b.min_expansion_ratio
    assert a.cone_checks == b.cone_checks
    assert np.array_equal(a.per_sample_ratios, b.per_sample_ratios)


@pytest.mark.parametrize(
    "kw, counts, min_ratio",
    [
        (
            dict(sample_size=400, singular_radius=0.2, rng=12),
            (400, 0, 10784, 10784),
            36.361031988407746,
        ),
        # has cone misses
        (
            dict(sample_size=200, n_forward=20, rng=15),
            (200, 0, 3913, 3890),
            2.625141511856985,
        ),
        # short window, wide radius: inconclusive samples and resets
        (
            dict(sample_size=200, n_forward=3, singular_radius=0.6, rng=5),
            (200, 23, 418, 418),
            0.4463398829418822,
        ),
    ],
)
def test_certificate_statistics_are_pinned(kw, counts, min_ratio):
    # figures of the earlier one-sample-at-a-time engine, on the points
    # of the earlier full-screen draw
    n_forward = kw.get("n_forward", 30)
    pts = _reference_sample(0.05, kw["sample_size"], n_forward, rng=kw["rng"])
    rep = empirical._certify_points(pts, n_forward, 0.1, 0.1,
                                    kw.get("singular_radius", 0.05))
    got = (rep.samples_total, rep.inconclusive, rep.cone_checks, rep.cone_hits)
    assert got == counts
    assert rep.min_expansion_ratio == pytest.approx(min_ratio, rel=1e-12)


def _reference_certify_points(pts, n_forward, epsilon, zeta, singular_radius):
    """The earlier per-step engine: every sample stepped by trace_step,
    with the frames, seeds and cone test computed at each step on the
    rows seeded or checked there.  Returns the report and the number of
    re-seedings (seeds of rows carried before)."""
    inv_frame = np.linalg.inv(certify.singular_eigen().eigenvectors)
    target = torus.MU ** (n_forward * (1.0 - 4.0 * epsilon))
    n = len(pts)
    v = np.zeros((n, 3))
    v_total = np.zeros((n, 3))
    has_v = np.zeros(n, dtype=bool)
    has_total = np.zeros(n, dtype=bool)
    checked = np.zeros(n, dtype=bool)
    cone_checks = cone_hits = reseeds = 0
    q = pts.copy()
    far = empirical._eigenframe_distance(q, inv_frame) >= singular_radius
    for _ in range(n_forward):
        seed = np.flatnonzero(far & ~has_v)
        if len(seed):
            q_seed = q[seed]
            w0 = empirical._project_tangent(empirical._unstable_frame(q_seed)[0],
                                            q_seed)
            n0 = np.linalg.norm(w0, axis=-1)
            good = n0 > 1e-10
            seed = seed[good]
            v[seed] = w0[good] / n0[good, None]
            has_v[seed] = True
            reseeds += int(np.count_nonzero(has_total[seed]))
            first = seed[~has_total[seed]]
            v_total[first] = v[first]
            has_total[first] = True
        has_v &= far
        v[~has_v] = 0.0
        jac = empirical.trace_jacobian(q)
        v = np.einsum("nij,nj->ni", jac, v)
        v_total = np.einsum("nij,nj->ni", jac, v_total)
        q = trace_step(q)
        far = empirical._eigenframe_distance(q, inv_frame) >= singular_radius
        check = np.flatnonzero(has_v & far)
        if len(check):
            q_check = q[check]
            w = empirical._project_tangent(v[check], q_check)
            coef_u, coef_s = empirical._frame_coefficients(
                *empirical._unstable_frame(q_check), w)
            cone_checks += len(check)
            hit = np.abs(coef_u) > np.abs(coef_s) / zeta
            cone_hits += int(np.count_nonzero(hit))
            checked[check] = True
    g = np.linalg.norm(v_total, axis=-1)
    used = has_total & checked & np.isfinite(g) & (g != 0.0)
    ratios = g[used] / target
    rep = empirical.EmpiricalReport(
        samples_total=n,
        samples_used=len(ratios),
        inconclusive=n - len(ratios),
        min_expansion_ratio=float(ratios.min()) if len(ratios) else np.nan,
        cone_checks=cone_checks,
        cone_hits=cone_hits,
        singular_radius=singular_radius,
        per_sample_ratios=ratios,
    )
    return rep, reseeds


def test_batched_certificate_matches_the_per_step_engine():
    seen = {"reseeds": 0, "inconclusive": 0, "misses": 0}
    for i, (coupling, n_forward, radius) in enumerate(itertools.product(
        (0.02, 0.3, 0.5), (3, 20, 60), (0.0, 0.05, 0.6)
    )):
        pts = empirical.sample_bounded_points(coupling, 100, n_forward, rng=i)
        want, reseeds = _reference_certify_points(pts, n_forward, 0.1, 0.1, radius)
        got = empirical._certify_points(pts, n_forward, 0.1, 0.1, radius)
        case = (coupling, n_forward, radius)
        assert got.samples_total == want.samples_total == len(pts), case
        assert (got.samples_used, got.inconclusive, got.cone_checks,
                got.cone_hits) == (want.samples_used, want.inconclusive,
                                   want.cone_checks, want.cone_hits), case
        assert np.array_equal(got.per_sample_ratios, want.per_sample_ratios), case
        assert np.array_equal(got.min_expansion_ratio, want.min_expansion_ratio,
                              equal_nan=True), case
        seen["reseeds"] += reseeds
        seen["inconclusive"] += want.inconclusive
        seen["misses"] += want.cone_checks - want.cone_hits
    # the grid reaches every branch of the loop
    assert all(seen.values()), seen


def test_certificate_refuses_points_that_are_not_finite():
    pts = np.array([[0.1, 0.2, 0.3], [0.2, np.nan, 0.1]])
    with pytest.raises(ValueError, match="non-finite"):
        empirical._certify_points(pts, 3, 0.1, 0.1, 0.05)
    # with no step taken nothing is stepped, and nothing is refused
    rep = empirical._certify_points(pts, 0, 0.1, 0.1, 0.05)
    assert rep.samples_used == rep.cone_checks == 0


def _eigenframe_distance_stacked(p, inv_frame):
    """The earlier formulation: a stacked matmul, np.linalg.norm, np.min."""
    deltas = p[..., None, :] - singular_points()
    return np.min(np.linalg.norm(deltas @ inv_frame.T, axis=-1), axis=-1)


def test_eigenframe_distance_matches_the_stacked_formulation():
    rng = np.random.default_rng(23)
    inv_frame = np.linalg.inv(certify.singular_eigen().eigenvectors)
    edge = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
    for p in (rng.uniform(-3.0, 3.0, (20000, 3)), edge, singular_points(),
              np.array([[0.3, -0.2, 0.9]]), np.empty((0, 3))):
        got = empirical._eigenframe_distance(p, inv_frame)
        want = _eigenframe_distance_stacked(p, inv_frame)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_frame_coefficients_match_lstsq():
    rng = np.random.default_rng(18)
    bases = list(rng.normal(size=(20, 3, 2)))
    bases.append(np.zeros((3, 2)))  # vanishing differential
    col = rng.normal(size=3)
    bases.append(np.column_stack([col, -2.0 * col]))  # rank 1
    bases = np.array(bases)
    w = rng.normal(size=(len(bases), 3))
    with np.errstate(all="raise"):
        cu, cs = empirical._frame_coefficients(bases[..., 0], bases[..., 1], w)
    for i, basis in enumerate(bases):
        ref, *_ = np.linalg.lstsq(basis, w[i], rcond=None)
        assert np.allclose([cu[i], cs[i]], ref, rtol=1e-10, atol=1e-12)


def test_batched_helpers_match_single_points():
    rng = np.random.default_rng(19)
    pts = rng.uniform(-1, 1, size=(8, 3))
    vecs = rng.normal(size=(8, 3))
    jac = empirical.trace_jacobian(pts)
    proj = empirical._project_tangent(vecs, pts)
    e_u, e_s = empirical._unstable_frame(pts)
    for i, p in enumerate(pts):
        assert np.array_equal(jac[i], empirical.trace_jacobian(p))
        assert np.allclose(proj[i], empirical._project_tangent(vecs[i], p))
        u, s = empirical._unstable_frame(p)
        assert np.allclose(e_u[i], u) and np.allclose(e_s[i], s)
