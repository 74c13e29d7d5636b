import itertools
import tracemalloc

import numpy as np
import pytest

from fibtrace import certify, empirical, torus
from fibtrace.tracemap import singular_points, surface_points, trace_orbit, trace_step
from oracles import on_surface, trace_step_inv


def trace_jacobian(p) -> np.ndarray:
    """Differential of the trace map; a (..., 3) array gives (..., 3, 3).

    The oracle the certificate's explicit tangent step is checked
    against, through ``np.einsum("nij,nj->ni")``."""
    p = np.asarray(p, dtype=float)
    jac = np.zeros(p.shape + (3,))
    jac[..., 0, 0] = 2.0 * p[..., 1]
    jac[..., 0, 1] = 2.0 * p[..., 0]
    jac[..., 0, 2] = -1.0
    jac[..., 1, 0] = 1.0
    jac[..., 2, 1] = 1.0
    return jac


# The certificate's helpers in their earlier row-major (..., 3) forms:
# the oracles the coordinate-first helpers are checked against bit for
# bit, and the arithmetic of the per-step reference engine below.

def _eigenframe_distance_rows(p, inv_frame):
    deltas = (p[:, None, :] - singular_points()).reshape(-1, 3) @ inv_frame.T
    deltas *= deltas
    r = np.sqrt(deltas[:, 0] + deltas[:, 1] + deltas[:, 2]).reshape(-1, 4)
    return np.minimum(np.minimum(r[:, 0], r[:, 1]), np.minimum(r[:, 2], r[:, 3]))


def _unstable_frame_rows(p):
    y = np.clip(p[..., 1], -1.0, 1.0)
    z = np.clip(p[..., 2], -1.0, 1.0)
    s_th = np.sqrt((1.0 - y) * (1.0 + y))
    s_ph = np.sqrt((1.0 - z) * (1.0 + z))
    yz = y * z
    both = s_th * s_ph
    flip = np.abs(yz + both - p[..., 0]) < np.abs(yz - both - p[..., 0])
    s_ph = np.where(flip, -s_ph, s_ph)
    s_sum = s_th * z + y * s_ph
    u, s = -2.0 * np.pi * torus.V_U, -2.0 * np.pi * torus.V_S
    return tuple(np.stack([(e[0] + e[1]) * s_sum, e[0] * s_th, e[1] * s_ph], axis=-1)
                 for e in (u, s))


def _torus_frame_rows(p):
    """The frame as the torus layer gives it: the Jacobian of the
    semiconjugacy at the preimage ``invert_semiconj`` picks, applied to
    V_U and V_S."""
    jac = torus.df_semiconj(torus.invert_semiconj(p))
    return jac @ torus.V_U, jac @ torus.V_S


def _project_tangent_rows(v, p):
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    grad = np.stack(
        [
            2.0 * x - 2.0 * y * z,
            2.0 * y - 2.0 * x * z,
            2.0 * z - 2.0 * x * y,
        ],
        axis=-1,
    )
    g2 = np.sum(grad * grad, axis=-1)
    flat = g2 < 1e-14
    scale = np.sum(v * grad, axis=-1) / np.where(flat, 1.0, g2)
    return v - np.where(flat, 0.0, scale)[..., None] * grad


def _frame_coefficients_rows(e_u, e_s, w):
    a = np.sum(e_u * e_u, axis=-1)
    b = np.sum(e_u * e_s, axis=-1)
    c = np.sum(e_s * e_s, axis=-1)
    r_u = np.sum(e_u * w, axis=-1)
    r_s = np.sum(e_s * w, axis=-1)
    det = a * c - b * b
    full = det > 0.0
    trace = a + c
    den = np.where(full, det, np.where(trace > 0.0, trace, 1.0))
    coef_u = np.where(full, c * r_u - b * r_s, r_u) / den
    coef_s = np.where(full, a * r_s - b * r_u, r_s) / den
    return coef_u, coef_s


def test_trace_jacobian_matches_finite_differences():
    rng = np.random.default_rng(14)
    h = 1e-7
    for p in rng.uniform(-2, 2, size=(20, 3)):
        jac = trace_jacobian(p)
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


def _grid_candidates(coupling, grid, rng):
    """The (n, 3) candidate points of the earlier grid draw, in grid
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


def _reference_chunk(coupling, n, rng):
    """The (2n, 3) candidate points of one chunk of the draw: n nodes
    uniform in (-1, 1)^2, the upper and the lower sheet over each, in
    the order of one seeded permutation."""
    xx, yy = rng.uniform(-1.0, 1.0, (2, n))
    disc = (xx * xx - 1.0) * (yy * yy - 1.0) + coupling * coupling / 4.0
    assert np.all(disc >= 0.0)
    root = np.sqrt(disc)
    cand = np.concatenate([
        np.stack([xx, yy, xx * yy + root], axis=-1),
        np.stack([xx, yy, xx * yy - root], axis=-1),
    ])
    return cand[rng.permutation(2 * n)]


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
    """The earlier full-screen grid draw: every candidate screened, then
    n_samples of the survivors picked by rng.choice."""
    rng = np.random.default_rng(rng)
    pts = _reference_survivors(_grid_candidates(coupling, grid, rng),
                               n_forward, norm_cap)
    if len(pts) > n_samples:
        pts = pts[rng.choice(len(pts), size=n_samples, replace=False)]
    return pts


def _reference_first_survivors(coupling, n_samples, n_forward=30, norm_cap=10.0,
                               max_candidates=51_200, rng=None):
    """The sampler's rule, screened row by row: chunks of n_samples
    nodes, then twice as many each time, the last one cut to
    max_candidates points in all, until n_samples rows have survived;
    the first n_samples survivors."""
    rng = np.random.default_rng(rng)
    kept, found, screened, n = [np.empty((0, 3))], 0, 0, n_samples
    while found < n_samples and screened < max_candidates:
        n = min(n, (max_candidates - screened) // 2)
        kept.append(_reference_survivors(_reference_chunk(coupling, n, rng),
                                         n_forward, norm_cap))
        found += len(kept[-1])
        screened += 2 * n
        n *= 2
    return np.concatenate(kept)[:n_samples]


@pytest.mark.parametrize("coupling", [0.02, 0.05])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampler_matches_linalg_norm_reference(coupling, seed):
    pts = empirical.sample_bounded_points(coupling, 400, rng=seed)
    assert len(pts) == 400
    assert np.array_equal(pts, _reference_first_survivors(coupling, 400, rng=seed))


@pytest.mark.filterwarnings("error")
def test_sampler_matches_reference_over_the_parameter_grid(monkeypatch):
    # couplings x steps x caps x seeds, 200 cases, with at most 3200
    # candidates so that the row-by-row reference stays cheap
    limit, short = 3200, 0
    monkeypatch.setattr(empirical, "_MAX_CANDIDATES", limit)
    for coupling, n_forward, norm_cap, seed in itertools.product(
        (0.02, 0.05, 0.2, 0.5), (0, 1, 2, 7, 30), (1.2, 1.5, 3.0, 10.0, 1e3), (1, 2)
    ):
        monkeypatch.setattr(empirical, "_NORM_CAP", norm_cap)
        args = (coupling, 400, n_forward, norm_cap, seed)
        pts = empirical.sample_bounded_points(coupling, 400, n_forward, seed)
        ref = _reference_first_survivors(coupling, 400, n_forward, norm_cap,
                                         limit, seed)
        assert pts.shape == ref.shape, args
        assert pts.tobytes() == ref.tobytes(), args
        short += len(ref) < 400
    # some cases run out of candidates, through the cut last chunk
    assert short


@pytest.mark.parametrize("coupling, n_forward, norm_cap", [
    (0.05, 30, 10.0), (0.5, 7, 1.5), (0.2, 2, 1.2),
])
def test_sampler_keeps_survivors_of_the_full_screen(monkeypatch, coupling, n_forward,
                                                    norm_cap):
    # asked for at least limit / 2 points, the draw is one chunk of
    # limit / 2 nodes; asked for more points than pass there, it returns
    # every one that passes
    limit, seed = 3200, 4
    monkeypatch.setattr(empirical, "_MAX_CANDIDATES", limit)
    monkeypatch.setattr(empirical, "_NORM_CAP", norm_cap)
    chunk = _reference_chunk(coupling, limit // 2, np.random.default_rng(seed))
    survivors = _reference_survivors(chunk, n_forward, norm_cap)
    count = len(survivors)
    assert 0 < count < limit
    for n in (max(count + 1, limit // 2), limit, 10**6):
        pts = empirical.sample_bounded_points(coupling, n, n_forward, seed)
        assert pts.tobytes() == survivors.tobytes()


@pytest.mark.parametrize("backward", [False, True])
def test_rows_back_under_the_cap_stay_dropped(backward):
    # rows that leave the ball and come back under the cap later are in
    # neither direction's mask, though their orbits are run to the end
    n_steps, cap = 7, 1.5
    cand = _reference_chunk(0.5, 1600, np.random.default_rng(1))
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


def test_sampler_rejects_a_negative_sample_count():
    with pytest.raises(ValueError, match="n_samples"):
        empirical.sample_bounded_points(0.5, -1, rng=1)
    assert empirical.sample_bounded_points(0.5, 0, rng=1).shape == (0, 3)


def test_sampler_peak_memory_is_pinned():
    # this draw peaked at 847,137 bytes under tracemalloc (numpy 2,
    # CPython 3.11); the permuted grid pool before it at 2,675,282, the
    # full column screen before that at 3,774,828 and the row-by-row
    # screen before that at 5,335,554
    bound = 0.85e6
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


@pytest.mark.parametrize("coupling", [0.02, 0.05])
def test_certificate_holds_the_benchmark_bounds_over_seeds(coupling):
    # the bounds perfbench's certify check applies to its sampled jobs,
    # over seeds 1000-1039, fixed before this draw was first run on them
    for seed in range(1000, 1040):
        rep = empirical.empirical_trace_certificate(
            coupling, sample_size=400, n_forward=30, singular_radius=0.2, rng=seed)
        assert rep.cone_checks > 0, seed
        assert rep.cone_invariance_fraction == 1.0, seed
        assert rep.inconclusive_rate < 0.05, seed
        assert np.isfinite(rep.min_expansion_ratio), seed
        assert rep.min_expansion_ratio > 0.0, seed


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
    rows seeded or checked there; a check where the frame is exactly 0
    is undecided, and a sample counts as checked only through a decided
    check.  Returns the report and the number of re-seedings
    (seeds of rows carried before)."""
    inv_frame = np.linalg.inv(certify.singular_eigen().eigenvectors)
    target = torus.MU ** (n_forward * (1.0 - 4.0 * epsilon))
    n = len(pts)
    v = np.zeros((n, 3))
    v_total = np.zeros((n, 3))
    has_v = np.zeros(n, dtype=bool)
    has_total = np.zeros(n, dtype=bool)
    checked = np.zeros(n, dtype=bool)
    cone_checks = cone_hits = cone_undecided = reseeds = 0
    q = pts.copy()
    far = _eigenframe_distance_rows(q, inv_frame) >= singular_radius
    for _ in range(n_forward):
        seed = np.flatnonzero(far & ~has_v)
        if len(seed):
            q_seed = q[seed]
            w0 = _project_tangent_rows(_unstable_frame_rows(q_seed)[0], q_seed)
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
        jac = trace_jacobian(q)
        v = np.einsum("nij,nj->ni", jac, v)
        v_total = np.einsum("nij,nj->ni", jac, v_total)
        q = trace_step(q)
        far = _eigenframe_distance_rows(q, inv_frame) >= singular_radius
        check = np.flatnonzero(has_v & far)
        if len(check):
            q_check = q[check]
            w = _project_tangent_rows(v[check], q_check)
            e_u, e_s = _unstable_frame_rows(q_check)
            coef_u, coef_s = _frame_coefficients_rows(e_u, e_s, w)
            decided = np.any(e_u != 0.0, axis=-1)
            cone_checks += int(np.count_nonzero(decided))
            cone_undecided += int(np.count_nonzero(~decided))
            hit = decided & (np.abs(coef_u) > np.abs(coef_s) / zeta)
            cone_hits += int(np.count_nonzero(hit))
            checked[check[decided]] = True
    g = np.linalg.norm(v_total, axis=-1)
    used = has_total & checked & np.isfinite(g) & (g != 0.0)
    ratios = g[used] / target
    rep = empirical.EmpiricalReport(
        samples_total=n,
        samples_used=len(ratios),
        min_expansion_ratio=float(ratios.min()) if len(ratios) else np.nan,
        cone_checks=cone_checks,
        cone_hits=cone_hits,
        cone_undecided=cone_undecided,
        per_sample_ratios=ratios,
    )
    return rep, reseeds


def test_batched_certificate_matches_the_per_step_engine():
    seen = {"reseeds": 0, "inconclusive": 0, "misses": 0, "undecided": 0}
    for i, (coupling, n_forward, radius) in enumerate(itertools.product(
        (0.02, 0.3, 0.5), (3, 20, 60), (0.0, 0.05, 0.6)
    )):
        pts = empirical.sample_bounded_points(coupling, 100, n_forward, rng=i)
        want, reseeds = _reference_certify_points(pts, n_forward, 0.1, 0.1, radius)
        got = empirical._certify_points(pts, n_forward, 0.1, 0.1, radius)
        case = (coupling, n_forward, radius)
        assert got.samples_total == want.samples_total == len(pts), case
        assert (got.samples_used, got.inconclusive, got.cone_checks,
                got.cone_hits, got.cone_undecided) == (
                    want.samples_used, want.inconclusive, want.cone_checks,
                    want.cone_hits, want.cone_undecided), case
        assert np.array_equal(got.per_sample_ratios, want.per_sample_ratios), case
        assert np.array_equal(got.min_expansion_ratio, want.min_expansion_ratio,
                              equal_nan=True), case
        seen["reseeds"] += reseeds
        seen["inconclusive"] += want.inconclusive
        seen["misses"] += want.cone_checks - want.cone_hits
        seen["undecided"] += want.cone_undecided
    # the grid reaches every branch of the loop
    assert all(seen.values()), seen


def test_checks_at_a_vertex_shadow_are_undecided():
    # one step from a point p with |x|, |y| > 1 of S_V lands on T(p) =
    # (2xy - z, x, y), whose y and z lie outside (-1, 1): its shadow is
    # clipped to a vertex of the square, where the frame is exactly 0 and
    # tests no cone, so the check there is neither a hit nor a miss
    V = 0.5
    x, y = np.array(list(itertools.product((-1.2, -1.1, 1.1, 1.2), repeat=2))).T
    corner = np.column_stack(surface_points(V, x, y))
    corner = corner[np.abs(corner[:, 2]) < 1.0]  # seeded: a nonzero frame at p
    assert len(corner) == 16
    u, _ = empirical._unstable_frame(trace_step(corner).T)
    assert not u.any()
    plain = empirical.sample_bounded_points(V, 50, 1, rng=3)
    base = empirical._certify_points(plain, 1, 0.1, 0.1, 0.0)
    rep = empirical._certify_points(np.concatenate([plain, corner]), 1, 0.1, 0.1, 0.0)
    assert base.cone_checks > base.cone_hits > 0
    assert (rep.cone_checks, rep.cone_hits) == (base.cone_checks, base.cone_hits)
    assert rep.cone_undecided == base.cone_undecided + len(corner)
    assert rep.cone_invariance_fraction == base.cone_invariance_fraction
    # a sample whose only check was undecided has shown no expansion
    # along a cone, and is inconclusive
    assert (rep.samples_used, rep.min_expansion_ratio) == (
        base.samples_used, base.min_expansion_ratio)
    assert rep.inconclusive == base.inconclusive + len(corner)


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
        got = empirical._eigenframe_distance(p.T, inv_frame)
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
        cu, cs = empirical._frame_coefficients(bases[..., 0].T, bases[..., 1].T, w.T)
    for i, basis in enumerate(bases):
        ref, *_ = np.linalg.lstsq(basis, w[i], rcond=None)
        assert np.allclose([cu[i], cs[i]], ref, rtol=1e-10, atol=1e-12)


def test_batched_helpers_match_single_points():
    # each column of a batch comes out as the helper gives it alone
    rng = np.random.default_rng(19)
    pts = rng.uniform(-1, 1, size=(3, 8))
    vecs = rng.normal(size=(3, 8))
    proj = empirical._project_tangent(vecs, pts)
    e_u, e_s = empirical._unstable_frame(pts)
    step = empirical._tangent_step(2.0 * pts[0], 2.0 * pts[1], vecs)
    for i in range(8):
        col = slice(i, i + 1)
        assert np.array_equal(proj[:, col],
                              empirical._project_tangent(vecs[:, col], pts[:, col]))
        u, s = empirical._unstable_frame(pts[:, col])
        assert np.array_equal(e_u[:, col], u) and np.array_equal(e_s[:, col], s)
        assert np.allclose(step[:, i], trace_jacobian(pts[:, i]) @ vecs[:, i])


def _same_bits(got, want):
    """Bit for bit, but for the sign of a zero.

    The row forms start their sums at +0.0 (numpy's reductions and
    stacked matmuls do), so where every term is -0.0 they return +0.0
    and the explicit sums -0.0.  No result of the certificate reads the
    sign of a zero: it goes through abs, squares and comparisons.
    """
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    both_zero = (got == 0.0) & (want == 0.0)
    return bool(np.all((got.view(np.int64) == want.view(np.int64)) | both_zero))


def _helper_rows():
    """(m, 3) points and vectors: orbit points of a certify window and
    the edge rows.  The edges: y or z exactly +-1, where df_semiconj has
    signed zeros and the frame has Gram determinant 0 at y = z = +-1;
    the singular vertices and points 1e-9 from them, where the surface
    gradient vanishes or has g^2 < 1e-14; zero vectors of either sign."""
    pts = empirical.sample_bounded_points(0.05, 200, 30, rng=7)
    seq = trace_orbit(pts[:, 2], pts[:, 1], pts[:, 0], 30)
    orbit = np.stack([seq[2:].ravel(), seq[1:-1].ravel(), seq[:-2].ravel()], axis=-1)
    on_one = np.array(list(itertools.product(
        (-0.7, 0.0, 0.3, 1.0), (-1.0, 1.0, 0.4), (-1.0, 1.0, -0.2))))
    vertex = singular_points()
    near = np.concatenate([vertex + 1e-9, vertex - np.array([1e-9, -1e-9, 1e-9])])
    p = np.concatenate([orbit, on_one, vertex, near])
    v = np.random.default_rng(3).normal(size=p.shape)
    v[-20:] = [-0.0, 0.0, -0.0]
    v[-40:-20] = -0.0
    return p, v


def test_coordinate_first_helpers_match_the_row_forms():
    p, v = _helper_rows()
    q = np.ascontiguousarray(p.T)
    inv_frame = np.linalg.inv(certify.singular_eigen().eigenvectors)
    assert _same_bits(empirical._eigenframe_distance(q, inv_frame),
                      _eigenframe_distance_rows(p, inv_frame))
    e_u, e_s = empirical._unstable_frame(q)
    r_u, r_s = _unstable_frame_rows(p)
    assert _same_bits(e_u, r_u.T) and _same_bits(e_s, r_s.T)
    x, y, z = q
    g2 = ((2 * x - 2 * y * z) ** 2 + (2 * y - 2 * x * z) ** 2
          + (2 * z - 2 * x * y) ** 2)
    assert np.any(g2 == 0.0) and np.any((g2 > 0.0) & (g2 < 1e-14))
    for w in (v, r_u):
        assert _same_bits(empirical._project_tangent(w.T, q),
                          _project_tangent_rows(w, p).T)
    # frames of the points, and frames of Gram determinant 0: zero, and
    # of rank 1 with exact powers of two
    unit = np.array([0.5, -2.0, 0.25])
    for b_u, b_s in ((r_u, r_s), (np.zeros_like(p), np.zeros_like(p)),
                     (np.tile(unit, (len(p), 1)), np.tile(-2.0 * unit, (len(p), 1))),
                     (np.tile(unit, (len(p), 1)), np.tile(unit, (len(p), 1)))):
        got = empirical._frame_coefficients(b_u.T, b_s.T, v.T)
        want = _frame_coefficients_rows(b_u, b_s, v)
        assert _same_bits(got, want)
    assert np.count_nonzero(
        np.sum(r_u * r_u, -1) * np.sum(r_s * r_s, -1) - np.sum(r_u * r_s, -1) ** 2 == 0.0)


def test_closed_form_frame_matches_the_torus_oracle():
    # Y and Z (y and z clipped into [-1, 1]) enter both forms exactly, so
    # arccos's slope -1/sqrt(1 - Y^2), unbounded at +-1, amplifies no
    # error of its input; the oracle errs only by rounding its angles.
    # arccos, the scaling to turns, 1 - t, the sum theta + phi (at most
    # 2 turns) and the scaling back to at most 4 pi radians each round
    # within half an ulp of their result, under 5e-15 rad in all, and a
    # sine has slope at most 1; the closed form's sines err by a few
    # ulp of 1.  Each frame entry is a sine times at most
    # 2 pi (|V[0]| + |V[1]|) < 9, so the frames agree up to sign within
    # 9 * 6e-15 plus the oracle's own product rounding: 1e-13.
    tol = 1e-13
    windows = []
    for i, coupling in enumerate((0.02, 0.3, 0.5)):
        pts = empirical.sample_bounded_points(coupling, 100, 30, rng=40 + i)
        seq = trace_orbit(pts[:, 2], pts[:, 1], pts[:, 0], 30)
        windows.append(np.stack([seq[2:].ravel(), seq[1:-1].ravel(),
                                 seq[:-2].ravel()], axis=-1))
    # y or z exactly +-1, the singular points, and shadows clipped to a
    # vertex of the square
    on_one = np.array(list(itertools.product(
        (-0.7, 0.0, 0.3, 1.0), (-1.0, 1.0, 0.4), (-1.0, 1.0, -0.2))))
    outside = np.array(list(itertools.product(
        (-2.5, 0.3, 2.0), (-1.5, -1.0, 1.0, 1.2), (-3.0, -1.0, 1.0, 1.01))))
    p = np.concatenate(windows + [on_one, singular_points(), outside])
    e_u, e_s = empirical._unstable_frame(np.ascontiguousarray(p.T))
    r_u, r_s = _torus_frame_rows(p)
    got = np.concatenate([e_u.T, e_s.T], axis=-1)
    want = np.concatenate([r_u, r_s], axis=-1)
    # one sign per point, for both directions
    off = np.minimum(np.abs(got - want).max(axis=-1), np.abs(got + want).max(axis=-1))
    assert off.max() <= tol
    vertex = (np.abs(p[:, 1]) >= 1.0) & (np.abs(p[:, 2]) >= 1.0)
    assert np.all(got[vertex] == 0.0)
    # the windows reach vertex shadows, and the oracle leaves rounding
    # noise at some of them
    assert np.any(vertex[:sum(map(len, windows))])
    assert np.any(want[vertex] != 0.0)


def test_tangent_step_matches_einsum_on_trace_jacobian():
    # if numpy changes the order in which einsum adds DT's terms, this
    # fails here rather than as a shift in the certificate's output
    p, v = _helper_rows()
    want = np.einsum("nij,nj->ni", trace_jacobian(p), v)
    got = empirical._tangent_step(2.0 * p[:, 0], 2.0 * p[:, 1], v.T)
    assert _same_bits(got, want.T)
    # nonzero vectors step to the same bits, zero signs included
    rng = np.random.default_rng(4)
    v = rng.normal(size=p.shape) * np.exp(rng.uniform(-30, 30, size=p.shape))
    want = np.einsum("nij,nj->ni", trace_jacobian(p), v)
    got = empirical._tangent_step(2.0 * p[:, 0], 2.0 * p[:, 1], v.T)
    assert np.array_equal(got.view(np.int64), want.T.view(np.int64))
