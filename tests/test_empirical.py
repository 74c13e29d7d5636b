import numpy as np
import pytest

from fibtrace import empirical
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


def _reference_sample(coupling, n_samples, n_forward=30, norm_cap=10.0,
                      grid=160, rng=None):
    """The bounded-point draw written with np.linalg.norm for every norm."""
    rng = np.random.default_rng(rng)
    u = np.linspace(-0.999, 0.999, grid)
    xx, yy = np.meshgrid(u, u, indexing="ij")
    xx = xx + rng.uniform(-0.5, 0.5, xx.shape) * (u[1] - u[0])
    yy = yy + rng.uniform(-0.5, 0.5, yy.shape) * (u[1] - u[0])
    disc = (xx * xx - 1.0) * (yy * yy - 1.0) + coupling * coupling / 4.0
    ok = disc >= 0.0
    root = np.sqrt(np.where(ok, disc, 0.0))
    cand = np.concatenate([
        np.stack([xx[ok], yy[ok], (xx * yy + root)[ok]], axis=-1),
        np.stack([xx[ok], yy[ok], (xx * yy - root)[ok]], axis=-1),
    ])
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
    pts = cand[live]
    if len(pts) > n_samples:
        pts = pts[rng.choice(len(pts), size=n_samples, replace=False)]
    return pts


@pytest.mark.parametrize("coupling", [0.02, 0.05])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampler_matches_linalg_norm_reference(coupling, seed):
    pts = empirical.sample_bounded_points(coupling, 400, rng=seed)
    assert len(pts) == 400
    assert np.array_equal(pts, _reference_sample(coupling, 400, rng=seed))


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


# zeta bounds the cone as torus.cone_member_2d requires, epsilon the
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
    # figures of the earlier one-sample-at-a-time engine
    rep = empirical.empirical_trace_certificate(0.05, **kw)
    got = (rep.samples_total, rep.inconclusive, rep.cone_checks, rep.cone_hits)
    assert got == counts
    assert rep.min_expansion_ratio == pytest.approx(min_ratio, rel=1e-12)


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
