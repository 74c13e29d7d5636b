"""Empirical expansion certificate for the trace map at small coupling.

Samples surface points over uniform random (x, y) nodes in the square
(-1, 1)^2 whose orbits stay bounded in both time directions (a
computable stand-in for the non-wandering set), equips them with
unstable directions pulled over from the V=0 cone family through the
torus semiconjugacy, and pushes those vectors through the differential
of the trace map along orbit segments.  Reported are the worst expansion
ratio against mu^(n(1-4 eps)) and the fraction of steps, away from the
singular points, where the vector stayed inside the unstable cone.
A step whose V=0 shadow is a vertex of the square, where the cone field
vanishes, is counted apart as undecided.

The certificate works on the whole orbit window at once: one
``trace_orbit`` call gives every sample's n + 1 orbit points, and the
masks, torus frames and seed vectors are computed on all of them
together.  Only the transport of the carried vectors, which resets
inside the singular neighborhoods, runs step by step; the cone test
then runs once, on every (step, sample) pair it checked.  Points,
frames and vectors are held coordinate first, as (3, m) columns: the
orbit's x, y and z rows are slices of the ``trace_orbit`` array.  Every
sum over the three coordinates is written out in the order numpy's
reductions, ``einsum`` and stacked matmuls add it, so the counts and
ratios are those of the row-major (m, 3) engine bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import torus
from .certify import singular_eigen
from .tracemap import singular_points, surface_points, trace_orbit
# trace_step is not called here, but perfbench/spans.py looks it up here
from .tracemap import trace_step  # noqa: F401

__all__ = [
    "EmpiricalReport",
    "empirical_trace_certificate",
    "sample_bounded_points",
]


#: the norm a sampled point's orbit stays within, both ways
_NORM_CAP = 10.0
#: the most candidate points one draw screens
_MAX_CANDIDATES = 51_200


def _bounded_rows(x, y, z, n_steps: int, norm_cap, backward: bool) -> np.ndarray:
    """Mask of the rows whose next ``n_steps`` points, forward or backward,
    have norm <= norm_cap (a number, or one cap per row), each norm
    summed x^2 + y^2 + z^2 in that order, as ``np.linalg.norm`` sums it.
    """
    s = trace_orbit(x, y, z, n_steps) if backward else trace_orbit(z, y, x, n_steps)
    with np.errstate(over="ignore"):
        sq = s * s
    # T^(+-k)(p) is (s_k, s_{k+1}, s_{k+2}), reversed going forward
    x_sq, z_sq = (sq[1:-2], sq[3:]) if backward else (sq[3:], sq[1:-2])
    return np.all(np.sqrt(x_sq + sq[2:-1] + z_sq) <= norm_cap, axis=0)


def _off_vertices(x, y, z) -> np.ndarray:
    """Mask of the rows farther than 1e-6 from every singular vertex."""
    keep = np.ones(len(x), dtype=bool)
    for s in singular_points():
        dx, dy, dz = x - s[0], y - s[1], z - s[2]
        keep &= np.sqrt(dx * dx + dy * dy + dz * dz) > 1e-6
    return keep


def sample_bounded_points(
    coupling: float,
    n_samples: int,
    n_forward: int = 30,
    rng=None,
) -> np.ndarray:
    """Surface points bounded for n_forward steps in both directions.

    Candidates are drawn in chunks.  A chunk of n nodes is drawn
    uniformly in the square (-1, 1)^2 that holds the bounded component,
    and each node gives the points of both z-sheets of the surface over
    it: inside the square (x^2 - 1)(y^2 - 1) >= 0, so both are real.
    One ``rng.permutation`` shuffles the chunk's 2n points, which are
    then screened in that order.  The first chunk has n_samples nodes,
    and chunks double until n_samples points have passed, or until
    ``_MAX_CANDIDATES`` points have been screened; the first n_samples
    that passed are returned, or all of them when fewer pass.  The
    singular vertices themselves are excluded; everything else near
    them is handled downstream by the singular-neighborhood radius.

    A point passes if each of its next n_forward points, forward and
    backward, has norm <= ``_NORM_CAP``.  Each chunk is screened forward,
    and the points that pass backward, by one ``tracemap.trace_orbit``
    call per direction.  Its norms are summed as ``np.linalg.norm`` sums
    them, so the points kept are those kept by stepping ``trace_step``
    and the inverse step (y, z, 2yz - x) row by row.  A row that escapes
    runs on to inf or NaN and fails every later step.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    rng = np.random.default_rng(rng)
    kept, found, screened, size = [np.empty((0, 3))], 0, 0, n_samples
    while found < n_samples and screened < _MAX_CANDIDATES:
        size = min(size, (_MAX_CANDIDATES - screened) // 2)
        x, y, z = surface_points(coupling, *rng.uniform(-1.0, 1.0, (2, size)))
        pts = np.stack([x, y, z], axis=-1)[rng.permutation(2 * size)]
        pts = pts[_off_vertices(*pts.T)]
        pts = pts[_bounded_rows(*pts.T, n_forward, _NORM_CAP, False)]
        pts = pts[_bounded_rows(*pts.T, n_forward, _NORM_CAP, True)]
        kept.append(pts)
        found += len(pts)
        screened += 2 * size
        size *= 2
    return np.concatenate(kept)[:n_samples]


#: the torus eigen-directions as the rows (V_U, V_S), scaled by the
#: factor -2 pi that the semiconjugacy's Jacobian carries
_TORUS_FRAME = -2.0 * np.pi * np.array([torus.V_U, torus.V_S])
#: offsets, in rows of a trace_orbit array, of a window point's x, y, z
_LAGS = np.array([[2], [1], [0]])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b of each column of two (3, ...) arrays, summed in coordinate
    order, as ``np.sum`` sums a length-3 axis (up to the sign of a zero
    sum, which no caller's result depends on)."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _unstable_frame(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pushed-forward unstable/stable directions at the V=0 shadows of q.

    Takes (3, m) points and returns two (3, m) direction arrays, DF V_U
    and DF V_S.  DF is the Jacobian of the semiconjugacy F(theta, phi) =
    (cos 2pi(theta + phi), cos 2pi theta, cos 2pi phi) at a preimage of
    the shadow (x, Y, Z), Y and Z the point's y and z clipped into
    [-1, 1].  DF = -2pi [[S, S], [s_theta, 0], [0, s_phi]] with S =
    sin 2pi(theta + phi), s_theta = sin 2pi theta and s_phi =
    sin 2pi phi, and the shadow fixes these three sines without any
    angle being taken:

    - cos 2pi theta = Y, so s_theta = +-sqrt((1 - Y)(1 + Y)), and
      s_phi = +-sqrt((1 - Z)(1 + Z)) likewise;
    - cos 2pi(theta + phi) = Y Z - s_theta s_phi, and
      S = s_theta Z + Y s_phi.

    Of the four sign choices, (theta, phi) and (-theta, -phi) give the
    same cosine and negate DF, and with it the frame.  Every use of the
    frame is blind to its sign, so s_theta >= 0 is taken, and s_phi
    takes the sign whose cosine, Y Z - s_theta s_phi, is nearer x, the
    plus root on a tie.  That is the preimage ``torus.invert_semiconj``
    picks, up to the negation and the rounding of its arccos.  Where Y
    and Z both lie at +-1, as at a shadow clipped to a vertex of the
    square, all three sines and the frame are exactly 0.
    """
    y = np.clip(q[1], -1.0, 1.0)
    z = np.clip(q[2], -1.0, 1.0)
    s_th = np.sqrt((1.0 - y) * (1.0 + y))
    s_ph = np.sqrt((1.0 - z) * (1.0 + z))
    yz = y * z
    both = s_th * s_ph
    flip = np.abs(yz + both - q[0]) < np.abs(yz - both - q[0])
    np.negative(s_ph, out=s_ph, where=flip)
    s_sum = s_th * z + y * s_ph
    frame = np.empty((2,) + q.shape)
    np.multiply(_TORUS_FRAME[:, :1] + _TORUS_FRAME[:, 1:], s_sum, out=frame[:, 0])
    np.multiply(_TORUS_FRAME[:, :1], s_th, out=frame[:, 1])
    np.multiply(_TORUS_FRAME[:, 1:], s_ph, out=frame[:, 2])
    return frame[0], frame[1]


def _project_tangent(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Remove from each v its component normal to the surface through p.

    Takes (3, m) vectors and points.  Rows whose surface gradient
    (nearly) vanishes keep v unchanged.
    """
    x, y, z = p
    two_x, two_y = 2.0 * x, 2.0 * y
    grad = np.array([two_x - two_y * z, two_y - two_x * z, 2.0 * z - two_x * y])
    g2 = _dot(grad, grad)
    flat = g2 < 1e-14
    scale = _dot(v, grad) / np.where(flat, 1.0, g2)
    return v - np.where(flat, 0.0, scale) * grad


def _frame_coefficients(e_u, e_s, w) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of each w on the basis (e_u, e_s).

    Takes (3, m) arrays.  Solves the 2x2 normal equations in closed
    form.  Where the Gram determinant is 0 the basis has rank <= 1 (it
    vanishes where the semiconjugacy's differential does), and the
    minimum-norm solution B^T w / ||B||_F^2, or 0 for B = 0, is
    returned, as lstsq would.
    """
    a = _dot(e_u, e_u)
    b = _dot(e_u, e_s)
    c = _dot(e_s, e_s)
    r_u = _dot(e_u, w)
    r_s = _dot(e_s, w)
    det = a * c - b * b
    full = det > 0.0
    trace = a + c
    den = np.where(full, det, np.where(trace > 0.0, trace, 1.0))
    coef_u = np.where(full, c * r_u - b * r_s, r_u) / den
    coef_s = np.where(full, a * r_s - b * r_u, r_s) / den
    return coef_u, coef_s


def _window_points(seq: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(3, len(j)) x, y, z of the points j of an orbit window.

    seq is a (n_forward + 3, n) ``trace_orbit`` array of n samples.  Its
    window point j = k n + i is T^k of sample i, (s_{k+2}, s_{k+1}, s_k)
    of that sample's sequence: entries j + 2n, j + n and j of seq
    flattened.
    """
    return seq.reshape(-1)[j + seq.shape[1] * _LAGS]


def _tangent_step(two_x: np.ndarray, two_y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """DT(p) v = (2y v0 + 2x v1 - v2, v0, v1) for (3, ...) columns v.

    Takes 2x and 2y of the points p.  The first row is summed as
    (2y v0 - v2) + 2x v1, the order in which ``np.einsum("nij,nj->ni")``
    adds DT's terms, so finite vectors step to the same bits, but for
    the sign of a zero (einsum adds 0 v1 and 0 v2 to v0).
    """
    out = np.empty_like(v)
    np.multiply(two_y, v[0], out=out[0])
    out[0] -= v[2]
    out[0] += two_x * v[1]
    out[1:] = v[:2]
    return out


@dataclass
class EmpiricalReport:
    """The statistics of ``empirical_trace_certificate``.

    A sample is used when its orbit had at least one decided cone check
    and its transported vector a finite, nonzero final stretch; the
    others are inconclusive.
    """

    samples_total: int
    samples_used: int
    min_expansion_ratio: float
    cone_checks: int
    cone_hits: int
    cone_undecided: int  # checks at a vertex shadow, in neither count
    per_sample_ratios: np.ndarray = field(repr=False)

    @property
    def inconclusive(self) -> int:
        return self.samples_total - self.samples_used

    @property
    def cone_invariance_fraction(self) -> float:
        return self.cone_hits / self.cone_checks if self.cone_checks else 0.0

    @property
    def inconclusive_rate(self) -> float:
        return (
            self.inconclusive / self.samples_total if self.samples_total else 1.0
        )


def _eigenframe_distance(p, inv_frame: np.ndarray) -> np.ndarray:
    """Distance to the nearest singular point, in the eigenbasis frame.

    Takes the x, y and z (m,) arrays of the points, as a (3, m) array or
    a sequence of three, and returns an (m,) array.  The offsets to the
    four points go through one inv_frame @ (3, 4m) matmul, whose bits
    are those of the row-major (4m, 3) @ inv_frame.T, and each norm is
    summed a^2 + b^2 + c^2 in that order, as ``np.linalg.norm`` sums it.
    """
    m = len(p[0])
    offsets = np.empty((3, 4, m))
    for coord, s, out in zip(p, singular_points().T, offsets):
        np.subtract(coord, s[:, None], out=out)
    e = inv_frame @ offsets.reshape(3, -1)
    e *= e
    r = np.sqrt(e[0] + e[1] + e[2]).reshape(4, m)
    return np.minimum(np.minimum(r[0], r[1]), np.minimum(r[2], r[3]))


def empirical_trace_certificate(
    coupling: float,
    sample_size: int = 1000,
    n_forward: int = 30,
    epsilon: float = 0.1,
    zeta: float = 0.1,
    singular_radius: float = 0.05,
    rng=None,
) -> EmpiricalReport:
    """Cone invariance and expansion statistics along bounded orbits.

    For each sampled point the unstable direction of the V=0 factor is
    projected onto the tangent plane of S_V and transported through the
    trace-map differential for ``n_forward`` steps.  Cone membership is
    tested at every step whose orbit point lies outside the declared
    singular neighborhoods (measured in the eigenframe of the singular
    differential); the expansion ratio compares the final stretch with
    mu^(n(1-4 eps)).  The whole orbit window is computed up front and
    only the vector transport runs step by step (see ``_certify_points``).
    The points are drawn by ``sample_bounded_points``.
    """
    if not 0.0 < coupling <= 0.5:
        raise ValueError("empirical certificate expects 0 < V <= 0.5")
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    if not 0.0 < epsilon < 0.25:
        raise ValueError("epsilon must be in (0, 0.25)")
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must be in (0, 1)")
    if not singular_radius >= 0.0:
        raise ValueError("singular_radius must be >= 0")
    pts = sample_bounded_points(coupling, sample_size, n_forward, rng=rng)
    return _certify_points(pts, n_forward, epsilon, zeta, singular_radius)


def _certify_points(
    pts: np.ndarray,
    n_forward: int,
    epsilon: float,
    zeta: float,
    singular_radius: float,
) -> EmpiricalReport:
    """The statistics of ``empirical_trace_certificate`` at given (n, 3)
    bounded points.

    Everything that depends only on the orbit is computed once, on the
    whole window of m = (n_forward + 1) n orbit points from one
    ``trace_orbit`` call: the far-from-singular masks and, on the far
    points, the torus frames and the unit seed vectors.  The step loop
    then only seeds, resets and transports the carried vectors and
    records which (step, row) pairs are checked; the cone test runs
    once, on every recorded pair.  The two vectors a row carries, the
    one reset in the singular neighborhoods and the one carried over
    the whole window, are one (3, 2, n) array that one
    ``_tangent_step`` call steps; seeds and resets are ``np.copyto``
    under masks made once.  Point j of the window, j = k n + i, is T^k
    of sample i (see ``_window_points``).
    """
    frame = singular_eigen().eigenvectors
    inv_frame = np.linalg.inv(frame)
    target = torus.MU ** (n_forward * (1.0 - 4.0 * epsilon))
    n = len(pts)
    seq = trace_orbit(pts[:, 2], pts[:, 1], pts[:, 0], n_forward)
    # a point that is stepped, one of T^k(pts) for k < n_forward, must be
    # finite, as trace_step requires
    if n_forward and not np.all(np.isfinite(seq[:-1])):
        raise ValueError("point has non-finite coordinates")
    x, y, z = seq[2:], seq[1:-1], seq[:-2]
    far = _eigenframe_distance(
        (x.reshape(-1), y.reshape(-1), z.reshape(-1)), inv_frame
    ) >= singular_radius
    # frames are needed only where a vector is seeded or checked, and
    # both happen only on far points
    at = np.flatnonzero(far)
    q_far = _window_points(seq, at)
    u_far, s_far = _unstable_frame(q_far)
    w0 = _project_tangent(u_far, q_far)
    n0 = np.sqrt(_dot(w0, w0))
    good = n0 > 1e-10
    shape = (n_forward + 1, n)
    seedable = np.zeros(shape, dtype=bool)
    seedable.reshape(-1)[at[good]] = True
    unit = np.zeros((3,) + shape)
    unit.reshape(3, -1)[:, at[good]] = w0[:, good] / n0[good]
    del q_far, w0, n0, good
    far = far.reshape(shape)
    two_x, two_y = 2.0 * x[:-1], 2.0 * y[:-1]
    # the carried vector v is dropped inside every singular neighborhood
    # and re-seeded on exit, mirroring how the orbit is split into
    # segments between near-singular passages; v_total is transported
    # over the whole window from the first seeding, for the ratio.  Both
    # are held in one (3, 2, n) array, v then v_total, and stepped by one
    # call
    pair = np.zeros((3, 2, n))
    has_total = np.zeros(n, dtype=bool)
    seed, first = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    near = ~far[:-1]
    carried = np.zeros((3, n_forward, n))  # v after each step
    # free[k + 1]: the rows that carry no v through step k
    free = np.ones((n_forward + 1, n), dtype=bool)
    for k in range(n_forward):
        np.logical_and(seedable[k], free[k], out=seed)
        np.copyto(pair[:, 0], unit[:, k], where=seed)
        np.greater(seed, has_total, out=first)
        np.copyto(pair[:, 1], unit[:, k], where=first)
        has_total |= first
        # seeds are free rows at far points: free & ~seed is free != seed,
        # and no seed is reset
        np.not_equal(free[k], seed, out=free[k + 1])
        free[k + 1] |= near[k]
        np.copyto(pair[:, 0], 0.0, where=free[k + 1])
        pair = _tangent_step(two_x[k], two_y[k], pair)
        carried[:, k] = pair[:, 0]
    held = ~free[1:]  # a v carried through each step
    v_total = pair[:, 1]
    # the vector sample i carried through step k is checked at window
    # point (k + 1) n + i, a far point, whose frame is the column of
    # u_far and s_far at its rank in at
    pairs = np.flatnonzero(held & far[1:])
    w = _project_tangent(carried.reshape(3, -1)[:, pairs],
                         _window_points(seq, pairs + n))
    rank = np.searchsorted(at, pairs + n)
    u_check = u_far[:, rank]
    coef_u, coef_s = _frame_coefficients(u_check, s_far[:, rank], w)
    # at a vertex shadow the frame is exactly 0 and tests no cone: such a
    # check is undecided, and its coefficients, 0 and 0, are no hit.  The
    # frame is 0 where its rows 1 and 2, multiples of the two sines, are
    decided = (u_check[1] != 0.0) | (u_check[2] != 0.0)
    cone_checks = int(np.count_nonzero(decided))
    cone_hits = int(np.count_nonzero(np.abs(coef_u) > np.abs(coef_s) / zeta))
    # a sample counts only if some check of it tested a cone
    checked = np.zeros(n, dtype=bool)
    checked[pairs[decided] % n] = True
    g = np.sqrt(_dot(v_total, v_total))
    used = has_total & checked & np.isfinite(g) & (g != 0.0)
    ratios = g[used] / target
    return EmpiricalReport(
        samples_total=n,
        samples_used=len(ratios),
        min_expansion_ratio=float(ratios.min()) if len(ratios) else np.nan,
        cone_checks=cone_checks,
        cone_hits=cone_hits,
        cone_undecided=len(pairs) - cone_checks,
        per_sample_ratios=ratios,
    )
