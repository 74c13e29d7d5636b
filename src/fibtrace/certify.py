"""Numerical certificates for the expansion mechanism near a singularity.

The linearization of the trace map at the singular fixed point (1,1,1)
has eigenvalues ((3+sqrt5)/2, -1, (3-sqrt5)/2); the large one is the
square of the golden mean.  Synthetic model maps close to
diag(1/lambda, 1, lambda) with an invariant plane {z=0} let us test the
predicted cone expansion quantitatively: vectors in the cone

    |v_z| >= C2 sqrt(|z_p|) |v_xy|

must grow by at least lambda^((N/2)(1-4 eps)) by the time the orbit's
z-coordinate exits past 1, and end up within a sqrt(delta)-thin cone
around the z-axis.  The constants are fixed: lambda = LAMBDA_BIG, the
bound C1 on the second derivatives is 1 and the cone constant C2 is 1,
so a model map takes only 0 <= delta <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LAMBDA_BIG",
    "ExpansionReport",
    "ModelMap",
    "SingularEigenData",
    "cone_member_3d",
    "expansion_certificate",
    "expansion_certificates",
    "make_model_map",
    "sample_cone_vectors_3d",
    "singular_eigen",
]

LAMBDA_BIG = (3.0 + np.sqrt(5.0)) / 2.0

DT_SINGULAR = np.array(
    [
        [2.0, 2.0, -1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ]
)


@dataclass(frozen=True)
class SingularEigenData:
    matrix: np.ndarray
    eigenvalues: np.ndarray   # descending by magnitude: big, -1, small
    eigenvectors: np.ndarray  # columns matching eigenvalues


def singular_eigen() -> SingularEigenData:
    """Eigen-decomposition of the differential at the singular fixed point.

    The characteristic polynomial factors as (x + 1)(x^2 - 3x + 1), so
    the eigenvalues are (3 +- sqrt5)/2 and -1 exactly.
    """
    vals, vecs = np.linalg.eig(DT_SINGULAR)
    by_real = sorted(range(3), key=lambda i: -vals[i].real)
    # descending real parts give (big, small, -1); report (big, -1, small)
    idx = [by_real[0], by_real[2], by_real[1]]
    vals = vals[idx].real
    vecs = vecs[:, idx].real
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    return SingularEigenData(
        matrix=DT_SINGULAR.copy(), eigenvalues=vals, eigenvectors=vecs
    )


def cone_member_3d(v, z_p) -> bool | np.ndarray:
    """Membership in the cone |v_z| >= C2 sqrt(|z_p|) |v_xy|, C2 = 1.

    The boundary counts as inside: the defining inequality is non-strict.
    Accepts (..., 3) vectors with matching (...) heights z_p, each scaled
    exactly by the power of two that brings its largest |component| near 1.
    """
    v = np.asarray(v, dtype=float)
    top = np.max(np.abs(v), axis=-1)
    if np.any(top == 0.0):
        raise ValueError("zero vector has no cone membership")
    v = np.ldexp(v, -np.frexp(top)[1][..., None])
    v_xy = np.linalg.norm(v[..., :2], axis=-1)
    r = np.abs(v[..., 2]) >= np.sqrt(np.abs(z_p)) * v_xy
    return bool(r) if np.ndim(r) == 0 else r


#: the map's three waves sin a0, cos a1, sin a2 and their slopes
#: cos a0, sin a1, cos a2, a = (x + y, x - y, x) + phases, are the sines
#: of the arguments (a, a) shifted by these
_WAVE_SHIFTS = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]) * (np.pi / 2.0)
#: the diagonal of the linear part diag(1/lambda, 1, lambda)
_SCALE = np.array([1.0 / LAMBDA_BIG, 1.0, LAMBDA_BIG])


def _column(a: np.ndarray, ndim: int) -> np.ndarray:
    """A 1-d array shaped to broadcast along the first axis of ndim axes."""
    return a.reshape(a.shape + (1,) * (ndim - 1))


def _sum_squares(w: np.ndarray) -> np.ndarray:
    """x^2 + y^2 (+ z^2) of each column of a (k, ...) array, in that order."""
    s = w[0] * w[0]
    for c in w[1:]:
        s += c * c
    return s


def _norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a (k, n) array, coordinate first.

    The squares are summed in coordinate order, as ``np.linalg.norm``
    sums a row.  Where the plain norm is not finite, as when the squares
    of finite components overflow, the column is divided by its largest
    |component| first and its norm scaled back, so that only columns
    whose norm itself passes the float range, or that hold inf or NaN,
    come out inf or NaN.  Call it under ``np.errstate(over="ignore",
    invalid="ignore")``.
    """
    r = np.sqrt(_sum_squares(w))
    big = ~np.isfinite(r)
    if big.any():
        wb = w[:, big]
        top = np.max(np.abs(wb), axis=0)
        r[big] = top * np.sqrt(_sum_squares(wb / top))
    return r


@dataclass
class ModelMap:
    """A perturbation of diag(1/lambda, 1, lambda) fixing the plane {z=0}.

    The map is A p + (delta/8) z (sin a0, cos a1, sin a2) with
    a = (x + y, x - y, x) + phases.  The off-linear terms all carry a
    factor of z, so the plane is exactly invariant; phases make distinct
    seeds give distinct maps.  ``delta`` bounds ||Df - A|| over the
    working box (see ``make_model_map``).  Every method takes points
    coordinate first, as a (3, ...) array, and returns its values in the
    same layout.  The wave shifts are computed once, when the map is
    made.
    """

    delta: float
    phases: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        # the six shifts of the wave arguments (see ``_waves``)
        self._shifts = np.concatenate([self.phases, self.phases]) + _WAVE_SHIFTS

    @property
    def linear(self) -> np.ndarray:
        return np.diag(_SCALE)

    def _waves(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Waves (sin a0, cos a1, sin a2) and slopes (cos a0, sin a1, cos a2)."""
        x, y = p[0], p[1]
        plus, minus = x + y, x - y
        args = np.array([plus, minus, x, plus, minus, x])
        sines = np.sin(args + _column(self._shifts, p.ndim))
        return sines[:3], sines[3:]

    def _image(self, p: np.ndarray, waves: np.ndarray) -> np.ndarray:
        return p * _column(_SCALE, p.ndim) + (self.delta / 8.0) * p[2] * waves

    def __call__(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self._image(p, self._waves(p)[0])

    def jacobian(self, p) -> np.ndarray:
        """Differential at p, shape (3, 3, ...): column j is Df(p) e_j."""
        p = np.asarray(p, dtype=float)
        basis = (np.broadcast_to(_column(e, p.ndim), p.shape) for e in np.eye(3))
        return np.stack([self.push(p, e)[1] for e in basis], axis=1)

    def push(self, p, v) -> tuple[np.ndarray, np.ndarray]:
        """f(p) and Df(p) v together, for (3, ...) points and vectors.

        Df v = A v + (delta/8) (z slopes * (G v) + waves v_z), where the
        rows of G, the gradients of the wave arguments signed so that
        wave i's derivative is slope i times row i, are (1, 1, 0),
        (-1, 1, 0) and (1, 0, 0).
        """
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        waves, slopes = self._waves(p)
        s = self.delta / 8.0
        pushed = v * _column(_SCALE, v.ndim)
        pushed += (s * p[2]) * slopes * np.array([v[0] + v[1], v[1] - v[0], v[0]])
        pushed += s * waves * v[2]
        return self._image(p, waves), pushed


def make_model_map(delta: float = 1e-3, seed: int | None = None) -> ModelMap:
    """Construct a model map with lambda = LAMBDA_BIG and C1 = 1.

    On the box |p_i| <= 2, Df - A = (delta/8) (z diag(slopes) G +
    waves e_z^T), with G as in ``ModelMap.push``.  G^T G = diag(3, 2, 0),
    so ||G|| = sqrt 3; every slope and wave is at most 1 in size, so
    ||waves|| <= sqrt 3; and |z| <= 2.  Hence ||Df - A|| <=
    (delta/8) (2 sqrt 3 + sqrt 3) = (3 sqrt 3 / 8) delta, about
    0.650 delta < delta, for every phase, and nothing needs sampling.
    All second partials of the perturbation are bounded by
    (delta/8) (|z| + 2) <= delta/2 on the box, so C1 = 1 holds exactly
    when delta <= 2; a delta outside [0, 2] is refused.
    """
    if not 0.0 <= delta <= 2.0:
        raise ValueError(f"delta must be in [0, 2], got {delta}")
    rng = np.random.default_rng(seed)
    return ModelMap(delta=delta, phases=rng.uniform(0.0, 2.0 * np.pi, size=3))


@dataclass
class ExpansionReport:
    """Per-row checks of ``expansion_certificates``, each an (n,) array."""

    exit_time: np.ndarray                 # max_iter where the row did not exit
    exited: np.ndarray                    # False: inconclusive
    expansion_at_exit_ok: np.ndarray      # False where the row did not exit
    thin_cone_ok: np.ndarray              # False where the row did not exit
    expansion_along_orbit_ok: np.ndarray  # True where the eta-condition is unmet

    @property
    def all_ok(self) -> np.ndarray:
        return (
            self.exited
            & self.expansion_at_exit_ok
            & self.thin_cone_ok
            & self.expansion_along_orbit_ok
        )


def sample_cone_vectors_3d(z_p, rng=None) -> np.ndarray:
    """Random unit vectors in the cone at points with z-coordinates z_p.

    A (...) array of heights gives (..., 3) vectors.  Each has a uniform
    xy-direction and |v_z| / |v_xy| = sqrt(|z_p|) times a log-uniform
    factor in [1, 1e6], with a random sign.
    """
    rng = np.random.default_rng(rng)
    z_p = np.asarray(z_p, dtype=float)
    phi = rng.uniform(0.0, 2.0 * np.pi, z_p.shape)
    lift = np.exp(rng.uniform(0.0, np.log(1e6), z_p.shape))
    sign = rng.choice([-1.0, 1.0], z_p.shape)
    v = np.stack(
        [np.cos(phi), np.sin(phi), np.sqrt(np.abs(z_p)) * lift * sign], axis=-1
    )
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def expansion_certificates(
    m: ModelMap,
    P,
    V,
    epsilon: float = 0.1,
    eta: float = 0.5,
    max_iter: int = 100000,
) -> ExpansionReport:
    """Push cone vectors V at points P to their exit times, all together.

    Row i's N is the first iterate whose z-coordinate exceeds 1.  Checks,
    in the Euclidean norm: growth by lambda^((N/2)(1-4 eps)) at exit,
    final tilt |u_xy| < 2 sqrt(delta) |u_z|, and, when the start already
    has |v_z| >= eta |v_xy|, growth by (eta/2) lambda^((k/2)(1-4 eps)) at
    every intermediate step.  Only rows that have not exited are
    stepped, held coordinate first as (3, n) columns; a row still inside
    after ``max_iter`` steps is reported inconclusive.  Norms whose
    squares overflow are taken scaled by the row's largest |component|
    (``_norms``); a pushed vector whose growth is still not finite, as
    when its components overflow, raises ValueError.  Returns one report
    whose fields hold every row.
    """
    P = np.asarray(P, dtype=float)
    V = np.asarray(V, dtype=float)
    if P.ndim != 2 or P.shape[1] != 3 or V.shape != P.shape:
        raise ValueError("start points and vectors must be matching (n, 3)")
    if not np.all((P[:, 2] > 0.0) & (P[:, 2] < 1.0)):
        raise ValueError("start point must have z in (0, 1)")
    if not np.all(cone_member_3d(V, P[:, 2])):
        raise ValueError("start vector is outside the cone")
    n = len(P)
    rate = LAMBDA_BIG ** (0.5 * (1.0 - 4.0 * epsilon))
    exit_time = np.full(n, max_iter)
    w_exit = np.zeros((3, n))
    grew = np.zeros(n, dtype=bool)  # growth at exit met the bound
    dipped = np.zeros(n, dtype=bool)  # growth fell below the eta bound
    # the rows still stepping, and their points, vectors, starting
    # norms and dips, compacted as rows exit
    active = np.arange(n)
    q, w = P.T, V.T
    dip = np.zeros(n, dtype=bool)
    # overflow shows as a growth that is not finite, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        v_xy0 = _norms(w[:2])
        v0_norm = _norms(w)
        for k in range(1, max_iter + 1):
            if not len(active):
                break
            q, w = m.push(q, w)
            g = np.sqrt(_sum_squares(w)) / v0_norm
            if not np.isfinite(g).all():
                g = _norms(w) / v0_norm
                if not np.isfinite(g).all():
                    raise ValueError(f"pushed vector norm overflowed at step {k}")
            bound = rate**k
            dip |= g < 0.5 * eta * bound
            out = q[2] > 1.0
            if out.any():
                done = active[out]
                exit_time[done] = k
                w_exit[:, done] = w[:, out]
                grew[done] = g[out] >= bound
                dipped[done] = dip[out]
                keep = ~out
                active, q, w = active[keep], q[:, keep], w[:, keep]
                v0_norm, dip = v0_norm[keep], dip[keep]
        u_xy = _norms(w_exit[:2])
    exited = np.ones(n, dtype=bool)
    exited[active] = False
    u_z = np.abs(w_exit[2])
    if m.delta > 0.0:
        thin = u_xy < 2.0 * np.sqrt(m.delta) * u_z
    else:  # delta = 0: the xy-part cannot have grown at all
        thin = u_xy <= v_xy0 * (1.0 + 1e-12)
    eta_start = np.abs(V[:, 2]) >= eta * v_xy0
    return ExpansionReport(
        exit_time=exit_time,
        exited=exited,
        expansion_at_exit_ok=grew,
        thin_cone_ok=exited & thin,
        expansion_along_orbit_ok=~(eta_start & dipped),
    )


def expansion_certificate(
    m: ModelMap,
    p,
    v,
    epsilon: float = 0.1,
    eta: float = 0.5,
    max_iter: int = 100000,
) -> ExpansionReport:
    """One start point and cone vector; see ``expansion_certificates``.

    The report's fields are the one row's Python scalars.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    rep = expansion_certificates(m, p[None, :], v[None, :], epsilon, eta, max_iter)
    return ExpansionReport(*(row.item() for row in vars(rep).values()))
