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
    Accepts (..., 3) vectors with matching (...) heights z_p.
    """
    v = np.asarray(v, dtype=float)
    if np.any(np.linalg.norm(v, axis=-1) == 0.0):
        raise ValueError("zero vector has no cone membership")
    v_xy = np.linalg.norm(v[..., :2], axis=-1)
    r = np.abs(v[..., 2]) >= np.sqrt(np.abs(z_p)) * v_xy
    return bool(r) if np.ndim(r) == 0 else r


#: the wave arguments (x + y, x - y, x), twice: the map's three waves
#: sin a0, cos a1, sin a2 and their slopes cos a0, sin a1, cos a2 are
#: the sines of these six arguments shifted by _WAVE_SHIFTS
_WAVE_ARGS = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
_WAVE_ARGS = np.vstack([_WAVE_ARGS, _WAVE_ARGS])
_WAVE_SHIFTS = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]) * (np.pi / 2.0)
#: row i: gradient of wave i's argument, signed so that wave i's
#: derivative is (its slope) * (this row)
_WAVE_GRAD = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
#: d(z * wave)/dz: the waves themselves, in the z-column of Df
_Z_COLUMN = np.array([0.0, 0.0, 1.0])
#: the diagonal of the linear part diag(1/lambda, 1, lambda)
_SCALE = np.array([1.0 / LAMBDA_BIG, 1.0, LAMBDA_BIG])


def _spectral_norms(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (..., 3, 3) array.

    The square root of the largest eigenvalue of the Gram matrix
    G = M^T M, in closed form (Smith, CACM 4, 1961): with q = tr G / 3,
    p = ||G - q I||_F / sqrt 6 and r = det(G - q I) / (2 p^3) in [-1, 1],
    it is q + 2 p cos(arccos(r) / 3).  Each M is first divided by its
    largest |entry|, so G neither overflows nor underflows; p = 0 means
    G = q I, whose eigenvalue is q.  The result is within a few ulp of
    the SVD's (1e-14 relative on the audit's matrices) except where the
    two largest singular values nearly coincide: there r is near -1,
    where arccos magnifies its rounding, and the error reaches about
    sqrt(eps) relative (4e-9 at an exact double).
    """
    top = np.max(np.abs(m), axis=(-2, -1))
    top = np.where(top > 0.0, top, 1.0)
    m = m / top[..., None, None]
    g = np.einsum("...ki,...kj->...ij", m, m)
    q = np.trace(g, axis1=-2, axis2=-1) / 3.0
    b = g - q[..., None, None] * np.eye(3)
    p = np.sqrt(np.sum(b * b, axis=(-2, -1)) / 6.0)
    det = (
        b[..., 0, 0] * (b[..., 1, 1] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 1])
        - b[..., 0, 1] * (b[..., 1, 0] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 0])
        + b[..., 0, 2] * (b[..., 1, 0] * b[..., 2, 1] - b[..., 1, 1] * b[..., 2, 0])
    )
    r = np.clip(det / np.where(p > 0.0, 2.0 * p**3, 1.0), -1.0, 1.0)
    largest = q + 2.0 * p * np.cos(np.arccos(r) / 3.0)
    return top * np.sqrt(np.maximum(largest, 0.0))


def _row_norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (n, k) array.

    Where the plain norm is not finite, as when the squares of finite
    components overflow, the row is divided by its largest |component|
    first and its norm scaled back, so that only rows whose norm itself
    passes the float range, or that hold inf or NaN, come out inf or NaN.
    """
    with np.errstate(over="ignore"):
        r = np.linalg.norm(w, axis=-1)
    big = ~np.isfinite(r)
    if big.any():
        wb = w[big]
        top = np.max(np.abs(wb), axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):
            r[big] = top * np.linalg.norm(wb / top[:, None], axis=-1)
    return r


@dataclass
class ModelMap:
    """A perturbation of diag(1/lambda, 1, lambda) fixing the plane {z=0}.

    The off-linear terms all carry a factor of z, so the plane is
    exactly invariant; phases make distinct seeds give distinct maps.
    ``delta`` is the audited bound on ||Df - A|| over the working box.
    Every method takes (..., 3) arrays of points.  The wave shifts are
    computed once, when the map is made.
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
        """Waves (sin a0, cos a1, sin a2) and slopes (cos a0, sin a1, cos a2).

        a = (x + y, x - y, x) + phases.  The map adds (delta/8) z waves
        to its linear part.
        """
        sines = np.sin(p @ _WAVE_ARGS.T + self._shifts)
        return sines[..., :3], sines[..., 3:]

    def _image(self, p: np.ndarray, waves: np.ndarray) -> np.ndarray:
        return p * _SCALE + (self.delta / 8.0) * p[..., 2:3] * waves

    def __call__(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self._image(p, self._waves(p)[0])

    def _wave_differential(self, p: np.ndarray) -> np.ndarray:
        """Df(p) - A: the differential of the (delta/8) z waves."""
        waves, slopes = self._waves(p)
        part = p[..., 2, None, None] * slopes[..., :, None] * _WAVE_GRAD
        part += waves[..., :, None] * _Z_COLUMN
        part *= self.delta / 8.0
        return part

    def jacobian(self, p) -> np.ndarray:
        """Differential at p, shape (..., 3, 3)."""
        p = np.asarray(p, dtype=float)
        return self.linear + self._wave_differential(p)

    def push(self, p, v) -> tuple[np.ndarray, np.ndarray]:
        """f(p) and Df(p) v together, for (..., 3) points and vectors."""
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        waves, slopes = self._waves(p)
        s = self.delta / 8.0
        pushed = v * _SCALE
        pushed += (s * p[..., 2:3]) * slopes * (v @ _WAVE_GRAD.T)
        pushed += s * waves * v[..., 2:3]
        return self._image(p, waves), pushed

    def audit(self, samples: int = 10000, rng=None) -> dict:
        """Sampled check of the structural hypotheses on the box |p_i| <= 2."""
        rng = np.random.default_rng(rng)
        pts = rng.uniform(-2.0, 2.0, size=(samples, 3))
        dev = _spectral_norms(self._wave_differential(pts))
        worst_df = float(dev.max(initial=0.0))
        xy = rng.uniform(-2.0, 2.0, size=(64, 2))
        plane = np.column_stack([xy, np.zeros(len(xy))])
        plane_drift = float(np.max(np.abs(self(plane)[:, 2])))
        return {
            "df_deviation": worst_df,
            "df_ok": worst_df < self.delta or self.delta == 0.0,
            "plane_invariant": plane_drift == 0.0,
        }


def make_model_map(delta: float = 1e-3, seed: int | None = None) -> ModelMap:
    """Construct and audit a model map with lambda = LAMBDA_BIG and C1 = 1.

    All second partials of the perturbation are bounded by
    (delta/8) (|z| + 2) <= delta/2 on the audit's box, so C1 = 1 holds
    exactly when delta <= 2; a delta outside [0, 2] is refused.
    """
    if not 0.0 <= delta <= 2.0:
        raise ValueError(f"delta must be in [0, 2], got {delta}")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    m = ModelMap(delta=delta, phases=phases)
    report = m.audit(rng=rng)
    if delta > 0.0 and not report["df_ok"]:
        raise ValueError(
            f"construction failed its own audit: ||Df - A|| reached "
            f"{report['df_deviation']:.3e} >= delta={delta:g}"
        )
    return m


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
    stepped; a row still inside after ``max_iter`` steps is reported
    inconclusive.  Norms whose squares overflow are taken scaled by the
    row's largest |component| (``_row_norms``); a pushed vector whose
    growth is still not finite, as when its components overflow, raises
    ValueError.  Returns one report whose fields hold every row.
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
    v_xy0 = _row_norms(V[:, :2])
    rate = LAMBDA_BIG ** (0.5 * (1.0 - 4.0 * epsilon))
    eta_start = np.abs(V[:, 2]) >= eta * v_xy0
    exit_time = np.full(n, max_iter)
    w_exit = np.zeros((n, 3))
    grew = np.zeros(n, dtype=bool)  # growth at exit met the bound
    dipped = np.zeros(n, dtype=bool)  # growth fell below the eta bound
    # the rows still stepping, and their points, vectors, starting
    # norms and dips, compacted as rows exit
    active = np.arange(n)
    q, w = P, V
    v0_norm = _row_norms(V)
    dip = np.zeros(n, dtype=bool)
    for k in range(1, max_iter + 1):
        if not len(active):
            break
        q, w = m.push(q, w)
        with np.errstate(over="ignore"):
            g = _row_norms(w) / v0_norm
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
    u_xy = _row_norms(w_exit[:, :2])
    u_z = np.abs(w_exit[:, 2])
    if m.delta > 0.0:
        thin = u_xy < 2.0 * np.sqrt(m.delta) * u_z
    else:  # delta = 0: the xy-part cannot have grown at all
        thin = u_xy <= v_xy0 * (1.0 + 1e-12)
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
