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
bound C1 on the second derivatives is 1, the cone constant C2 is 1,
eps = 0.1 and eta = 1/2, so a model map takes only 0 <= delta <= 2.
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
#: eps of the growth bound lambda^((N/2)(1-4 eps)), and eta, the cone
#: |v_z| >= eta |v_xy| of starts held to it at every step
_EPSILON = 0.1
_ETA = 0.5

DT_SINGULAR = np.array(
    [
        [2.0, 2.0, -1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ]
)


@dataclass(frozen=True)
class SingularEigenData:
    """The eigenpairs of ``DT_SINGULAR``."""

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
    return SingularEigenData(eigenvalues=vals, eigenvectors=vecs)


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
#: of the arguments (a, a) shifted by these, held as a column
_WAVE_SHIFTS = np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [1.0]]) * (np.pi / 2.0)
#: the diagonal of the linear part diag(1/lambda, 1, lambda), as a column
#: for the three point rows and the three vector rows of a model state
_SCALE = np.array([[1.0 / LAMBDA_BIG], [1.0], [LAMBDA_BIG]] * 2)


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
    working box, and C1 = 1 holds only for 0 <= delta <= 2, so any other
    delta is refused (see ``make_model_map``).  ``expansion_certificates``
    steps it by ``_step``, the one formula for f and Df, on a (6, n)
    state: points in rows 0 to 2 and vectors in rows 3 to 5, each
    column one point and its vector.  The wave shifts are computed
    once, when the map is made.
    """

    delta: float
    phases: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not 0.0 <= self.delta <= 2.0:
            raise ValueError(f"delta must be in [0, 2], got {self.delta}")
        # the six shifts of the wave arguments, as two (3, 1) columns
        self._shifts = (np.concatenate([self.phases, self.phases])[:, None]
                        + _WAVE_SHIFTS).reshape(2, 3, 1)

    def _arguments(self, p: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The six wave arguments (a, a) + shifts of (3, n) points p,
        written into rows 3 to 8 of the (9, n) buffer out, whose rows 0
        to 2 take a, and returned as a (6, n) view."""
        a, args = out[:3], out[3:]
        np.add(p[0], p[1], out=a[0])
        np.subtract(p[0], p[1], out=a[1])
        a[2] = p[0]
        np.add(a, self._shifts, out=args.reshape(2, 3, -1))
        return args

    def _sines(self, args: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The sines of the six wave arguments args into rows 0 to 5 of
        the (9, n) buffer out, waves (sin a0, cos a1, sin a2) then slopes
        (cos a0, sin a1, cos a2), and (delta/8) waves into rows 6 to 8;
        returns out."""
        np.sin(args, out=out[:6])
        np.multiply(self.delta / 8.0, out[:3], out=out[6:])
        return out

    def _step(self, state: np.ndarray, sines: np.ndarray, out: np.ndarray) -> None:
        """f(p) into out[:3] and Df(p) v into out[3:6], for the (6, n)
        state of points p and vectors v, given the ``_sines`` of p's wave
        arguments (``_arguments``).

        out is a (16, n) buffer that overlaps neither state nor sines;
        its rows 6 to 15 are scratch.  Df v = A v + (delta/8) (z slopes *
        (G v) + waves v_z), where the rows of G, the gradients of the
        wave arguments signed so that wave i's derivative is slope i
        times row i, are (1, 1, 0), (-1, 1, 0) and (1, 0, 0).  The
        products associate as ((delta/8) z) slopes (G v) and
        ((delta/8) waves) v_z, and f(p) = A p + ((delta/8) z) waves.
        Each sum is A p or A v plus the z-terms in the order written:
        a + b and b + a are the same bits, and nothing is regrouped.
        """
        v = state[3:]
        sz, szs, term = out[6], out[7:13], out[13:]
        np.multiply(self.delta / 8.0, state[2], out=sz)
        # ((delta/8) z) waves for f, and ((delta/8) z) slopes for Df
        np.multiply(sz, sines[:6], out=szs)
        # G v
        np.add(v[0], v[1], out=term[0])
        np.subtract(v[1], v[0], out=term[1])
        term[2] = v[0]
        szs[3:] *= term
        np.multiply(state, _SCALE, out=out[:6])
        out[:6] += szs
        np.multiply(sines[6:], v[2], out=term)
        out[3:6] += term


def make_model_map(delta: float = 1e-3, seed: int | None = None) -> ModelMap:
    """Construct a model map with lambda = LAMBDA_BIG and C1 = 1.

    On the box |p_i| <= 2, Df - A = (delta/8) (z diag(slopes) G +
    waves e_z^T), with G as in ``ModelMap._step``.  G^T G = diag(3, 2, 0),
    so ||G|| = sqrt 3; every slope and wave is at most 1 in size, so
    ||waves|| <= sqrt 3; and |z| <= 2.  Hence ||Df - A|| <=
    (delta/8) (2 sqrt 3 + sqrt 3) = (3 sqrt 3 / 8) delta, about
    0.650 delta < delta, for every phase, and nothing needs sampling.
    All second partials of the perturbation are bounded by
    (delta/8) (|z| + 2) <= delta/2 on the box, so C1 = 1 holds exactly
    when delta <= 2; ``ModelMap`` refuses a delta outside [0, 2].
    """
    rng = np.random.default_rng(seed)
    return ModelMap(delta=delta, phases=rng.uniform(0.0, 2.0 * np.pi, size=3))


@dataclass
class ExpansionReport:
    """Per-row checks of ``expansion_certificates``, each an (n,) array."""

    exit_time: np.ndarray
    expansion_at_exit_ok: np.ndarray
    thin_cone_ok: np.ndarray
    expansion_along_orbit_ok: np.ndarray  # True where the eta-condition is unmet

    @property
    def all_ok(self) -> np.ndarray:
        return (
            self.expansion_at_exit_ok
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


def _step_buffers(n: int):
    """Scratch of one step of ``expansion_certificates`` on n rows: the
    next state with ``ModelMap._step``'s scratch, the wave arguments,
    the squares and growths of the vectors, and the dip mask."""
    return (np.empty((16, n)), np.empty((9, n)), np.empty((3, n)),
            np.empty(n), np.empty(n, dtype=bool))


def expansion_certificates(m: ModelMap, P, V) -> ExpansionReport:
    """Push cone vectors V at points P to their exit times, all together.

    Row i's N is the first iterate whose z-coordinate exceeds 1.  Checks,
    in the Euclidean norm: growth by lambda^((N/2)(1-4 eps)) at exit,
    final tilt |u_xy| < 2 sqrt(delta) |u_z|, and, when the start already
    has |v_z| >= eta |v_xy|, growth by (eta/2) lambda^((k/2)(1-4 eps)) at
    every intermediate step.  Returns one report whose fields hold every
    row.

    Only rows that have not exited are stepped, until the last one
    exits.  Their points and vectors are one (6, n) state, in the first
    rows of one of two (16, n) buffers: each step is ``ModelMap._step``
    from the one into the other, and the two swap.  A step takes the
    sines of the six wave arguments only when these differ bitwise from
    those the last sines were taken of; otherwise it reuses the last
    sines, which are the same bits.  Far below z = 1 most steps reuse
    them: x has shrunk below half an ulp of y and of the phases, and
    (delta/8) z below half an ulp of y.  Each start vector is first
    scaled by the exact power of two that brings its largest
    |component| into [1/2, 1), as ``cone_member_3d`` scales it, so that
    its norm cannot underflow; a unit vector is scaled by 1 or 1/2.
    Each growth is the vector's squares, added in coordinate order by
    ``np.add.reduce`` over the rows, then a square root and a division,
    the bits of ``_norms``.  Where a growth is not finite the norms are
    taken again by ``_norms``, scaled by the row's largest |component|
    where the squares overflow; a growth still not finite, as when the
    components overflow, raises ValueError.  On an exit the state, the
    sines and the per-row flags are compacted, and the scratch buffers
    are made anew.

    Every row exits or raises.  The z-row z (lambda + (delta/8) sin a2)
    with 0 <= delta <= 2 gives z_{k+1} >= (lambda - 1/4) z_k, whatever
    the phases, x and y.  Its four roundings in float64, with lambda
    stored within 2u (u = 2^-53), each err by at most u of the result or,
    where (delta/8) z is subnormal, 2^-1075 <= u z, so for normal z the
    computed z_{k+1} >= rho z_k, rho = (lambda - 1/4)(1 - 2^-50).  A
    normal z_0 < 1 thus exits within floor(log(1/z_0) / log rho) + 1
    steps, which is ceil(log(1/z_0) / log(lambda - 1/4)) but where that
    quotient is within 1e-12 of an integer: 1, 268 and 822 from 1/2,
    1e-100 and 2^-1022, the most of any normal start.  A subnormal z_0
    of j units 2^-1074 rounds to at least (lambda - 1/4) j - 1 >= 1.36 j
    units, so it is normal within 120 steps.  A NaN wave, as where x + y
    overflows, makes the pushed vector NaN, which raises at once.
    """
    P = np.asarray(P, dtype=float)
    V = np.asarray(V, dtype=float)
    if P.ndim != 2 or P.shape[1] != 3 or V.shape != P.shape:
        raise ValueError("start points and vectors must be matching (n, 3)")
    if not np.all((P[:, 2] > 0.0) & (P[:, 2] < 1.0)):
        raise ValueError("start point must have z in (0, 1)")
    if not np.all(cone_member_3d(V, P[:, 2])):
        raise ValueError("start vector is outside the cone")
    # the exact power of two that brings each row's largest |component|
    # into [1/2, 1), so that no start norm underflows; every check is
    # a ratio of norms of one row, which the scaling leaves unchanged
    V = np.ldexp(V, -np.frexp(np.max(np.abs(V), axis=1))[1][:, None])
    n = len(P)
    rate = LAMBDA_BIG ** (0.5 * (1.0 - 4.0 * _EPSILON))
    exit_time = np.zeros(n, dtype=int)
    w_exit = np.zeros((3, n))
    grew = np.zeros(n, dtype=bool)  # growth at exit met the bound
    dipped = np.zeros(n, dtype=bool)  # growth fell below the eta bound
    # the rows still stepping, their starting norms and dips, their
    # state (rows 0-5 of state), and the sines of the wave arguments
    # whose bytes are last, all compacted as rows exit
    active = np.arange(n)
    dip = np.zeros(n, dtype=bool)
    state = np.empty((16, n))
    state[:3], state[3:6] = P.T, V.T
    sines = np.empty((9, n))
    last = None
    nxt, args, sq, g, low = _step_buffers(n)
    # overflow shows as a growth that is not finite, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        v_xy0 = _norms(state[3:5])
        v0_norm = _norms(state[3:6])
        k = 0
        while len(active):
            k += 1
            a = m._arguments(state[:3], args)
            key = a.tobytes()
            if key != last:
                last = key
                m._sines(a, sines)
            m._step(state[:6], sines, nxt)
            state, nxt = nxt, state
            w = state[3:6]
            np.multiply(w, w, out=sq)
            np.add.reduce(sq, axis=0, out=g)
            np.sqrt(g, out=g)
            g /= v0_norm
            if not g.max() < np.inf:
                np.divide(_norms(w), v0_norm, out=g)
                if not np.isfinite(g).all():
                    raise ValueError(f"pushed vector norm overflowed at step {k}")
            bound = rate**k
            np.less(g, 0.5 * _ETA * bound, out=low)
            dip |= low
            exited = state[2] > 1.0
            if exited.any():
                done = active[exited]
                exit_time[done] = k
                w_exit[:, done] = w[:, exited]
                grew[done] = g[exited] >= bound
                dipped[done] = dip[exited]
                keep = ~exited
                active, state, sines = active[keep], state[:, keep], sines[:, keep]
                v0_norm, dip = v0_norm[keep], dip[keep]
                last = a[:, keep].tobytes()
                nxt, args, sq, g, low = _step_buffers(len(active))
        u_xy = _norms(w_exit[:2])
    u_z = np.abs(w_exit[2])
    if m.delta > 0.0:
        thin = u_xy < 2.0 * np.sqrt(m.delta) * u_z
    else:  # delta = 0: the xy-part cannot have grown at all
        thin = u_xy <= v_xy0 * (1.0 + 1e-12)
    eta_start = np.abs(V[:, 2]) >= _ETA * v_xy0
    return ExpansionReport(
        exit_time=exit_time,
        expansion_at_exit_ok=grew,
        thin_cone_ok=thin,
        expansion_along_orbit_ok=~(eta_start & dipped),
    )


def expansion_certificate(m: ModelMap, p, v) -> ExpansionReport:
    """One start point and cone vector; see ``expansion_certificates``.

    The report's fields are the one row's Python scalars.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    rep = expansion_certificates(m, p[None, :], v[None, :])
    return ExpansionReport(*(row.item() for row in vars(rep).values()))
