"""Coupled recurrence sequences behind the near-singularity expansion bound.

Two families are generated.  The exact pair

    d_{k+1} = (1 + 2 delta) d_k + delta D_k
    D_{k+1} = (lambda - delta) D_k - C1 b_k d_k,   b_k = (lambda - delta)^(k - N)

with d_0 = 1 and D_0 >= C2 (lambda + delta)^(-N/2), and an inequality
version (a_k, A_k) driven by any admissible height sequence b~_k.  At
small enough delta and large enough N the D-component outruns the
d-component: d_N <= 2 sqrt(delta) D_N and D_N >= D_0 lambda^(N(1-eps)).
N is capped by ``max_steps``, past which these quantities leave the
normal float64 range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RecurrenceParams",
    "RecurrenceRun",
    "check_heights",
    "dominates",
    "find_passing_parameters",
    "geometric_heights",
    "max_steps",
    "run_aA",
    "run_dD",
]


@dataclass(frozen=True)
class RecurrenceParams:
    c1: float = 1.0
    c2: float = 1.0
    lam: float = (3.0 + np.sqrt(5.0)) / 2.0  # forced by the singular eigenvalue
    epsilon: float = 0.1
    delta: float = 1e-3

    def validate(self):
        if self.lam <= 1.0:
            raise ValueError("lambda must be > 1")
        if not 0.0 < self.epsilon < 0.25:
            raise ValueError("epsilon must be in (0, 1/4)")
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0")
        if self.lam - self.delta <= 1.0:
            raise ValueError("lambda - delta must be > 1")
        if self.c1 < 0.0 or self.c2 <= 0.0:
            raise ValueError("C1 must be >= 0 and C2 > 0")


@dataclass
class RecurrenceRun:
    """One generated pair of sequences plus the conclusion flags.

    ``small`` is d_k or a_k, ``large`` is D_k or A_k.  The flags record
    whether the terminal bounds and the stepwise inductive bounds held.
    A run of S stacked slack schedules holds (S, N + 1) sequences, (S,)
    bool flags and an (S,) int ``crossover`` that is -1 where there is
    none; a single run holds (N + 1,) sequences, bools and int or None.
    """

    params: RecurrenceParams
    n: int
    kind: str  # "dD" or "aA"
    small: np.ndarray
    large: np.ndarray
    heights: np.ndarray
    tail_bound_ok: bool | np.ndarray = False      # small_N <= 2 sqrt(delta) large_N
    growth_bound_ok: bool | np.ndarray = False    # large_N >= large_0 lam^(N(1-eps))
    stepwise_growth_ok: bool | np.ndarray = False  # large_{k+1} >= lam^(1-eps) large_k
    stepwise_small_ok: bool | np.ndarray = False
    dichotomy_ok: bool | np.ndarray = False
    crossover: int | np.ndarray | None = None

    @property
    def passed(self) -> bool | np.ndarray:
        return self.tail_bound_ok & self.growth_bound_ok


def _finish(run: RecurrenceRun) -> RecurrenceRun:
    p = run.params
    d, D = run.small, run.large
    N = run.n
    flag = bool if d.ndim == 1 else np.asarray
    sqd = np.sqrt(p.delta)
    run.tail_bound_ok = flag(d[..., N] <= 2.0 * sqd * D[..., N])
    lam_eps = p.lam ** (1.0 - p.epsilon)
    target = D[..., 0] * p.lam ** (N * (1.0 - p.epsilon))
    run.growth_bound_ok = flag(
        (D[..., N] >= target)
        & (target > p.lam ** ((N / 2.0) * (1.0 - 4.0 * p.epsilon)))
    )
    # stepwise inductive bounds from the proof
    run.stepwise_growth_ok = flag(
        np.all(D[..., 1:] >= lam_eps * D[..., :-1] * (1.0 - 1e-12), axis=-1)
    )
    cap = (1.0 + 2.0 * p.delta + sqd) * np.maximum(d[..., :-1], sqd * D[..., :-1])
    run.stepwise_small_ok = flag(np.all(d[..., 1:] <= cap * (1.0 + 1e-12), axis=-1))
    # once sqrt(delta) D_k overtakes d_k it must stay ahead; with no
    # crossover at all this holds vacuously
    ahead = sqd * D > d
    run.dichotomy_ok = flag(~np.any(ahead[..., :-1] & ~ahead[..., 1:], axis=-1))
    crossed = ahead.any(axis=-1)
    first = np.argmax(ahead, axis=-1)
    if d.ndim == 1:
        run.crossover = int(first) if crossed else None
    else:
        run.crossover = np.where(crossed, first, -1)
    return run


def _step(
    params: RecurrenceParams, b: np.ndarray, large0: float, slack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Step (small, large) from (1, large0) over heights b with slack.

    ``slack`` is (..., N, 2); the schedules along its leading axes step
    together, and the sequences come back as (..., N + 1) arrays.
    """
    lam, dl, c1 = params.lam, params.delta, params.c1
    under = 1.0 - np.moveaxis(slack[..., 0], -1, 0)
    over = np.moveaxis(slack[..., 1], -1, 0)
    small = np.empty((len(b),) + slack.shape[:-2])
    large = np.empty_like(small)
    small[0], large[0] = 1.0, large0
    for k in range(len(b) - 1):
        small[k + 1] = ((1.0 + 2.0 * dl) * small[k] + dl * large[k]) * under[k]
        large[k + 1] = (
            (lam - dl) * large[k] - c1 * b[k] * small[k] + over[k] * large[k]
        )
    return np.moveaxis(small, 0, -1), np.moveaxis(large, 0, -1)


def max_steps(params: RecurrenceParams) -> int:
    """Largest N whose run quantities are all normal, finite floats.

    These are the heights down to b_0 = (lambda - delta)^(-N), the
    boundary value D_0 = C2 (lambda + delta)^(-N/2), the growth factor
    lambda^(N(1-eps)), the growth target D_0 lambda^(N(1-eps)) and the
    bound C2 (lambda - delta)^(-N/2) (lambda - delta + 1)^N on A_N: a
    slack overshoot below 1 grows A_k by at most lambda - delta + 1 per
    step from A_0 = C2 sqrt(b_0).  Past this N one of them is subnormal,
    zero or infinite, and the checks would run on values that have lost
    their precision.
    """
    params.validate()
    lam, dl, eps = params.lam, params.delta, params.epsilon
    log_c2 = math.log(params.c2)
    lo = math.log(np.finfo(float).tiny)
    hi = math.log(np.finfo(float).max)
    caps = [
        hi / ((1.0 - eps) * math.log(lam)),
        2.0 * (log_c2 - lo) / math.log(lam + dl),
        -lo / math.log(lam - dl),
        (hi - log_c2) / (math.log(lam - dl + 1.0) - 0.5 * math.log(lam - dl)),
    ]
    rate = (1.0 - eps) * math.log(lam) - 0.5 * math.log(lam + dl)
    if rate != 0.0:
        caps.append(((hi if rate > 0.0 else lo) - log_c2) / rate)
    return math.floor(min(caps))


def _check_n(params: RecurrenceParams, N: int) -> None:
    n_max = max_steps(params)  # validates params
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > n_max:
        raise ValueError(
            f"N must be <= {n_max} for these parameters, got {N}"
        )


def run_dD(
    params: RecurrenceParams, N: int, D0: float | None = None
) -> RecurrenceRun:
    """Generate the exact (d, D) recurrence and check its conclusions."""
    _check_n(params, N)
    lam, dl, c2 = params.lam, params.delta, params.c2
    if D0 is None:
        D0 = c2 * (lam + dl) ** (-N / 2.0)
    if D0 < c2 * (lam + dl) ** (-N / 2.0) * (1.0 - 1e-12):
        raise ValueError("D0 below the admissible boundary value")
    b = geometric_heights(params, N)
    d, D = _step(params, b, D0, np.zeros((N, 2)))
    return _finish(
        RecurrenceRun(
            params=params, n=N, kind="dD", small=d, large=D, heights=b
        )
    )


def geometric_heights(params: RecurrenceParams, N: int) -> np.ndarray:
    """The canonical admissible height sequence (lambda - delta)^(k - N)."""
    return (params.lam - params.delta) ** (
        np.arange(N + 1, dtype=float) - N
    )


def check_heights(params: RecurrenceParams, b: np.ndarray) -> None:
    N = len(b) - 1
    if np.any(b[: N + 1] <= 0.0):
        raise ValueError("height sequence must be positive")
    if not np.all(np.diff(b) > 0.0):
        raise ValueError("height sequence must be strictly increasing")
    if not (b[N - 1] < 1.0 <= b[N]):
        raise ValueError("heights must satisfy b_{N-1} < 1 <= b_N")
    lo = (params.lam - params.delta) * b[:-1]
    hi = (params.lam + params.delta) * b[:-1]
    tol = 1.0 + 1e-12
    if not np.all((b[1:] >= lo / tol) & (b[1:] <= hi * tol)):
        raise ValueError(
            "height growth ratio must stay within lambda -+ delta"
        )


def run_aA(
    params: RecurrenceParams,
    N: int,
    heights: np.ndarray | None = None,
    slack_schedule: np.ndarray | None = None,
    A0: float | None = None,
) -> RecurrenceRun:
    """Generate admissible inequality pairs (a, A).

    ``slack_schedule`` holds per-step fractions in [0, 1): at step k the
    a-update undershoots its allowed maximum by slack[k, 0] of itself
    and the A-update overshoots its required minimum by slack[k, 1] of
    the current A_k.  Zero slack with the canonical heights reproduces
    the exact (d, D) pair.

    One (N, 2) schedule gives one run.  A stack of S schedules, shape
    (S, N, 2), is stepped together from the shared heights and A_0 into
    one run whose ``small`` and ``large`` are (S, N + 1), whose flags
    and ``passed`` are (S,) bool arrays and whose ``crossover`` is an
    (S,) int array; row s equals the single run of schedule s bit for
    bit.
    """
    _check_n(params, N)
    c2 = params.c2
    b = geometric_heights(params, N) if heights is None else np.asarray(
        heights, dtype=float
    )
    if len(b) != N + 1:
        raise ValueError("height sequence must have length N + 1")
    check_heights(params, b)
    if A0 is None:
        A0 = c2 * np.sqrt(b[0])
    if A0 < c2 * np.sqrt(b[0]) * (1.0 - 1e-12):
        raise ValueError("A0 below the admissible value C2 sqrt(b_0)")
    slack = (
        np.zeros((N, 2))
        if slack_schedule is None
        else np.asarray(slack_schedule, dtype=float)
    )
    if (
        slack.ndim not in (2, 3)
        or slack.shape[-2:] != (N, 2)
        or np.any(slack < 0.0)
        or np.any(slack >= 1.0)
    ):
        raise ValueError(
            "slack schedule must be (N, 2) or (S, N, 2) fractions in [0, 1)"
        )
    a, A = _step(params, b, A0, slack)
    return _finish(
        RecurrenceRun(
            params=params, n=N, kind="aA", small=a, large=A, heights=b
        )
    )


def dominates(run_a: RecurrenceRun, run_d: RecurrenceRun) -> bool | np.ndarray:
    """Stepwise domination A_k >= D_k and A_k / a_k >= D_k / d_k.

    Stacked runs are checked row by row, broadcasting a single run
    against a stack, and give an (S,) bool array.
    """
    if run_a.n != run_d.n:
        raise ValueError("runs must have equal length")
    tol = 1.0 + 1e-9
    A, a = run_a.large, run_a.small
    D, d = run_d.large, run_d.small
    ok = np.all(A * tol >= D, axis=-1) & np.all((A / a) * tol >= (D / d), axis=-1)
    return bool(ok) if ok.ndim == 0 else ok


def find_passing_parameters(
    base: RecurrenceParams = RecurrenceParams(delta=0.0),
    n_grid=(50, 100, 200, 400),
    delta_hi: float = 0.25,
    bisect_iters: int = 40,
) -> tuple[float, int]:
    """Search for a recorded passing pair (delta0, N0).

    For each candidate N, bisects on delta for the largest value whose
    exact run passes all conclusion and stepwise checks, then returns
    the smallest N admitting one, with a conservative halving of the
    threshold delta.
    """

    def passes(delta: float, N: int) -> bool:
        p = RecurrenceParams(
            c1=base.c1,
            c2=base.c2,
            lam=base.lam,
            epsilon=base.epsilon,
            delta=delta,
        )
        r = run_dD(p, N)
        return (
            r.passed
            and r.stepwise_growth_ok
            and r.stepwise_small_ok
            and r.dichotomy_ok
        )

    for N in n_grid:
        lo, hi = 0.0, delta_hi
        if not passes(1e-12, N):
            continue
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            if passes(mid, N):
                lo = mid
            else:
                hi = mid
        if lo > 0.0:
            return lo / 2.0, N
    raise RuntimeError("no passing (delta, N) found on the search grid")
