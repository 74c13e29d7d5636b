"""Coupled recurrence sequences behind the near-singularity expansion bound.

Two families are generated.  The exact pair

    d_{k+1} = (1 + 2 delta) d_k + delta D_k
    D_{k+1} = (lambda - delta) D_k - C1 b_k d_k,   b_k = (lambda - delta)^(k - N)

with d_0 = 1 and D_0 >= C2 (lambda + delta)^(-N/2), and an inequality
version (a_k, A_k) driven by any admissible height sequence b~_k.  At
small enough delta and large enough N the D-component outruns the
d-component: d_N <= 2 sqrt(delta) D_N and D_N >= D_0 lambda^(N(1-eps)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RecurrenceParams",
    "RecurrenceRun",
    "find_passing_parameters",
    "geometric_heights",
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
        if self.c1 < 0.0 or self.c2 <= 0.0:
            raise ValueError("C1 must be >= 0 and C2 > 0")


@dataclass
class RecurrenceRun:
    """One generated pair of sequences plus the conclusion flags.

    ``small`` is d_k or a_k, ``large`` is D_k or A_k.  The flags record
    whether the terminal bounds and the stepwise inductive bounds held.
    """

    params: RecurrenceParams
    n: int
    kind: str  # "dD" or "aA"
    small: np.ndarray
    large: np.ndarray
    heights: np.ndarray
    tail_bound_ok: bool = False      # small_N <= 2 sqrt(delta) large_N
    growth_bound_ok: bool = False    # large_N >= large_0 lam^(N(1-eps))
    stepwise_growth_ok: bool = False  # large_{k+1} >= lam^(1-eps) large_k
    stepwise_small_ok: bool = False
    dichotomy_ok: bool = False
    crossover: int | None = None

    @property
    def passed(self) -> bool:
        return self.tail_bound_ok and self.growth_bound_ok


def _finish(run: RecurrenceRun) -> RecurrenceRun:
    p = run.params
    d, D = run.small, run.large
    N = run.n
    sqd = np.sqrt(p.delta)
    run.tail_bound_ok = bool(d[N] <= 2.0 * sqd * D[N])
    lam_eps = p.lam ** (1.0 - p.epsilon)
    target = D[0] * p.lam ** (N * (1.0 - p.epsilon))
    run.growth_bound_ok = bool(
        D[N] >= target
        and target > p.lam ** ((N / 2.0) * (1.0 - 4.0 * p.epsilon))
    )
    # stepwise inductive bounds from the proof
    run.stepwise_growth_ok = bool(
        np.all(D[1:] >= lam_eps * D[:-1] * (1.0 - 1e-12))
    )
    cap = (1.0 + 2.0 * p.delta + sqd) * np.maximum(d[:-1], sqd * D[:-1])
    run.stepwise_small_ok = bool(np.all(d[1:] <= cap * (1.0 + 1e-12)))
    # once sqrt(delta) D_k overtakes d_k it must stay ahead
    ahead = sqd * D > d
    if ahead.any():
        first = int(np.argmax(ahead))
        run.crossover = first
        run.dichotomy_ok = bool(np.all(ahead[first:]))
    else:
        run.crossover = None
        run.dichotomy_ok = True  # vacuous: no crossover happened
    return run


def _step(
    params: RecurrenceParams, b: np.ndarray, large0: float, slack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Step (small, large) from (1, large0) over heights b with slack."""
    lam, dl, c1 = params.lam, params.delta, params.c1
    small = np.empty(len(b))
    large = np.empty(len(b))
    small[0], large[0] = 1.0, large0
    for k in range(len(b) - 1):
        small[k + 1] = ((1.0 + 2.0 * dl) * small[k] + dl * large[k]) * (
            1.0 - slack[k, 0]
        )
        large[k + 1] = (
            (lam - dl) * large[k] - c1 * b[k] * small[k]
            + slack[k, 1] * large[k]
        )
    return small, large


def run_dD(
    params: RecurrenceParams, N: int, D0: float | None = None
) -> RecurrenceRun:
    """Generate the exact (d, D) recurrence and check its conclusions."""
    params.validate()
    if N < 1:
        raise ValueError("N must be >= 1")
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
    """Generate an admissible inequality pair (a, A).

    ``slack_schedule`` holds per-step fractions in [0, 1): at step k the
    a-update undershoots its allowed maximum by slack[k, 0] of itself
    and the A-update overshoots its required minimum by slack[k, 1] of
    the current A_k.  Zero slack with the canonical heights reproduces
    the exact (d, D) pair.
    """
    params.validate()
    if N < 1:
        raise ValueError("N must be >= 1")
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
    if slack.shape != (N, 2) or np.any(slack < 0.0) or np.any(slack >= 1.0):
        raise ValueError("slack schedule must be (N, 2) fractions in [0, 1)")
    a, A = _step(params, b, A0, slack)
    return _finish(
        RecurrenceRun(
            params=params, n=N, kind="aA", small=a, large=A, heights=b
        )
    )


def dominates(run_a: RecurrenceRun, run_d: RecurrenceRun) -> bool:
    """Stepwise domination A_k >= D_k and A_k / a_k >= D_k / d_k."""
    if run_a.n != run_d.n:
        raise ValueError("runs must have equal length")
    tol = 1.0 + 1e-9
    A, a = run_a.large, run_a.small
    D, d = run_d.large, run_d.small
    return bool(
        np.all(A * tol >= D) and np.all((A / a) * tol >= (D / d))
    )


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
