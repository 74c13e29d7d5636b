"""Coupled recurrence sequences behind the near-singularity expansion bound.

Two families are generated.  The exact pair

    d_{k+1} = (1 + 2 delta) d_k + delta D_k
    D_{k+1} = (lambda - delta) D_k - b_k d_k,   b_k = (lambda - delta)^(k - N)

with d_0 = 1 and (lambda + delta)^(-N/2) <= D_0 <= sqrt(b_0), and an
inequality version (a_k, A_k) driven by the same canonical heights b_k
from A_0 = sqrt(b_0), each step off its bound by a chosen slack.
``run_dD`` starts the exact pair at the low end of that interval, and
``run_aA`` at zero slack is the exact pair from the high end.  Every run
is a stack of S rows, one per slack schedule; ``run_dD`` gives one row.
As for the model map, lambda = LAMBDA_BIG and C1 = C2 = 1.  At small
enough delta and large enough N the D-component outruns the
d-component: d_N <= 2 sqrt(delta) D_N and D_N >= D_0 lambda^(N(1-eps)).
N is capped by ``max_steps``, past which these quantities leave the
normal float64 range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import LAMBDA_BIG

__all__ = [
    "RecurrenceParams",
    "RecurrenceRun",
    "dominates",
    "geometric_heights",
    "max_steps",
    "run_aA",
    "run_dD",
]


@dataclass(frozen=True)
class RecurrenceParams:
    epsilon: float = 0.1
    delta: float = 1e-3

    def validate(self):
        if not 0.0 < self.epsilon < 0.25:
            raise ValueError("epsilon must be in (0, 1/4)")
        # the heights (lambda - delta)^(k - N) must grow
        if not 0.0 <= self.delta < LAMBDA_BIG - 1.0:
            raise ValueError("delta must be in [0, lambda - 1)")


@dataclass
class RecurrenceRun:
    """S generated pairs of sequences plus their conclusion flags.

    ``small`` is d_k or a_k, ``large`` is D_k or A_k, each (S, N + 1).
    The (S,) bool flags record, row by row, whether the terminal bounds
    and the stepwise inductive bounds held.
    """

    n: int
    small: np.ndarray
    large: np.ndarray
    tail_bound_ok: np.ndarray      # small_N <= 2 sqrt(delta) large_N
    growth_bound_ok: np.ndarray    # large_N >= large_0 lam^(N(1-eps))
    stepwise_growth_ok: np.ndarray  # large_{k+1} >= lam^(1-eps) large_k
    stepwise_small_ok: np.ndarray
    dichotomy_ok: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return self.tail_bound_ok & self.growth_bound_ok


def _run(p: RecurrenceParams, N: int, d: np.ndarray, D: np.ndarray) -> RecurrenceRun:
    """The run of (S, N + 1) sequences d and D, with its flags checked."""
    sqd = np.sqrt(p.delta)
    lam_eps = LAMBDA_BIG ** (1.0 - p.epsilon)
    target = D[:, 0] * LAMBDA_BIG ** (N * (1.0 - p.epsilon))
    cap = (1.0 + 2.0 * p.delta + sqd) * np.maximum(d[:, :-1], sqd * D[:, :-1])
    # once sqrt(delta) D_k overtakes d_k it must stay ahead; with no
    # crossover at all this holds vacuously
    ahead = sqd * D > d
    return RecurrenceRun(
        n=N, small=d, large=D,
        tail_bound_ok=d[:, N] <= 2.0 * sqd * D[:, N],
        growth_bound_ok=(
            (D[:, N] >= target)
            & (target > LAMBDA_BIG ** ((N / 2.0) * (1.0 - 4.0 * p.epsilon)))
        ),
        # stepwise inductive bounds from the proof
        stepwise_growth_ok=np.all(
            D[:, 1:] >= lam_eps * D[:, :-1] * (1.0 - 1e-12), axis=1
        ),
        stepwise_small_ok=np.all(d[:, 1:] <= cap * (1.0 + 1e-12), axis=1),
        dichotomy_ok=~np.any(ahead[:, :-1] & ~ahead[:, 1:], axis=1),
    )


def _step(
    params: RecurrenceParams, b: np.ndarray, large0: float, slack: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Step (small, large) from (1, large0) over heights b with slack.

    ``slack`` is (S, N, 2); the S schedules step together, and the
    sequences come back as (S, N + 1) arrays.
    """
    dl = params.delta
    under = 1.0 - slack[:, :, 0].T
    over = slack[:, :, 1].T
    small = np.empty((len(b), len(slack)))
    large = np.empty_like(small)
    small[0], large[0] = 1.0, large0
    for k in range(len(b) - 1):
        small[k + 1] = ((1.0 + 2.0 * dl) * small[k] + dl * large[k]) * under[k]
        large[k + 1] = (LAMBDA_BIG - dl) * large[k] - b[k] * small[k] + over[k] * large[k]
    return small.T, large.T


def max_steps(params: RecurrenceParams) -> int:
    """Largest N whose runs hold only normal, finite floats.

    With L = lambda, the growth factor L^(N(1-eps)) must be finite, the
    first height b_0 = (L - delta)^(-N) normal, and the bound (L / s) B_N
    below on the values of run_dD, whose D_0 is at most sqrt(b_0), and of
    run_aA from A_0 = sqrt(b_0) under any slack in [0, 1) finite.  Let s =
    max(sqrt(delta), 1/4) and n_k = max(|d_k|, s |D_k| / sqrt(b_k)) <= B_k,
    with B_0 = max(1, sqrt(delta)) and B_{k+1} = (G + m sqrt(b_k)) B_k,

        G = max(1 + 2 delta, (L - delta + 1) / sqrt(L - delta)),
        m = max(delta / s, s / sqrt(L - delta)),

    as |d_{k+1}| <= (1 + 2 delta) |d_k| + delta |D_k|, |D_{k+1}| <=
    (L - delta + 1) |D_k| + b_k |d_k| and b_{k+1} = (L - delta) b_k.
    With b_k <= 1 and sum sqrt(b_k) < S = 1 / (sqrt(L - delta) - 1),
    B_N <= B_0 min((G + m)^N, G^N exp(m S / G)).  So |D_k| <= B_k / s,
    the stepwise cap (1 + 2 delta + sqrt(delta)) max(d_k, sqrt(delta) D_k)
    is at most 2 B_{k+1}, and every value a step or a check forms is at
    most (L / s) B_N, L^(1-eps) |D_k| being the largest.

    Nothing else leaves the range first.  D_0 = (L + delta)^(-N/2) is
    normal while b_0 is if (L - delta)^2 >= L + delta, so for delta <=
    0.77; above, G > 2.5 caps N below 775, and D_0 >= (2L - 1)^(-N/2)
    is normal up to N = 981.  The target D_0 L^(N(1-eps)) is exp(N r),
    r = (1 - eps) log L - log(L + delta) / 2, and 2L - 1 = L^(3/2) gives
    L + delta < L^(3/2) < L^(2(1-eps)), so 0 < r < (1 - eps) log L: the
    target neither underflows nor overflows before the growth factor.
    """
    params.validate()
    dl, eps = params.delta, params.epsilon
    lam_dl, sqd = LAMBDA_BIG - dl, math.sqrt(dl)
    s = max(sqd, 0.25)
    G = max(1.0 + 2.0 * dl, (lam_dl + 1.0) / math.sqrt(lam_dl))
    m = max(dl / s, s / math.sqrt(lam_dl))
    S = 1.0 / math.expm1(0.5 * math.log(lam_dl))
    hi = math.log(np.finfo(float).max)
    room = hi - math.log(LAMBDA_BIG / s * max(1.0, sqd))
    caps = [
        hi / ((1.0 - eps) * math.log(LAMBDA_BIG)),
        -math.log(np.finfo(float).tiny) / math.log(lam_dl),
        max(room / math.log(G + m), (room - m * S / G) / math.log(G)),
    ]
    return math.floor(min(caps))


def _check_n(params: RecurrenceParams, N: int) -> None:
    n_max = max_steps(params)  # validates params
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > n_max:
        raise ValueError(
            f"N must be <= {n_max} for these parameters, got {N}"
        )


def run_dD(params: RecurrenceParams, N: int) -> RecurrenceRun:
    """Generate the exact (d, D) recurrence as a one-row run and check
    its conclusions.

    D_0 = (lambda + delta)^(-N/2), the low end of the admissible starts;
    ``run_aA`` at zero slack is the exact run from the high end, sqrt(b_0).
    """
    _check_n(params, N)
    b = geometric_heights(params, N)
    D0 = (LAMBDA_BIG + params.delta) ** (-N / 2.0)
    return _run(params, N, *_step(params, b, D0, np.zeros((1, N, 2))))


def geometric_heights(params: RecurrenceParams, N: int) -> np.ndarray:
    """The canonical admissible height sequence (lambda - delta)^(k - N)."""
    return (LAMBDA_BIG - params.delta) ** (
        np.arange(N + 1, dtype=float) - N
    )


def run_aA(
    params: RecurrenceParams, N: int, slack_schedule: np.ndarray
) -> RecurrenceRun:
    """Generate admissible inequality pairs (a, A), one per slack schedule.

    The pairs are driven by the canonical heights ``geometric_heights``
    from A_0 = sqrt(b_0).  ``slack_schedule`` is an (S, N, 2) stack of
    per-step fractions in [0, 1), S >= 0: at step k the a-update of row
    s undershoots its allowed maximum by slack[s, k, 0] of itself and
    the A-update overshoots its required minimum by slack[s, k, 1] of
    the current A_k.  Zero slack reproduces the exact (d, D) pair.  The
    S schedules step together into one run of S rows.
    """
    _check_n(params, N)
    b = geometric_heights(params, N)
    A0 = np.sqrt(b[0])
    slack = np.asarray(slack_schedule, dtype=float)
    if slack.shape[1:] != (N, 2) or not np.all((0.0 <= slack) & (slack < 1.0)):
        raise ValueError("slack schedule must be (S, N, 2) fractions in [0, 1)")
    return _run(params, N, *_step(params, b, A0, slack))


def dominates(run_a: RecurrenceRun, run_d: RecurrenceRun) -> np.ndarray:
    """Stepwise domination A_k >= D_k and A_k / a_k >= D_k / d_k, row by
    row, as an (S,) bool array; a one-row run broadcasts against S rows.
    """
    if run_a.n != run_d.n:
        raise ValueError("runs must have equal length")
    tol = 1.0 + 1e-9
    A, a = run_a.large, run_a.small
    D, d = run_d.large, run_d.small
    # an a_k or d_k that underflowed to 0 gives the true ratio, +inf
    with np.errstate(divide="ignore"):
        ratio_a, ratio_d = A / a, D / d
    return np.all(A * tol >= D, axis=1) & np.all(ratio_a * tol >= ratio_d, axis=1)
