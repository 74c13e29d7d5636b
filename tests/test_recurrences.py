import dataclasses
import math
import warnings

import numpy as np
import pytest

from fibtrace import recurrences
from fibtrace.certify import LAMBDA_BIG
from fibtrace.recurrences import RecurrenceParams


def test_default_params_pass_all_flags():
    run = recurrences.run_dD(RecurrenceParams(delta=1e-3), 200)
    assert run.small.shape == run.large.shape == (1, 201)
    for name in FLAGS:
        assert getattr(run, name).shape == (1,) and getattr(run, name).dtype == bool
        assert getattr(run, name)[0], name


def test_param_validation():
    # lambda, C1 and C2 are the model map's constants, not fields
    names = [f.name for f in dataclasses.fields(RecurrenceParams)]
    assert names == ["epsilon", "delta"]
    for eps in (0.0, 0.3, math.nan):
        with pytest.raises(ValueError, match="epsilon must be in"):
            RecurrenceParams(epsilon=eps).validate()
    # the heights (lambda - delta)^(k - N) must grow
    for delta in (-1.0, LAMBDA_BIG - 1.0, 3.0, math.nan):
        with pytest.raises(ValueError, match=r"delta must be in \[0, lambda - 1\)"):
            RecurrenceParams(delta=delta).validate()
        with pytest.raises(ValueError, match="delta must be in"):
            recurrences.max_steps(RecurrenceParams(delta=delta))
    RecurrenceParams(delta=math.nextafter(LAMBDA_BIG - 1.0, 0.0)).validate()
    with pytest.raises(ValueError):
        recurrences.run_dD(RecurrenceParams(), 0)


def test_zero_slack_aA_equals_dD():
    # each engine is the exact pair from one end of the admissible starts
    # (lambda + delta)^(-N/2) <= D_0 <= sqrt(b_0): run_dD from the low end,
    # run_aA at zero slack from the high end
    p = RecurrenceParams(delta=1e-3)
    N = 120
    b = recurrences.geometric_heights(p, N)
    for run, D0 in ((recurrences.run_dD(p, N), (LAMBDA_BIG + p.delta) ** (-N / 2.0)),
                    (recurrences.run_aA(p, N, _zero(N)), np.sqrt(b[0]))):
        d, D = np.empty(N + 1), np.empty(N + 1)
        d[0], D[0] = 1.0, D0
        for k in range(N):
            d[k + 1] = (1.0 + 2.0 * p.delta) * d[k] + p.delta * D[k]
            D[k + 1] = (LAMBDA_BIG - p.delta) * D[k] - b[k] * d[k]
        assert np.array_equal(run.small, [d])
        assert np.array_equal(run.large, [D])


def test_random_slack_schedules_dominate():
    p = RecurrenceParams(delta=1e-3)
    N = 150
    rng = np.random.default_rng(11)
    for _ in range(10):
        slack = np.column_stack(
            [rng.uniform(0, 0.3, N), rng.uniform(0, 0.2, N)]
        )
        r_a = recurrences.run_aA(p, N, slack_schedule=slack[None])
        r_d = recurrences.run_aA(p, N, _zero(N))
        assert r_a.passed[0]
        assert recurrences.dominates(r_a, r_d)[0]


def test_dominates_reads_an_underflowed_a_as_an_infinite_ratio():
    # an undershoot slack near 1 drives a_k to 0, where A_k / a_k = +inf
    p = RecurrenceParams(delta=0.0)
    N = 736
    slack = np.zeros((1, N, 2))
    slack[..., 0] = 0.999999
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_a = recurrences.run_aA(p, N, slack_schedule=slack)
        r_d = recurrences.run_aA(p, N, _zero(N))
        assert np.any(r_a.small == 0.0)
        assert np.array_equal(recurrences.dominates(r_a, r_d), [True])


def test_slack_schedule_validation():
    p = RecurrenceParams(delta=1e-3)
    with pytest.raises(ValueError):
        recurrences.run_aA(p, 50, slack_schedule=np.full((1, 50, 2), 1.5))
    with pytest.raises(ValueError):
        recurrences.run_aA(p, 50, slack_schedule=np.zeros((1, 49, 2)))
    nan = np.zeros((3, 50, 2))
    nan[1, 7, 1] = np.nan
    for slack in (nan, nan[1:2]):
        with pytest.raises(ValueError, match="fractions in"):
            recurrences.run_aA(p, 50, slack_schedule=slack)
    # a single (N, 2) schedule is not a stack
    with pytest.raises(ValueError, match=r"must be \(S, N, 2\) fractions"):
        recurrences.run_aA(p, 50, slack_schedule=np.zeros((50, 2)))


def test_large_delta_fails_tail_bound():
    # far past any admissible threshold the d-component catches up
    run = recurrences.run_dD(RecurrenceParams(delta=0.24), 60)
    assert np.array_equal(run.passed, [False])


def _slack_stack(rng, S, N):
    """S schedules drawn in the CLI's order: a column of a-slack, then A."""
    slack = np.empty((S, N, 2))
    for row in slack:
        row[:, 0] = rng.uniform(0.0, 0.3, N)
        row[:, 1] = rng.uniform(0.0, 0.2, N)
    return slack


def _built_stack(N):
    """Row k0 undershoots the a-update by 0.999 on steps 0..k0 and not
    after, and every row overshoots the A-update by 0.5."""
    slack = np.zeros((N - 1, N, 2))
    slack[..., 1] = 0.5
    for k0, row in enumerate(slack):
        row[: k0 + 1, 0] = 0.999
    return slack


FLAGS = ("tail_bound_ok", "growth_bound_ok", "stepwise_growth_ok",
         "stepwise_small_ok", "dichotomy_ok", "passed")


def _zero(N):
    """The one-row zero-slack stack: the exact run from A_0."""
    return np.zeros((1, N, 2))


def _reference_run(p, N, slack):
    """One schedule stepped and checked with scalar loops and early exits."""
    b = recurrences.geometric_heights(p, N)
    a, A = np.empty(N + 1), np.empty(N + 1)
    a[0], A[0] = 1.0, np.sqrt(b[0])
    for k in range(N):
        a[k + 1] = ((1.0 + 2.0 * p.delta) * a[k] + p.delta * A[k]) * (
            1.0 - slack[k, 0]
        )
        A[k + 1] = ((LAMBDA_BIG - p.delta) * A[k] - b[k] * a[k]
                    + slack[k, 1] * A[k])
    sqd = np.sqrt(p.delta)
    target = A[0] * LAMBDA_BIG ** (N * (1.0 - p.epsilon))
    lam_eps = LAMBDA_BIG ** (1.0 - p.epsilon)
    flags = {
        "tail_bound_ok": bool(a[N] <= 2.0 * sqd * A[N]),
        "growth_bound_ok": bool(
            A[N] >= target
            and target > LAMBDA_BIG ** ((N / 2.0) * (1.0 - 4.0 * p.epsilon))
        ),
        "stepwise_growth_ok": all(
            A[k + 1] >= lam_eps * A[k] * (1.0 - 1e-12) for k in range(N)
        ),
        "stepwise_small_ok": all(
            a[k + 1] <= (1.0 + 2.0 * p.delta + sqd)
            * max(a[k], sqd * A[k]) * (1.0 + 1e-12)
            for k in range(N)
        ),
    }
    ahead = [sqd * A[k] > a[k] for k in range(N + 1)]
    crossover = ahead.index(True) if True in ahead else None
    flags["dichotomy_ok"] = crossover is None or all(ahead[crossover:])
    flags["passed"] = flags["tail_bound_ok"] and flags["growth_bound_ok"]
    return a, A, flags


# delta = 0.2 and 0.24 mix passing and failing random schedules; the
# built schedules at delta = 0.5 hold the dichotomy on 5 of their 9 rows
@pytest.mark.parametrize("delta, N, schedules", [
    (0.2, 5, "random"), (0.24, 30, "random"), (1e-3, 150, "random"),
    (0.5, 10, "built"),
])
def test_stacked_run_aA_equals_single_runs(delta, N, schedules):
    p = RecurrenceParams(delta=delta)
    if schedules == "built":
        slack = _built_stack(N)
    else:
        slack = _slack_stack(np.random.default_rng(21), 60, N)
    S = len(slack)
    stacked = recurrences.run_aA(p, N, slack_schedule=slack)
    assert stacked.small.shape == stacked.large.shape == (S, N + 1)
    for name in FLAGS:
        assert getattr(stacked, name).shape == (S,)
    for s, row in enumerate(slack):
        one = recurrences.run_aA(p, N, slack_schedule=row[None])
        assert np.array_equal(stacked.small[s], one.small[0])
        assert np.array_equal(stacked.large[s], one.large[0])
        for name in FLAGS:
            assert getattr(one, name).shape == (1,)
            assert getattr(stacked, name)[s] == getattr(one, name)[0], name
        a, A, flags = _reference_run(p, N, row)
        assert np.array_equal(one.small[0], a) and np.array_equal(one.large[0], A)
        assert {name: bool(getattr(one, name)[0]) for name in FLAGS} == flags
    if delta > 0.1:  # some flag holds on some schedules and fails on others
        counts = [np.count_nonzero(getattr(stacked, name)) for name in FLAGS]
        assert any(0 < n < S for n in counts)
    if schedules == "built":
        assert np.count_nonzero(stacked.dichotomy_ok) == 5


@pytest.mark.parametrize("delta, N", [(0.2, 5), (1e-3, 150)])
def test_stacked_dominates_equals_single_calls(delta, N):
    p = RecurrenceParams(delta=delta)
    slack = _slack_stack(np.random.default_rng(22), 40, N)
    stacked = recurrences.run_aA(p, N, slack_schedule=slack)
    ref = recurrences.run_aA(p, N, _zero(N))
    dom = recurrences.dominates(stacked, ref)
    assert dom.shape == (40,) and dom.dtype == bool
    for s, row in enumerate(slack):
        one = recurrences.dominates(recurrences.run_aA(p, N, slack_schedule=row[None]), ref)
        assert one.shape == (1,) and dom[s] == one[0]


def test_zero_slack_schedules():
    p = RecurrenceParams(delta=1e-3)
    runs = recurrences.run_aA(p, 30, slack_schedule=np.empty((0, 30, 2)))
    assert runs.small.shape == runs.large.shape == (0, 31)
    for name in FLAGS:
        assert getattr(runs, name).shape == (0,)
    ref = recurrences.run_dD(p, 30)
    assert recurrences.dominates(runs, ref).shape == (0,)
    with pytest.raises(ValueError):
        recurrences.run_aA(p, 30, slack_schedule=np.zeros((2, 2, 30, 2)))


def _bound_terms(p):
    """s, G and m of the bound in max_steps' docstring."""
    lam_dl, sqd = LAMBDA_BIG - p.delta, math.sqrt(p.delta)
    s = max(sqd, 0.25)
    G = max(1.0 + 2.0 * p.delta, (lam_dl + 1.0) / math.sqrt(lam_dl))
    return s, G, max(p.delta / s, s / math.sqrt(lam_dl))


def _quantities(p, N):
    """b_0, the default D_0, the growth factor, the growth target and the
    docstring's bound on every value of a run, for N steps."""
    s, G, m = _bound_terms(p)
    S = 1.0 / math.expm1(0.5 * math.log(LAMBDA_BIG - p.delta))
    with np.errstate(all="ignore"):
        b0 = recurrences.geometric_heights(p, N)[0]
        d0 = (LAMBDA_BIG + p.delta) ** (-N / 2.0)
        growth = np.float64(LAMBDA_BIG) ** (N * (1.0 - p.epsilon))
        n0 = LAMBDA_BIG / s * max(1.0, math.sqrt(p.delta))
        by_sum = np.float64(G) ** N * np.exp(np.float64(m * S / G))
        bound = n0 * min(np.float64(G + m) ** N, by_sum)
        return np.array([b0, d0, growth, d0 * growth, bound])


def _overshoot(N):
    slack = np.zeros((1, N, 2))
    slack[..., 1] = np.nextafter(1.0, 0.0)
    return slack


#: one case per cap that can bind, with the indices in ``_quantities`` of
#: what leaves the normal range first: the first height b_0, the growth
#: factor (and with it the target), and the bound on the run's values
#: through the sum of sqrt(b_k) or, near delta = lambda - 1, (G + m)^N
BINDING = {
    RecurrenceParams(delta=1e-3): [0],
    RecurrenceParams(delta=0.0): [0],
    RecurrenceParams(delta=0.05, epsilon=0.01): [2, 3],
    RecurrenceParams(delta=1.0): [4],
    RecurrenceParams(delta=1.618): [4],
}


@pytest.mark.parametrize("params", list(BINDING))
def test_max_steps_is_the_last_normal_n(params):
    cap = BINDING[params]
    n_max = recurrences.max_steps(params)
    tiny = np.finfo(float).tiny
    at, past = _quantities(params, n_max), _quantities(params, n_max + 1)
    assert np.all(np.isfinite(at) & (at >= tiny))
    normal = np.isfinite(past) & (past >= tiny)
    assert not np.any(normal[cap]) and np.all(np.delete(normal, cap))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recurrences.run_dD(params, n_max)
        runs = recurrences.run_aA(params, n_max, slack_schedule=_overshoot(n_max))
    assert np.all(np.isfinite(runs.large))
    with pytest.raises(ValueError, match=f"N must be <= {n_max}"):
        recurrences.run_dD(params, n_max + 1)
    with pytest.raises(ValueError, match=f"N must be <= {n_max}"):
        recurrences.run_aA(params, n_max + 1, _zero(n_max + 1))


def test_max_steps_bounds_the_overshooting_a_run():
    # the bound on the values of every run, overshooting ones included,
    # caps N once d_k grows fast: through the sum of sqrt(b_k) at
    # delta = 1, and through (G + m)^N near delta = lambda - 1, where the
    # bound S on that sum is 58843
    hi = math.log(np.finfo(float).max)
    for delta, n_max, form in ((1.0, 644, 0), (1.618, 415, 1)):
        p = RecurrenceParams(delta=delta)
        s, G, m = _bound_terms(p)
        room = hi - math.log(LAMBDA_BIG / s * max(1.0, math.sqrt(delta)))
        S = 1.0 / math.expm1(0.5 * math.log(LAMBDA_BIG - delta))
        caps = [math.floor((room - m * S / G) / math.log(G)),
                math.floor(room / math.log(G + m))]
        assert recurrences.max_steps(p) == n_max == caps[form] == max(caps)


#: an (epsilon, delta) grid with the corners epsilon -> 0, 1/4 and
#: delta -> 0, lambda - 1, where every cap but D_0's binds somewhere
GRID = [(eps, delta)
        for eps in (1e-6, 0.1, 0.2499)
        for delta in (0.0, 1e-3, 0.0625, 0.2, 0.6, 1.0, 1.6, 1.616,
                      math.nextafter(LAMBDA_BIG - 1.0, 0.0))]


@pytest.mark.parametrize("eps, delta", GRID)
def test_runs_at_max_steps_hold_finite_values(eps, delta):
    # the exact run, the overshooting run and the zero-slack run, each at
    # N = max_steps, with every warning an error; and the step bound
    # n_{k+1} <= (G + m sqrt(b_k)) n_k of max_steps' proof on each of them
    p = RecurrenceParams(epsilon=eps, delta=delta)
    N = recurrences.max_steps(p)
    at = _quantities(p, N)
    assert np.all(np.isfinite(at) & (at >= np.finfo(float).tiny))
    s, G, m = _bound_terms(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = (recurrences.run_dD(p, N),
                recurrences.run_aA(p, N, slack_schedule=_overshoot(N)),
                recurrences.run_aA(p, N, _zero(N)))
    sqb = np.sqrt(recurrences.geometric_heights(p, N))
    for run in runs:
        assert np.all(np.isfinite(run.small)) and np.all(np.isfinite(run.large))
        n = np.maximum(np.abs(run.small[0]), s * np.abs(run.large[0]) / sqb)
        assert np.all(n[1:] <= (G + m * sqb[:-1]) * n[:-1] * (1.0 + 1e-12))


def test_max_steps_of_the_default_parameters():
    # b_0 = (lambda - delta)^(-N) reaches the smallest normal float first
    p = RecurrenceParams(delta=1e-3)
    assert recurrences.max_steps(p) == 736
    assert 736 == math.floor(
        -math.log(np.finfo(float).tiny) / math.log(LAMBDA_BIG - p.delta)
    )
    slack = _slack_stack(np.random.default_rng(23), 5, 736)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = recurrences.run_aA(p, 736, slack_schedule=slack)
    assert np.all(np.isfinite(runs.large)) and np.all(runs.passed)
