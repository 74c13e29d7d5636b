import math
import warnings

import numpy as np
import pytest

from fibtrace import recurrences
from fibtrace.recurrences import RecurrenceParams


def test_default_params_pass_all_flags():
    run = recurrences.run_dD(RecurrenceParams(delta=1e-3), 200)
    assert run.passed
    assert run.tail_bound_ok and run.growth_bound_ok
    assert run.stepwise_growth_ok and run.stepwise_small_ok
    assert run.dichotomy_ok


def test_param_validation():
    with pytest.raises(ValueError):
        RecurrenceParams(lam=0.5).validate()
    with pytest.raises(ValueError):
        RecurrenceParams(epsilon=0.3).validate()
    with pytest.raises(ValueError):
        RecurrenceParams(delta=-1.0).validate()
    with pytest.raises(ValueError):
        RecurrenceParams(c2=0.0).validate()
    # the heights (lambda - delta)^(k - N) must grow
    for lam, delta in ((2.618, 3.0), (1.2, 0.5), (1.5, 0.5)):
        with pytest.raises(ValueError, match="lambda - delta must be > 1"):
            RecurrenceParams(lam=lam, delta=delta).validate()
        with pytest.raises(ValueError, match="lambda - delta must be > 1"):
            recurrences.max_steps(RecurrenceParams(lam=lam, delta=delta))
    with pytest.raises(ValueError):
        recurrences.run_dD(RecurrenceParams(), 0)


def test_zero_slack_aA_equals_dD():
    p = RecurrenceParams(delta=1e-3)
    N = 120
    r_a = recurrences.run_aA(p, N)
    r_d = recurrences.run_dD(p, N, D0=r_a.large[0])
    assert np.array_equal(r_a.small, r_d.small)
    assert np.array_equal(r_a.large, r_d.large)


def test_random_slack_schedules_dominate():
    p = RecurrenceParams(delta=1e-3)
    N = 150
    rng = np.random.default_rng(11)
    for _ in range(10):
        slack = np.column_stack(
            [rng.uniform(0, 0.3, N), rng.uniform(0, 0.2, N)]
        )
        r_a = recurrences.run_aA(p, N, slack_schedule=slack)
        r_d = recurrences.run_dD(p, N, D0=r_a.large[0])
        assert r_a.passed
        assert recurrences.dominates(r_a, r_d)


def test_a0_and_d0_floors():
    p = RecurrenceParams(delta=1e-3)
    with pytest.raises(ValueError):
        recurrences.run_dD(p, 50, D0=1e-30)


def test_slack_schedule_validation():
    p = RecurrenceParams(delta=1e-3)
    with pytest.raises(ValueError):
        recurrences.run_aA(p, 50, slack_schedule=np.full((50, 2), 1.5))
    with pytest.raises(ValueError):
        recurrences.run_aA(p, 50, slack_schedule=np.zeros((49, 2)))


def test_large_delta_fails_tail_bound():
    # far past any admissible threshold the d-component catches up
    run = recurrences.run_dD(RecurrenceParams(delta=0.24), 60)
    assert not run.passed


def _slack_stack(rng, S, N):
    """S schedules drawn in the CLI's order: a column of a-slack, then A."""
    slack = np.empty((S, N, 2))
    for row in slack:
        row[:, 0] = rng.uniform(0.0, 0.3, N)
        row[:, 1] = rng.uniform(0.0, 0.2, N)
    return slack


FLAGS = ("tail_bound_ok", "growth_bound_ok", "stepwise_growth_ok",
         "stepwise_small_ok", "dichotomy_ok", "passed")


def _reference_run(p, N, slack):
    """One schedule stepped and checked with scalar loops and early exits."""
    b = recurrences.geometric_heights(p, N)
    a, A = np.empty(N + 1), np.empty(N + 1)
    a[0], A[0] = 1.0, p.c2 * np.sqrt(b[0])
    for k in range(N):
        a[k + 1] = ((1.0 + 2.0 * p.delta) * a[k] + p.delta * A[k]) * (
            1.0 - slack[k, 0]
        )
        A[k + 1] = ((p.lam - p.delta) * A[k] - p.c1 * b[k] * a[k]
                    + slack[k, 1] * A[k])
    sqd = np.sqrt(p.delta)
    target = A[0] * p.lam ** (N * (1.0 - p.epsilon))
    lam_eps = p.lam ** (1.0 - p.epsilon)
    flags = {
        "tail_bound_ok": bool(a[N] <= 2.0 * sqd * A[N]),
        "growth_bound_ok": bool(
            A[N] >= target
            and target > p.lam ** ((N / 2.0) * (1.0 - 4.0 * p.epsilon))
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
    return a, A, flags, crossover


# the first three mix passing and failing schedules: c1 = 3, delta = 0.24,
# N = 10 mixes the tail, growth and dichotomy flags and the crossover
@pytest.mark.parametrize("c1, delta, N", [
    (1.0, 0.2, 5), (3.0, 0.24, 10), (1.0, 0.24, 30), (1.0, 1e-3, 150),
])
def test_stacked_run_aA_equals_single_runs(c1, delta, N):
    p = RecurrenceParams(c1=c1, delta=delta)
    slack = _slack_stack(np.random.default_rng(21), 60, N)
    stacked = recurrences.run_aA(p, N, slack_schedule=slack)
    assert stacked.small.shape == stacked.large.shape == (60, N + 1)
    for name in FLAGS + ("crossover",):
        assert getattr(stacked, name).shape == (60,)
    for s, row in enumerate(slack):
        one = recurrences.run_aA(p, N, slack_schedule=row)
        assert np.array_equal(stacked.small[s], one.small)
        assert np.array_equal(stacked.large[s], one.large)
        assert np.array_equal(stacked.heights, one.heights)
        for name in FLAGS:
            assert type(getattr(one, name)) is bool
            assert getattr(stacked, name)[s] == getattr(one, name), name
        expected = -1 if one.crossover is None else one.crossover
        assert stacked.crossover[s] == expected
        a, A, flags, crossover = _reference_run(p, N, row)
        assert np.array_equal(one.small, a) and np.array_equal(one.large, A)
        assert {name: getattr(one, name) for name in FLAGS} == flags
        assert one.crossover == crossover
    if delta > 0.1:  # some flag holds on some schedules and fails on others
        counts = [np.count_nonzero(getattr(stacked, name)) for name in FLAGS]
        assert any(0 < n < 60 for n in counts)


@pytest.mark.parametrize("delta, N", [(0.2, 5), (1e-3, 150)])
def test_stacked_dominates_equals_single_calls(delta, N):
    p = RecurrenceParams(delta=delta)
    slack = _slack_stack(np.random.default_rng(22), 40, N)
    stacked = recurrences.run_aA(p, N, slack_schedule=slack)
    ref = recurrences.run_dD(p, N, D0=stacked.large[0, 0])
    dom = recurrences.dominates(stacked, ref)
    assert dom.shape == (40,) and dom.dtype == bool
    for s, row in enumerate(slack):
        one = recurrences.run_aA(p, N, slack_schedule=row)
        assert dom[s] == recurrences.dominates(one, ref)
    assert type(recurrences.dominates(one, ref)) is bool


def test_zero_slack_schedules():
    p = RecurrenceParams(delta=1e-3)
    runs = recurrences.run_aA(p, 30, slack_schedule=np.empty((0, 30, 2)))
    assert runs.small.shape == runs.large.shape == (0, 31)
    for name in FLAGS + ("crossover",):
        assert getattr(runs, name).shape == (0,)
    ref = recurrences.run_dD(p, 30)
    assert recurrences.dominates(runs, ref).shape == (0,)
    with pytest.raises(ValueError):
        recurrences.run_aA(p, 30, slack_schedule=np.zeros((2, 2, 30, 2)))


def _quantities(p, N):
    """b_0, the default D_0, the growth factor, the growth target and the
    bound on A_N of a run_aA whose slack overshoots by just under 1 at N."""
    lam_dl = p.lam - p.delta
    with np.errstate(all="ignore"):
        b0 = recurrences.geometric_heights(p, N)[0]
        d0 = p.c2 * (p.lam + p.delta) ** (-N / 2.0)
        growth = np.float64(p.lam) ** (N * (1.0 - p.epsilon))
        a_bound = np.exp(
            math.log(p.c2) + N * math.log(lam_dl + 1.0) - N / 2.0 * math.log(lam_dl)
        )
        return np.array([b0, d0, growth, d0 * growth, a_bound])


@pytest.mark.parametrize("params", [
    RecurrenceParams(delta=1e-3),
    RecurrenceParams(delta=0.0),
    RecurrenceParams(delta=0.05, epsilon=0.2),
    RecurrenceParams(lam=4.0, c2=1e-20, delta=0.01),
    RecurrenceParams(lam=1.3, epsilon=0.01, delta=0.001),
])
def test_max_steps_is_the_last_normal_n(params):
    n_max = recurrences.max_steps(params)
    tiny = np.finfo(float).tiny
    at, past = _quantities(params, n_max), _quantities(params, n_max + 1)
    assert np.all(np.isfinite(at) & (at >= tiny))
    assert not np.all(np.isfinite(past) & (past >= tiny))
    overshoot = np.zeros((n_max, 2))
    overshoot[:, 1] = np.nextafter(1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recurrences.run_dD(params, n_max)
        runs = recurrences.run_aA(params, n_max, slack_schedule=overshoot)
    assert np.all(np.isfinite(runs.large))
    for run in (recurrences.run_dD, recurrences.run_aA):
        with pytest.raises(ValueError, match=f"N must be <= {n_max}"):
            run(params, n_max + 1)


def test_max_steps_bounds_the_overshooting_a_run():
    # near lambda = 1 the bound on an overshooting A_N, not the heights or
    # D_0, caps N
    p = RecurrenceParams(lam=1.01)
    assert recurrences.max_steps(p) == 1023
    assert 1023 == math.floor(
        math.log(np.finfo(float).max)
        / (math.log(p.lam - p.delta + 1.0) - 0.5 * math.log(p.lam - p.delta))
    )


def test_max_steps_of_the_default_parameters():
    # b_0 = (lambda - delta)^(-N) reaches the smallest normal float first
    p = RecurrenceParams(delta=1e-3)
    assert recurrences.max_steps(p) == 736
    assert 736 == math.floor(
        -math.log(np.finfo(float).tiny) / math.log(p.lam - p.delta)
    )
    slack = _slack_stack(np.random.default_rng(23), 5, 736)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = recurrences.run_aA(p, 736, slack_schedule=slack)
    assert np.all(np.isfinite(runs.large)) and np.all(runs.passed)
