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


def test_height_sequence_validation():
    p = RecurrenceParams(delta=1e-3)
    good = recurrences.geometric_heights(p, 50)
    recurrences.check_heights(p, good)
    with pytest.raises(ValueError):
        recurrences.check_heights(p, good[::-1])  # decreasing
    bad = good.copy()
    bad[10] *= 2.0  # ratio outside lambda -+ delta
    with pytest.raises(ValueError):
        recurrences.check_heights(p, bad)
    with pytest.raises(ValueError):
        recurrences.run_aA(p, 50, heights=good[:-1])


def test_a0_and_d0_floors():
    p = RecurrenceParams(delta=1e-3)
    with pytest.raises(ValueError):
        recurrences.run_dD(p, 50, D0=1e-30)
    with pytest.raises(ValueError):
        recurrences.run_aA(p, 50, A0=1e-30)


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


def test_find_passing_parameters():
    delta0, n0 = recurrences.find_passing_parameters(n_grid=(50,))
    assert delta0 > 0 and n0 == 50
    run = recurrences.run_dD(RecurrenceParams(delta=delta0), n0)
    assert run.passed and run.stepwise_growth_ok and run.dichotomy_ok
