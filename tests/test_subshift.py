import numpy as np
import pytest

from fibtrace import subshift

MU = (1 + np.sqrt(5)) / 2


EXPECTED = np.array(
    [
        [0, 0, 0, 1, 1, 1],
        [0, 0, 1, 0, 1, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
    ]
)


def test_transition_matrix_bit_exact():
    assert np.array_equal(subshift.TRANSITION, EXPECTED)


def test_admissible_words():
    assert subshift.admissible([1, 4, 6, 2, 5, 1])
    assert not subshift.admissible([1, 2])
    assert subshift.admissible([3])
    with pytest.raises(ValueError):
        subshift.admissible([])
    with pytest.raises(ValueError):
        subshift.admissible([0, 1])


def test_counts_match_enumeration():
    for n in range(1, 11):
        words, _ = subshift.counts(n)
        assert words == subshift.enumerate_words(n)


def test_small_period_traces():
    assert np.trace(np.linalg.matrix_power(subshift.TRANSITION, 2)) == 4
    assert np.trace(np.linalg.matrix_power(subshift.TRANSITION, 3)) == 0
    assert subshift.counts(2) == (10, 4)
    assert subshift.counts(3)[1] == 0


def test_spectral_radius_is_golden_mean():
    rho = subshift.spectral_radius()
    assert abs(rho - MU) <= 1e-13
    # independent oracle: dominant root of the characteristic polynomial
    assert abs(subshift.characteristic_root() - rho) < 1e-8


def test_entropy_matches_log_radius():
    assert abs(subshift.entropy() - np.log(subshift.spectral_radius())) < 1e-12


def test_counts_rejects_out_of_range():
    with pytest.raises(ValueError):
        subshift.counts(0)
    with pytest.raises(ValueError):
        subshift.counts(21)
