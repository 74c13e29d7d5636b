import numpy as np
import pytest

from fibtrace import spectrum


def test_fibonacci_numbers():
    assert [spectrum.fibonacci(k) for k in range(8)] == [
        1, 1, 2, 3, 5, 8, 13, 21,
    ]
    with pytest.raises(ValueError):
        spectrum.fibonacci(-1)


def test_recursion_matches_matrix_oracle():
    E_grid = np.linspace(-3, 3, 61)
    for V in (0.0, 0.5, 1.0):
        xs = spectrum.trace_sequence(E_grid, V, 8)
        for k in range(-1, 9):
            oracle = spectrum.half_trace_oracle(k, E_grid, V)
            scale = np.maximum(1.0, np.abs(oracle))
            assert np.max(np.abs(xs[k + 1] - oracle) / scale) < 1e-10


def test_trace_sequence_shape_and_overflow():
    assert spectrum.trace_sequence(0.5, 1.0, 3).shape == (5,)
    assert spectrum.trace_sequence(np.zeros((2, 3)), 1.0, 4).shape == (6, 2, 3)
    # E = 0, V = 0 is the spectrum's center: x_k cycles within [-1, 1]
    assert np.all(np.abs(spectrum.trace_sequence(0.0, 0.0, 200)) <= 1.0)
    # far outside the spectrum the orbit escapes; from the first value
    # past OVERFLOW every later one is NaN
    x = spectrum.trace_sequence(10.0, 1.0, 40)
    blown = np.isnan(x)
    first = int(np.argmax(blown))
    assert 3 < first and blown[first:].all()
    assert np.all(np.abs(x[:first]) <= spectrum.OVERFLOW)
    # x_0 = 1.5e300 is past OVERFLOW, so the finite x_1 = 0, x_2 = -1 that
    # follow it are NaN too
    assert np.isnan(spectrum.trace_sequence(3e300, 3e300, 4)[1:]).all()
    with pytest.raises(ValueError):
        spectrum.trace_sequence(0.0, 1.0, 0)


def test_free_spectrum_is_interval():
    cover = spectrum.spectrum_cover(0.0, 10, resolution=1e-3)
    lo, hi = cover.extent
    assert abs(cover.measure - 4.0) < 0.05
    assert abs(lo + 2.0) < 1e-2 and abs(hi - 2.0) < 1e-2


def test_covers_nested_and_shrinking():
    chain = spectrum.approximant_chain(9, 1.0)
    covers = [
        chain[k - 1].union(chain[k], gap_tol=1e-4) for k in range(2, 9)
    ]
    slack = 1e-3
    for a, b in zip(covers, covers[1:]):
        assert b.measure <= a.measure + slack
        # each later cover sits inside the earlier one
        for lo, hi in b.intervals:
            assert a.contains(lo, slack) and a.contains(hi, slack)


def test_bounded_energies_lie_in_cover():
    V, k = 1.0, 10
    cover = spectrum.spectrum_cover(V, k, resolution=1e-3)
    E = np.linspace(V - 3, V + 3, 1201)
    x = spectrum.trace_sequence(E, V, k + 1)
    small = (np.abs(x[k + 1]) <= 1.0) | (np.abs(x[k + 2]) <= 1.0)
    lo, hi = cover.intervals.T
    inside = ((lo <= E[:, None]) & (E[:, None] <= hi)).any(axis=1)
    assert small.any()
    assert inside[small].all()
    # no gap the cover merged falls on the grid, so the converse holds too
    assert small[inside].all()


def test_every_level_holds_fibonacci_many_bands():
    for V in (0.1, 0.5, 1.0, 4.0, 16.0):
        chain = spectrum.approximant_chain(13, V)
        assert [len(level) for level in chain] == [
            spectrum.fibonacci(j) for j in range(1, 14)
        ]


def test_band_edges_are_where_half_trace_is_one():
    for V in (0.1, 0.5, 1.0):
        for j, level in enumerate(spectrum.approximant_chain(10, V), start=1):
            edges = level.as_array().ravel()
            x = spectrum.half_trace_oracle(j, edges, V)
            assert np.max(np.abs(np.abs(x) - 1.0)) < 1e-8


def _half_trace_zeros(k, V):
    """Zeros of x_k: eigenvalues of the period-F_k operator at Bloch phase pi/2."""
    words = [[0.0], [1.0]]
    for _ in range(2, k + 1):
        words.append(words[-1] + words[-2])
    h = np.diag(V * np.array(words[k])).astype(complex)
    p = len(h)
    idx = np.arange(p - 1)
    h[idx, idx + 1] = h[idx + 1, idx] = 1.0
    h[0, p - 1] += 1j
    h[p - 1, 0] -= 1j
    return np.linalg.eigvalsh(h)


def test_strong_coupling_cover_holds_every_zero():
    cover = spectrum.spectrum_cover(16.0, 12)
    assert len(cover) > 0
    zeros = _half_trace_zeros(12, 16.0)
    assert len(zeros) == spectrum.fibonacci(12)
    assert all(cover.contains(z) for z in zeros)


def test_argument_validation():
    with pytest.raises(ValueError):
        spectrum.approximant_chain(0, 1.0)
    with pytest.raises(ValueError):
        spectrum.approximant_chain(spectrum.MAX_LEVEL + 1, 1.0)
    with pytest.raises(ValueError):
        spectrum.spectrum_cover(1.0, 0)
    with pytest.raises(ValueError):
        spectrum.half_trace_oracle(17, 0.0, 1.0)
    with pytest.raises(ValueError):
        spectrum.transfer_matrix(0, 0.0, 1.0)
