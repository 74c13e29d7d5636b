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
        for k in range(-1, 9):
            oracle = spectrum.half_trace_oracle(k, E_grid, V)
            rec = np.array(
                [spectrum.trace_sequence(E, V, max(k, 1))[0][k + 1]
                 for E in E_grid]
            )
            scale = np.maximum(1.0, np.abs(oracle))
            assert np.max(np.abs(rec - oracle) / scale) < 1e-10


def test_escape_test_classifies_correctly():
    # E = 0, V = 0 is the spectrum's center: x_k cycles within [-1, 1]
    assert not spectrum.escape_test(0.0, 0.0).escaped
    # far outside any spectrum
    rec = spectrum.escape_test(10.0, 1.0)
    assert rec.escaped and rec.escape_index is not None
    with pytest.raises(ValueError):
        spectrum.escape_test(0.0, 0.0, escape_radius=0.5)


def test_escape_mask_matches_scalar_test():
    E = np.linspace(-4, 4, 101)
    mask = spectrum.escape_mask(E, 1.0, n_max=200)
    scal = np.array(
        [spectrum.escape_test(e, 1.0, n_max=200).escaped for e in E]
    )
    assert np.array_equal(mask, scal)


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
    bounded = ~spectrum.escape_mask(E, V, n_max=10000)
    assert all(cover.contains(e, slack=1e-3) for e in E[bounded])


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
