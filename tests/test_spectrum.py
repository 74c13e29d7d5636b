import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fibtrace import cli, spectrum
from fibtrace.intervals import merge_intervals
from oracles import half_trace_oracle, in_bands, transfer_matrix


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
            oracle = half_trace_oracle(k, E_grid, V)
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
        chain[k - 1].union(chain[k]).close_gaps(1e-4) for k in range(2, 9)
    ]
    slack = 1e-3
    for a, b in zip(covers, covers[1:]):
        assert b.measure <= a.measure + slack
        # each later cover sits inside the earlier one
        for lo, hi in b.intervals:
            assert in_bands(a.intervals, [lo, hi], slack).all()


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
            x = half_trace_oracle(j, edges, V)
            assert np.max(np.abs(np.abs(x) - 1.0)) < 1e-8


def _dense_level(j, V):
    """Band edges of level j from the two dense F_j x F_j ring solves, the
    oracle for the four Jacobi matrices of ``_level_bands`` on the folded
    half ring; an (F_j, 2) sorted array."""
    h = np.diag(V * spectrum._fibonacci_word(j))
    idx = np.arange(len(h) - 1)
    h[idx, idx + 1] = h[idx + 1, idx] = 1.0
    edges = []
    for corner in (1.0, -1.0):
        g = h.copy()
        g[0, -1] += corner  # adds to the diagonal when F_j = 1
        g[-1, 0] += corner
        edges.append(np.linalg.eigvalsh(g))
    return np.sort(np.concatenate(edges)).reshape(-1, 2)


def test_fibonacci_word_is_its_own_mirror_image():
    # w_j is fixed by i -> (F_{j-1} - 3 - i) mod F_j at every level
    for j in range(1, spectrum.MAX_LEVEL + 1):
        w = spectrum._fibonacci_word(j)
        n = spectrum.fibonacci(j)
        mirror = (spectrum.fibonacci(j - 1) - 3 - np.arange(n)) % n
        assert len(w) == n and np.array_equal(w[mirror], w)
        # a centre one site off is no symmetry from F_j = 3 on
        if n > 2:
            assert not np.array_equal(w[(mirror + 1) % n], w)


def test_level_bands_refuses_a_word_that_is_not_its_own_mirror_image(monkeypatch):
    word = spectrum._fibonacci_word
    monkeypatch.setattr(spectrum, "_fibonacci_word", lambda k: np.roll(word(k), 1))
    for j in (3, 4, 5, 9, 10):
        with pytest.raises(AssertionError, match=f"w_{j} is not symmetric"):
            spectrum._level_bands(j, 1.0)


@pytest.mark.parametrize("V", [0.5, 1.0, 3.0])
def test_mirror_blocks_match_the_dense_solve_at_small_levels(V):
    # F_j = 1, 2, 3, 5, 8, 13: the single site, the two-site ring, and
    # rings of odd F_j (one fixed site and one fixed hop) and of even F_j
    # (two fixed sites)
    for j in range(1, 7):
        folded = spectrum._level_bands(j, V).intervals
        dense = _dense_level(j, V)
        assert folded.shape == (spectrum.fibonacci(j), 2)
        assert np.max(np.abs(folded - dense)) <= 8 * np.finfo(float).eps * (4 + V)


@pytest.mark.parametrize("V", [0.1, 1.0, 4.0, 16.0, 32.0, 64.0, 128.0])
def test_mirror_blocks_match_the_dense_solve(V):
    # wherever the dense solve resolves every band to 4 ulp, the blocks give
    # the same F_j bands with edges within 64 eps (4 + V) of its edges
    compared = []
    for j in range(1, 15):
        dense = _dense_level(j, V)
        width = dense[:, 1] - dense[:, 0]
        if np.any(width < 4 * np.spacing(np.abs(dense).max(axis=1))):
            continue  # the float64 floor: the dense solve already loses bands
        folded = spectrum._level_bands(j, V)
        assert len(folded) == spectrum.fibonacci(j)
        bound = 64 * np.finfo(float).eps * (4 + V)
        assert np.max(np.abs(folded.intervals - dense)) <= bound
        compared.append(j)
    assert compared[:10] == list(range(1, 11))


needs_dsterf = pytest.mark.skipif(
    spectrum._DSTERF is None, reason="numpy's LAPACK exports no dsterf")


@needs_dsterf
def test_dsterf_gives_the_bits_of_the_dense_solve(monkeypatch):
    # dsterf on the (d, e) pairs against eigvalsh on the same blocks held
    # dense, past dsyevd's scaling threshold 2^485 too; at 1e300, scaling
    # a 1 x 1 block and back, which dsyevd does not, changes its bits
    grid = [0.0, 0.1, 0.5, 1.0, 4.0, 16.0, 32.0, 64.0, 128.0, 1e100, 1e200, 1e300]
    lapack = {(V, j): spectrum._level_bands(j, V).intervals
              for V in grid for j in range(1, 16)}
    monkeypatch.setattr(spectrum, "_DSTERF", None)
    for (V, j), edges in lapack.items():
        assert np.array_equal(edges, spectrum._level_bands(j, V).intervals), (V, j)


def test_a_failed_dsterf_raises_and_the_cli_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(spectrum, "_DSTERF", lambda n, d, e: 1)
    with pytest.raises(ArithmeticError, match="info = 1"):
        spectrum._level_bands(5, 1.0)
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--out", str(out), "--set", "coupling=1"]) == 3
    assert "dsterf failed with info = 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dsterf", [lambda n, d, e: 1, None], ids=["dsterf", "dense"])
@pytest.mark.parametrize("size", [1, 3])
def test_an_off_diagonal_of_the_wrong_length_is_refused(monkeypatch, dsterf, size):
    # no pointer goes out to dsterf, and no dense matrix broadcasts e
    monkeypatch.setattr(spectrum, "_DSTERF", dsterf)
    with pytest.raises(ValueError, match=f"order 3 has 2 off-diagonal entries, not {size}"):
        spectrum._jacobi_eigvalsh(np.zeros(3), np.ones(size))


@needs_dsterf
def test_a_level_solve_holds_o_m_memory():
    # level 17 has blocks of 1293 sites: dense, one took 13 MB
    tracemalloc.start()
    try:
        spectrum._level_bands(17, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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
    assert in_bands(cover.intervals, zeros).all()


def _pair_is_resolved(lower, upper, j, V):
    """The cover rule: for V > 0 levels j and j + 1 hold F_j and F_{j+1}
    bands, and their gap-free union's narrowest band is wider than 100 ulp
    of its largest |edge|."""
    if V > 0 and (len(lower), len(upper)) != (
        spectrum.fibonacci(j), spectrum.fibonacci(j + 1)
    ):
        return False
    union = merge_intervals(np.concatenate([lower.intervals, upper.intervals]))
    widths = union[:, 1] - union[:, 0]
    return bool(widths.min() > 100.0 * math.ulp(np.abs(union).max()))


@pytest.mark.parametrize("V, k", [(128.0, 12), (64.0, 15), (32.0, 16)])
def test_cover_backs_off_past_the_float_floor(tmp_path, V, k):
    cover = spectrum.spectrum_cover(V, k, 0.0)
    j = cover.generation
    assert 1 <= j < k
    chain = spectrum.approximant_chain(j + 2, V)
    lower, upper, deeper = chain[j - 1], chain[j], chain[j + 1]
    assert _pair_is_resolved(lower, upper, j, V)
    assert not _pair_is_resolved(upper, deeper, j + 1, V)
    assert np.array_equal(cover.intervals, lower.union(upper).intervals)
    # the CLI reports the level it reached, without numpy warnings
    out = tmp_path / "spec.json"
    r = subprocess.run(
        [sys.executable, "-m", "fibtrace.cli", "spectrum", "--out", str(out),
         "--set", f"coupling={V}", "--set", f"k={k}"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert "Warning" not in r.stderr
    assert json.loads(out.read_text())["level"] == j


def test_dimension_of_an_unresolved_level_backs_off(tmp_path):
    out = tmp_path / "dim.json"
    r = subprocess.run(
        [sys.executable, "-m", "fibtrace.cli", "dimension", "--out", str(out),
         "--set", "mode=spectrum", "--set", "coupling=32", "--set", "k=16"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert "Warning" not in r.stderr
    payload = json.loads(out.read_text())
    assert payload["level"] == spectrum.spectrum_cover(32.0, 16, 1e-7).generation
    assert payload["level"] < 16


@pytest.mark.parametrize("V", [0.1, 1.0, 4.0, 16.0, 32.0, 64.0, 128.0])
def test_every_cover_is_the_deepest_resolved_pair(V):
    chain = spectrum.approximant_chain(15, V)
    resolved = [None] + [
        _pair_is_resolved(chain[j - 1], chain[j], j, V) for j in range(1, 15)
    ]
    for k in range(1, 15):
        cover = spectrum.spectrum_cover(V, k, 0.0)
        j = cover.generation
        assert resolved[j] and not any(resolved[j + 1 : k + 1])
        assert np.array_equal(
            cover.intervals, chain[j - 1].union(chain[j]).intervals
        )


def test_argument_validation():
    with pytest.raises(ValueError):
        spectrum.approximant_chain(0, 1.0)
    with pytest.raises(ValueError):
        spectrum.approximant_chain(spectrum.MAX_LEVEL + 1, 1.0)
    with pytest.raises(ValueError):
        spectrum.spectrum_cover(1.0, 0)
    with pytest.raises(ValueError):
        spectrum.spectrum_cover(1.0, spectrum.MAX_LEVEL)
    with pytest.raises(ValueError):
        half_trace_oracle(17, 0.0, 1.0)
    with pytest.raises(ValueError):
        transfer_matrix(0, 0.0, 1.0)


def _exact_half_trace(j, E, V, slope=False):
    """x_j(E), j >= 1, as an exact Fraction, by the recursion from
    (1, E/2, (E - V)/2) as ``trace_sequence`` starts it; with ``slope``,
    the pair (x_j, dx_j/dE).  Float E and V are exact binary rationals,
    so nothing is rounded."""
    E, V = Fraction(E), Fraction(V)
    x = (Fraction(1), E / 2, (E - V) / 2)
    dx = (Fraction(0), Fraction(1, 2), Fraction(1, 2))
    for _ in range(j - 1):
        if slope:
            dx = (dx[1], dx[2], 2 * (dx[2] * x[1] + x[2] * dx[1]) - dx[0])
        x = (x[1], x[2], 2 * x[2] * x[1] - x[0])
    return (x[2], dx[2]) if slope else x[2]


def _exact_edge_distance(j, V, e, u):
    """The least d in 0, 1, 2, 4, ... for which sigma_j provably has a
    true edge within d u of the float e.

    There is one in [e - d u, e + d u] when x_j^2 - 1 changes sign
    between the two ends, or when both ends lie inside sigma_j and the
    slope of x_j changes sign between them: x_j is strictly monotone on
    each band, so a critical point between two band points is a gap,
    open or closed (as at V = 0), whose ends lie between them.  A band
    narrower than d u can hide between the sampled points, so d is an
    upper bound on the distance and, at most, twice it.
    """
    e, u = Fraction(e), Fraction(u)

    def excess(E):
        x = _exact_half_trace(j, E, V)
        return x * x - 1

    if excess(e) == 0:
        return 0
    d = 1
    while d <= 2**64:
        lo, hi = e - d * u, e + d * u
        at_lo, at_hi = excess(lo), excess(hi)
        if at_lo * at_hi <= 0:
            return d
        if at_lo < 0 and at_hi < 0:
            turn = _exact_half_trace(j, lo, V, True)[1] * _exact_half_trace(j, hi, V, True)[1]
            if turn <= 0:
                return d
        d *= 2
    raise AssertionError(f"no edge of sigma_{j} within 2^64 u of {float(e)!r}")


def test_exact_oracle_brackets_the_free_edges():
    # at V = 0, x_j(2 cos t) = cos(F_j t): the bands touch at the edges
    # 2 cos(pi m / F_j), which the float cosine puts within a few u
    u = math.ulp(2.0)
    for j in (5, 8, 10):
        n = spectrum.fibonacci(j)
        for m in range(n + 1):
            e = 2.0 * math.cos(math.pi * m / n)
            assert _exact_edge_distance(j, 0.0, e, u) <= 4, (j, m)
    # and a point between two edges is as far from both as it is
    mid, gap = 2.0 * math.cos(math.pi / 16), 2.0 - 2.0 * math.cos(math.pi / 16)
    assert gap <= _exact_edge_distance(5, 0.0, mid, u) * u < 2.0 * gap


def test_exact_oracle_matches_the_matrix_oracle():
    # criterion 02's tolerance, at random energies
    E = np.random.default_rng(31).uniform(-3.0, 3.0, 40)
    for V in (0.0, 0.1, 1.0):
        for j in (1, 4, 9, 13):
            oracle = half_trace_oracle(j, E, V)
            exact = np.array([float(_exact_half_trace(j, e, V)) for e in E])
            valid = np.abs(oracle) <= 1e6
            rel = np.abs(exact - oracle)[valid] / np.maximum(1.0, np.abs(oracle[valid]))
            assert valid.sum() > 10 and rel.max() <= 1e-8, (V, j)


@pytest.mark.parametrize("V, j", [(1.0, 12), (16.0, 13), (128.0, 9)])
def test_level_edges_lie_near_true_edges(V, j):
    # 40 evenly spaced float edges per level, each within 64 u of a true
    # edge of sigma_j, u the ulp of the level's largest |edge|
    edges = spectrum._level_bands(j, V).as_array().ravel()
    u = math.ulp(np.max(np.abs(edges)))
    picked = edges[np.linspace(0, len(edges) - 1, 40).round().astype(int)]
    assert max(_exact_edge_distance(j, V, e, u) for e in picked) <= 64


def test_the_level_4_and_5_bands_touch_at_minus_one():
    # at V = 1, x_4(-1) = x_5(-1) = 1 exactly: a sigma_5 band ends and a
    # sigma_4 band starts at -1, so their true union has no gap there
    # (the computed sigma_5 edge is the float 1 ulp below -1)
    assert _exact_half_trace(4, -1.0, 1.0) == _exact_half_trace(5, -1.0, 1.0) == 1
    below = np.nextafter(-1.0, -2.0)
    assert abs(_exact_half_trace(5, below, 1.0)) < 1 < abs(_exact_half_trace(4, below, 1.0))
