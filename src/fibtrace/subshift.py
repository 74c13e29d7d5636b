"""The 6-symbol topological Markov chain coding the bounded dynamics."""

from __future__ import annotations

import numpy as np

__all__ = [
    "TRANSITION",
    "admissible",
    "characteristic_root",
    "counts",
    "entropy",
    "enumerate_words",
    "spectral_radius",
]

#: 0/1 transition matrix over symbols 1..6 (row = from, column = to)
TRANSITION = np.array(
    [
        [0, 0, 0, 1, 1, 1],
        [0, 0, 1, 0, 1, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
    ],
    dtype=np.int64,
)


def _check_word(word) -> list[int]:
    word = [int(s) for s in word]
    if not word:
        raise ValueError("word must be nonempty")
    for s in word:
        if not 1 <= s <= 6:
            raise ValueError(f"symbol {s} outside 1..6")
    return word


def admissible(word) -> bool:
    """True iff every adjacent pair is an allowed transition."""
    word = _check_word(word)
    return all(
        TRANSITION[a - 1, b - 1] == 1 for a, b in zip(word, word[1:])
    )


def counts(n: int) -> tuple[int, int]:
    """(admissible words of length n, periodic points of period n).

    Computed by exact integer matrix powers: word count is the total of
    the entries of the (n-1)-th power, periodic count is the trace of
    the n-th power.
    """
    if not 1 <= n <= 20:
        raise ValueError("length must be in 1..20")
    power = np.linalg.matrix_power(TRANSITION, n - 1)
    word_count = int(power.sum())
    periodic_count = int(np.trace(power @ TRANSITION))
    return word_count, periodic_count


def enumerate_words(n: int) -> int:
    """Admissible word count by explicit depth-first enumeration.

    Independent of the matrix-power route; used to cross-check it.
    """
    if not 1 <= n <= 12:
        raise ValueError("enumeration is only sensible for n <= 12")
    total = 0
    stack = [(s, 1) for s in range(6)]
    while stack:
        sym, length = stack.pop()
        if length == n:
            total += 1
            continue
        for nxt in range(6):
            if TRANSITION[sym, nxt]:
                stack.append((nxt, length + 1))
    return total


def spectral_radius() -> float:
    """Dominant eigenvalue: the largest |eigenvalue| of the transition matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(TRANSITION.astype(float)))))


def characteristic_root(lo: float = 1.0, hi: float = 4.0) -> float:
    """Largest root of det(A - xI) found by bisection; oracle for entropy."""
    mat = TRANSITION.astype(float)

    def charpoly(x: float) -> float:
        return float(np.linalg.det(mat - x * np.eye(6)))

    # det(A - xI) ~ x^6 for large x, so it is positive at hi and the
    # dominant root is the last sign change below it
    f_hi = charpoly(hi)
    if f_hi <= 0:
        raise ValueError("hi does not bracket the dominant root")
    grid = np.linspace(hi, lo, 400)
    a = None
    for x in grid:
        if charpoly(x) < 0:
            a = x
            break
    if a is None:
        raise ValueError("no sign change in [lo, hi]")
    b = a + (hi - lo) / 399
    for _ in range(200):
        m = 0.5 * (a + b)
        if charpoly(m) < 0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def entropy() -> float:
    """Topological entropy: log of the spectral radius."""
    return float(np.log(spectral_radius()))
