"""The 6-symbol topological Markov chain coding the bounded dynamics."""

from __future__ import annotations

import numpy as np

__all__ = [
    "TRANSITION",
    "counts",
    "entropy",
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


def spectral_radius() -> float:
    """Dominant eigenvalue: the largest |eigenvalue| of the transition matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(TRANSITION.astype(float)))))


def entropy() -> float:
    """Topological entropy: log of the spectral radius."""
    return float(np.log(spectral_radius()))
