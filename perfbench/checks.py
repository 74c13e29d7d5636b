"""Output checks for the benchmark, computed apart from fibtrace.

Each ``check_*`` function takes a parsed CLI output (and the job's
parameters) and returns a list of problems; an empty list means the
output passed.  The spectral checks use only numpy and the maths:

- the zeros of the half-trace x_k are the F_k eigenvalues of the
  period-F_k Fibonacci operator with Bloch phase pi/2, so a cover is
  complete when every one of them lies inside it;
- a cover edge is a true band edge when |x_j| - 1 changes sign next to
  it, with x_j evaluated by the benchmark's own recursion;
- box counts on the halving grid are recounted from the band
  intervals, and the least-squares slope is refitted from the counts.
"""

from __future__ import annotations

import math

import numpy as np

#: a cover zero or edge may sit this many root tolerances off its band
EDGE_SLACK = 4.0

#: distance allowed between a Cantor estimate on the halving grid and
#: log 2 / log(1/r); the measured worst case on the job list is 0.015
CANTOR_TOLERANCE = 0.03


def fibonacci(k: int) -> int:
    """F_0 = F_1 = 1, F_{k+1} = F_k + F_{k-1}."""
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def fibonacci_word(k: int) -> list[int]:
    """The period-F_k potential word w_k = w_{k-1} w_{k-2} (w_0 = 0, w_1 = 1)."""
    words = [[0], [1]]
    for _ in range(2, k + 1):
        words.append(words[-1] + words[-2])
    return words[k]


def half_trace_zeros(k: int, coupling: float) -> np.ndarray:
    """The F_k zeros of x_k: eigenvalues of the Bloch-phase-pi/2 operator."""
    v = coupling * np.array(fibonacci_word(k), dtype=float)
    p = len(v)
    h = np.diag(v).astype(complex)
    idx = np.arange(p - 1)
    h[idx, idx + 1] = h[idx + 1, idx] = 1.0
    h[0, p - 1] += 1j
    h[p - 1, 0] -= 1j
    return np.linalg.eigvalsh(h)


def half_trace(E, coupling: float, k: int) -> np.ndarray:
    """x_k(E) by x_{j+1} = 2 x_j x_{j-1} - x_{j-2}, (x_{-1}, x_0, x_1) = (1, E/2, (E-V)/2)."""
    E = np.asarray(E, dtype=float)
    a, b, c = np.ones_like(E), E / 2.0, (E - coupling) / 2.0
    for _ in range(k - 1):
        a, b, c = b, c, 2.0 * c * b - a
    return c


def cover_problems(bands: np.ndarray, coupling: float, k: int, tol: float) -> list[str]:
    """Completeness and edge checks of a level-k cover sigma_k u sigma_{k+1}."""
    if len(bands) == 0:
        return ["cover is empty"]
    lo, hi = bands[:, 0], bands[:, 1]
    if np.any(hi < lo) or np.any(lo[1:] <= hi[:-1]):
        return ["bands are not sorted, disjoint intervals"]
    problems = []
    slack = EDGE_SLACK * tol
    for j in (k, k + 1):
        z = half_trace_zeros(j, coupling)
        i = np.clip(np.searchsorted(lo, z, side="right") - 1, 0, len(lo) - 1)
        near = (z >= lo[i] - slack) & (z <= hi[i] + slack)
        nxt = np.minimum(i + 1, len(lo) - 1)
        near |= (z >= lo[nxt] - slack) & (z <= hi[nxt] + slack)
        held = int(near.sum())
        if held != fibonacci(j):
            problems.append(f"cover holds {held} of the F_{j} = {fibonacci(j)} zeros of x_{j}")
    # |x_j| - 1 must change sign within EDGE_SLACK root tolerances of
    # each edge, for j = k or k + 1; 129 samples resolve bands far
    # narrower than the window
    edges = np.concatenate([lo, hi])
    offsets = np.linspace(-slack, slack, 129)
    grid = edges[:, None] + offsets[None, :]
    true_edge = np.zeros(len(edges), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in (k, k + 1):
            outside = ~(np.abs(half_trace(grid, coupling, j)) <= 1.0)
            true_edge |= outside.any(axis=1) & ~outside.all(axis=1)
    if not true_edge.all():
        e = edges[~true_edge][0]
        problems.append(
            f"{int((~true_edge).sum())} cover edges are no band edge of "
            f"sigma_{k} or sigma_{k + 1}, first at E = {e!r}"
        )
    return problems


def check_spectrum(output: dict, coupling: float, k: int, resolution: float) -> list[str]:
    bands = np.array([(float(b["lo"]), float(b["hi"])) for b in output["bands"]]).reshape(-1, 2)
    problems = []
    if output["band_count"] != len(bands):
        problems.append("band_count differs from the number of bands")
    measure = float((bands[:, 1] - bands[:, 0]).sum())
    if not math.isclose(float(output["measure"]), measure, rel_tol=1e-9, abs_tol=1e-15):
        problems.append("measure differs from the summed band widths")
    return problems + cover_problems(bands, coupling, k, resolution / 10.0)


def box_counts(bands: np.ndarray, eps: float) -> int:
    """Boxes [j eps, (j+1) eps) whose interior meets a band."""
    lo, hi = bands[:, 0], bands[:, 1]
    first = np.floor(lo / eps)
    first = np.where((first + 1.0) * eps <= lo, first + 1.0, first)
    last = np.ceil(hi / eps) - 1.0
    last = np.where(last * eps >= hi, last - 1.0, last)
    last = np.maximum(last, first)
    # bands are sorted, so each band adds only the boxes past the last
    # box of the bands before it
    prev = np.concatenate([[-np.inf], np.maximum.accumulate(last)[:-1]])
    return int(np.maximum(0.0, last - np.maximum(first, prev + 1.0) + 1.0).sum())


def least_squares(counts) -> tuple[float, float]:
    """Slope and RMS residual of log N against log(1/eps)."""
    xs = np.array([math.log(1.0 / e) for e, _ in counts])
    ys = np.array([math.log(n) for _, n in counts])
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(np.sqrt(np.mean((ys - slope * xs - intercept) ** 2)))


def check_estimate(estimate: dict, bands: np.ndarray | None = None) -> list[str]:
    """Nesting of the counts, the refitted slope, and recounted boxes."""
    counts = sorted(((float(e), int(n)) for e, n in estimate["counts"]), reverse=True)
    problems = []
    if len(counts) < 5:
        problems.append(f"only {len(counts)} scales")
    for (e1, n1), (e2, n2) in zip(counts, counts[1:]):
        if not math.isclose(e2, e1 / 2.0, rel_tol=1e-9):
            problems.append(f"scales {e1!r}, {e2!r} are not a halving grid")
            break
        if not n1 <= n2 <= 2 * n1:
            problems.append(f"N({e1!r}) = {n1}, N({e2!r}) = {n2} breaks N <= N/2 <= 2N")
            break
    slope, residual = least_squares(counts)
    if not math.isclose(float(estimate["value"]), slope, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"reported dimension {estimate['value']} against refitted {slope!r}")
    if not math.isclose(float(estimate["residual"]), residual, rel_tol=1e-6, abs_tol=1e-12):
        problems.append(f"reported residual {estimate['residual']} against refitted {residual!r}")
    if bands is not None:
        for e, n in counts:
            own = box_counts(bands, e)
            if own != n:
                problems.append(f"N({e!r}) = {n} against a recount of {own}")
                break
    return problems


def cantor_intervals(ratio: float, depth: int) -> np.ndarray:
    """The depth-n two-map Cantor approximation in [0, 1], built apart from fibtrace."""
    lo, hi = np.array([0.0]), np.array([1.0])
    for _ in range(depth):
        off = 1.0 - ratio
        lo = np.concatenate([ratio * lo, off + ratio * lo])
        hi = np.concatenate([ratio * hi, off + ratio * hi])
    order = np.argsort(lo, kind="stable")
    return np.column_stack([lo[order], hi[order]])


def check_cantor(output: dict, ratio: float, depth: int) -> list[str]:
    est = output["estimate"]
    problems = check_estimate(est, cantor_intervals(ratio, depth))
    exact = math.log(2.0) / math.log(1.0 / ratio)
    if abs(float(est["value"]) - exact) > CANTOR_TOLERANCE:
        problems.append(f"estimate {est['value']} is more than {CANTOR_TOLERANCE} from {exact!r}")
    return problems


def check_certificate(output: dict) -> list[str]:
    """The acceptance suite's own bounds on each certificate kind."""
    rep = output["report"]
    kind = rep["kind"]
    if kind == "empirical":
        problems = []
        if float(rep["cone_invariance_fraction"]) != 1.0:
            problems.append(f"cone fraction {rep['cone_invariance_fraction']}")
        if rep["cone_checks"] <= 0:
            problems.append("no cone checks")
        if not float(rep["inconclusive_rate"]) < 0.05:
            problems.append(f"inconclusive rate {rep['inconclusive_rate']}")
        ratio = float(rep["min_expansion_ratio"])
        if not (math.isfinite(ratio) and ratio > 0.0):
            problems.append(f"min expansion ratio {rep['min_expansion_ratio']}")
        return problems
    if kind == "model":
        if rep["passed"] != rep["vectors"] or rep["inconclusive"] != 0:
            return [f"{rep['passed']} of {rep['vectors']} vectors passed"]
        return []
    if kind == "recurrence":
        flags = ["tail_bound_ok", "growth_bound_ok", "stepwise_growth_ok",
                 "stepwise_small_ok", "dichotomy_ok"]
        problems = [f"{f} is false" for f in flags if rep[f] is not True]
        if rep["slack_schedules_passed"] != rep["slack_schedules"]:
            problems.append(f"{rep['slack_schedules_passed']} of "
                            f"{rep['slack_schedules']} slack schedules passed")
        return problems
    return [f"unknown certificate kind {kind!r}"]
