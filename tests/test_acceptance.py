"""Acceptance suite: one criterion per test, one printed pass/fail line.

Each test times itself, evaluates its criterion at the stated tolerance,
prints a single ``PASS``/``FAIL`` line, and then asserts.  The whole
suite is deterministic: every random draw is seeded.
"""

import math
import subprocess
import sys
import time

import numpy as np

from fibtrace import boxdim, certify, empirical, recurrences, spectrum
from fibtrace.intervals import BandSet
from fibtrace import subshift as sub
from fibtrace.recurrences import RecurrenceParams
from fibtrace.tracemap import fricke, per2_point, trace_step
from oracles import check_semiconjugacy, enumerate_words, half_trace_oracle, singular_orbit

MU = (1 + math.sqrt(5)) / 2


def report(num: int, label: str, ok: bool, t0: float, detail: str = ""):
    dt = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d} {label}{extra} [{dt:.2f}s]")
    assert ok, f"criterion {num} failed: {label} {extra}"


def test_criterion_01_fricke_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    pts = rng.uniform(-10, 10, size=(100_000, 3))
    g0 = fricke(pts)
    g1 = fricke(trace_step(pts))
    err = np.abs(g1 - g0) / (1.0 + np.abs(g0))
    ok = bool(np.max(err) <= 1e-9) and time.perf_counter() - t0 < 1.0
    report(1, "Fricke invariant conserved on 1e5 random points", ok, t0,
           f"max rel err {np.max(err):.2e}")


def test_criterion_02_oracle_equivalence():
    t0 = time.perf_counter()
    E_grid = np.linspace(-3, 3, 300)
    worst = 0.0
    compared = 0
    for V in (0.0, 0.1, 1.0):
        xs = spectrum.trace_sequence(E_grid, V, 16)
        for k in range(-1, 17):
            oracle = np.atleast_1d(half_trace_oracle(k, E_grid, V))
            rec = xs[k + 1]
            # NaN where the recursion overflowed before level k
            valid = np.isfinite(rec)
            # compare where both routes stay in the well-conditioned
            # range; past |x| ~ 1e6 catastrophic cancellation in the
            # matrix product makes "relative error" meaningless
            valid &= np.isfinite(oracle) & (np.abs(oracle) <= 1e6)
            if not valid.any():
                continue
            compared += int(valid.sum())
            rel = np.abs(rec[valid] - oracle[valid]) / np.maximum(
                1.0, np.abs(oracle[valid])
            )
            worst = max(worst, float(np.max(rel)))
    ok = worst <= 1e-8 and compared > 10_000
    ok = ok and time.perf_counter() - t0 < 10.0
    report(2, "trace recursion matches transfer-matrix oracle, k <= 16",
           ok, t0, f"max rel err {worst:.2e} over {compared} values")


def test_criterion_03_semiconjugacy_defect():
    t0 = time.perf_counter()
    defect = check_semiconjugacy(512)
    ok = defect <= 1e-10 and time.perf_counter() - t0 < 5.0
    report(3, "semiconjugacy defect on 512x512 torus grid", ok, t0,
           f"max defect {defect:.2e}")


def test_criterion_04_singular_eigendata():
    t0 = time.perf_counter()
    e = certify.singular_eigen()
    expected = np.array([(3 + math.sqrt(5)) / 2, -1.0, (3 - math.sqrt(5)) / 2])
    ok = bool(np.all(np.abs(e.eigenvalues - expected) <= 1e-10))
    ok = ok and abs(e.eigenvalues[0] - MU**2) <= 1e-10
    report(4, "singular-point eigenvalues and lambda = mu^2", ok, t0,
           f"max dev {np.max(np.abs(e.eigenvalues - expected)):.2e}")


def test_criterion_05_per2_and_singular_orbit():
    t0 = time.perf_counter()
    xs = np.linspace(-3, 3, 1000)
    xs = xs[np.abs(xs - 0.5) >= 1e-3]  # stay clear of the pole
    worst = 0.0
    for x in xs:
        p = per2_point(x)
        worst = max(worst, float(np.max(np.abs(trace_step(trace_step(p)) - p))))
    orbit = singular_orbit()
    pts = orbit["points"]
    exact = np.array_equal(trace_step(pts[0]), pts[0])
    cyc = orbit["cycle"]
    for i, j in zip(cyc, cyc[1:] + cyc[:1]):
        exact = exact and np.array_equal(trace_step(pts[i]), pts[j])
    ok = worst <= 1e-10 and exact
    report(5, "period-2 curve and singular orbit structure", ok, t0,
           f"max period-2 defect {worst:.2e}")


def test_criterion_06_recurrence_suite():
    t0 = time.perf_counter()
    delta0, n0 = 1e-3, 200  # recorded passing pair
    p = RecurrenceParams(epsilon=0.1, delta=delta0)  # lambda = MU**2, C1 = C2 = 1
    run = recurrences.run_dD(p, n0)
    ok = (run.tail_bound_ok and run.growth_bound_ok
          and run.stepwise_growth_ok and run.stepwise_small_ok
          and run.dichotomy_ok)
    rng = np.random.default_rng(106)
    slack = np.empty((100, n0, 2))
    for row in slack:
        row[:, 0] = rng.uniform(0, 0.3, n0)
        row[:, 1] = rng.uniform(0, 0.2, n0)
    # all 100 schedules step together from the shared A_0
    r_a = recurrences.run_aA(p, n0, slack_schedule=slack)
    r_d = recurrences.run_aA(p, n0)  # zero slack: the exact run from A_0
    passed = np.count_nonzero(r_a.passed & recurrences.dominates(r_a, r_d))
    ok = ok and passed == 100 and time.perf_counter() - t0 < 5.0
    report(6, "recurrence bounds at (delta0, N0) = (1e-3, 200)", ok, t0,
           f"{passed}/100 randomized schedules passed")


def test_criterion_07_model_map_suite():
    t0 = time.perf_counter()
    # delta = 0: the linear map must satisfy everything exactly
    m0 = certify.ModelMap(delta=0.0)
    z0 = certify.LAMBDA_BIG ** (-50)
    v0 = np.array([1.0, 0.0, np.sqrt(z0)])
    rep0 = certify.expansion_certificate(m0, np.array([0.2, -0.4, z0]), v0)
    ok = rep0.all_ok
    # delta = 1e-3: 10^3 random cone vectors with exit time >= N0
    rng = np.random.default_rng(107)
    m = certify.make_model_map(delta=1e-3, seed=1070)
    n0 = 200
    zp = certify.LAMBDA_BIG ** -rng.uniform(n0 + 1, n0 + 40, 1000)
    points = np.column_stack([rng.uniform(-1.0, 1.0, (1000, 2)), zp])
    vectors = certify.sample_cone_vectors_3d(zp, rng)
    rep = certify.expansion_certificates(m, points, vectors)
    passed = np.count_nonzero(rep.all_ok & (rep.exit_time >= n0))
    ok = ok and passed == 1000 and time.perf_counter() - t0 < 30.0
    report(7, "model-map expansion certificates", ok, t0,
           f"{passed}/1000 perturbed vectors passed")


def test_criterion_08_subshift():
    t0 = time.perf_counter()
    expected = np.array(
        [
            [0, 0, 0, 1, 1, 1],
            [0, 0, 1, 0, 1, 1],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
        ]
    )
    ok = np.array_equal(sub.TRANSITION, expected)
    for n in range(1, 11):
        ok = ok and sub.counts(n)[0] == enumerate_words(n)
    ok = ok and np.trace(np.linalg.matrix_power(sub.TRANSITION, 2)) == 4
    ok = ok and np.trace(np.linalg.matrix_power(sub.TRANSITION, 3)) == 0
    ok = ok and time.perf_counter() - t0 < 1.0
    report(8, "subshift matrix, word counts, and period traces", ok, t0)


def test_criterion_09_spectrum_sanity():
    t0 = time.perf_counter()
    free = spectrum.spectrum_cover(0.0, 10, resolution=1e-3)
    lo, hi = free.extent
    ok = abs(free.measure - 4.0) < 0.05
    ok = ok and abs(lo + 2.0) < 1e-2 and abs(hi - 2.0) < 1e-2
    chain = spectrum.approximant_chain(13, 1.0)
    measures = [
        chain[k - 1].union(chain[k]).close_gaps(1e-4).measure
        for k in range(2, 13)
    ]
    mono = all(b <= a + 1e-3 for a, b in zip(measures, measures[1:]))
    ok = ok and mono and time.perf_counter() - t0 < 120.0
    report(9, "spectral covers: free-operator sanity and monotonicity",
           ok, t0, f"V=0 measure {free.measure:.4f}, "
           f"V=1 measures {measures[0]:.3f}..{measures[-1]:.3f}")


def test_criterion_10_dimension_oracles():
    t0 = time.perf_counter()
    # dimension is translation invariant; a generic shift keeps the
    # construction endpoints off the counting grid's lattice, and scales
    # matched to the construction ratio avoid log-periodic oscillation
    def shifted(bands):
        return BandSet(
            [(lo + 1.0 / 7.0, hi + 1.0 / 7.0) for lo, hi in bands.intervals]
        )

    thirds = shifted(boxdim.cantor_bands(1.0 / 3.0, 10))
    est1 = boxdim.box_dimension(
        thirds, [(1.0 / 3.0) * (1.0 / 3.0) ** i for i in range(8)]
    )
    quarter = shifted(boxdim.cantor_bands(0.25, 10))
    est2 = boxdim.box_dimension(
        quarter, [0.25 * 0.25**i for i in range(6)]
    )
    ok = abs(est1.value - math.log(2) / math.log(3)) <= 0.02
    ok = ok and abs(est2.value - 0.5) <= 0.02
    ok = ok and time.perf_counter() - t0 < 10.0
    report(10, "Cantor-set dimension oracles", ok, t0,
           f"thirds {est1.value:.4f}, quarter {est2.value:.4f}")


def test_criterion_11_large_coupling_trend():
    t0 = time.perf_counter()
    target = math.log(1 + math.sqrt(2))
    rows = boxdim.asymptote_check([16.0, 32.0, 64.0, 128.0], 10)
    vals = [r["dim_log_V"] for r in rows]
    ok = all(0.5 < v < 1.3 for v in vals)
    gaps = [abs(v - target) for v in vals]
    # monotone approach within estimator noise 0.1
    ok = ok and all(b <= a + 0.1 for a, b in zip(gaps, gaps[1:]))
    ok = ok and gaps[-1] <= gaps[0]
    ok = ok and time.perf_counter() - t0 < 900.0
    report(11, "dim * log V trend toward log(1 + sqrt 2)", ok, t0,
           "values " + ", ".join(f"{v:.3f}" for v in vals))


def test_criterion_12_empirical_certificate():
    t0 = time.perf_counter()
    # radius 0.2 absorbs the rounded cone tip of S_0.05, whose width
    # scale is V/2; inside it the flat-surface cone frame is meaningless
    rep = empirical.empirical_trace_certificate(
        0.05,
        sample_size=1000,
        n_forward=30,
        epsilon=0.1,
        zeta=0.1,
        singular_radius=0.2,
        rng=112,
    )
    ok = rep.cone_invariance_fraction == 1.0
    ok = ok and rep.cone_checks > 0
    ok = ok and np.isfinite(rep.min_expansion_ratio)
    ok = ok and rep.min_expansion_ratio > 0.0
    ok = ok and rep.inconclusive_rate < 0.05
    ok = ok and time.perf_counter() - t0 < 300.0
    report(12, "small-coupling cone and expansion certificate", ok, t0,
           f"cone {rep.cone_invariance_fraction:.3f} over "
           f"{rep.cone_checks} checks, min ratio "
           f"{rep.min_expansion_ratio:.3f}, inconclusive "
           f"{rep.inconclusive_rate:.3f}")


def test_criterion_13_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    blobs = {"subshift": [], "spectrum": []}
    for rep in ("x", "y"):
        out = tmp_path / f"sub_{rep}.json"
        r = subprocess.run(
            [sys.executable, "-m", "fibtrace.cli", "subshift",
             "--out", str(out), "--seed", "7", "--set", "n=8"],
            capture_output=True,
        )
        assert r.returncode == 0
        blobs["subshift"].append(out.read_bytes())
        out = tmp_path / f"spec_{rep}.json"
        r = subprocess.run(
            [sys.executable, "-m", "fibtrace.cli", "spectrum",
             "--out", str(out), "--seed", "7",
             "--set", "coupling=1", "--set", "k=6"],
            capture_output=True,
        )
        assert r.returncode == 0
        blobs["spectrum"].append(
            out.read_bytes() + (tmp_path / f"spec_{rep}.json.csv").read_bytes()
        )
    ok = all(a == b for a, b in blobs.values())
    report(13, "CLI outputs byte-identical for fixed config and seed", ok, t0)
