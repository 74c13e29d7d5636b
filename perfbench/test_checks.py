"""Each output check passes a real output and catches a broken copy of it.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from fibtrace import boxdim, cli, spectrum  # noqa: E402
from fibtrace.intervals import BandSet  # noqa: E402


def run_cli(*argv: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"fibtrace {' '.join(argv)} exited {code}")
        return json.loads(out.read_text())


def with_bands(output: dict, bands: list[dict]) -> dict:
    """A copy of a spectrum output holding ``bands``, counts kept consistent."""
    broken = copy.deepcopy(output)
    broken["bands"] = bands
    broken["band_count"] = len(bands)
    broken["measure"] = repr(sum(float(b["hi"]) - float(b["lo"]) for b in bands))
    return broken


class CoverChecks(unittest.TestCase):
    V, k, resolution = 1.0, 7, 1e-6

    @classmethod
    def setUpClass(cls):
        cls.output = run_cli("spectrum", "--set", f"coupling={cls.V}", "--set", f"k={cls.k}",
                             "--set", f"resolution={cls.resolution}")

    def check(self, output):
        return checks.check_spectrum(output, self.V, self.k, self.resolution)

    def test_cover_passes(self):
        self.assertEqual(self.check(self.output), [])

    def test_zeros_are_the_half_trace_zeros(self):
        z = checks.half_trace_zeros(8, 1.5)
        self.assertEqual(len(z), checks.fibonacci(8))
        self.assertLess(np.max(np.abs(checks.half_trace(z, 1.5, 8))), 1e-9)

    def test_removed_band_is_caught(self):
        bands = self.output["bands"]
        problems = self.check(with_bands(self.output, bands[:3] + bands[4:]))
        self.assertTrue(any("zeros of x_" in p for p in problems), problems)

    def test_moved_edge_is_caught(self):
        bands = copy.deepcopy(self.output["bands"])
        bands[2]["hi"] = repr(float(bands[2]["hi"]) - 1e-4)
        problems = self.check(with_bands(self.output, bands))
        self.assertTrue(any("no band edge" in p for p in problems), problems)

    def test_empty_cover_is_caught(self):
        self.assertIn("cover is empty", self.check(with_bands(self.output, [])))

    def test_wrong_band_count_is_caught(self):
        broken = copy.deepcopy(self.output)
        broken["band_count"] += 1
        self.assertTrue(self.check(broken))


class DimensionChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cantor = run_cli("dimension", "--set", "mode=cantor", "--set", "ratio=0.3",
                             "--set", "depth=10")
        cls.spectral = run_cli("dimension", "--set", "mode=spectrum", "--set", "coupling=4",
                               "--set", "k=8")
        cls.cover = spectrum.spectrum_cover(4.0, 8, 1e-7).as_array()

    def test_outputs_pass(self):
        self.assertEqual(checks.check_cantor(self.cantor, 0.3, 10), [])
        self.assertEqual(checks.check_estimate(self.spectral["estimate"], self.cover), [])

    def test_recount_matches_fibtrace_box_count(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            edges = np.sort(rng.uniform(-3.0, 3.0, 2 * int(rng.integers(1, 30))))
            bands = edges.reshape(-1, 2)
            for eps in (0.5, 0.07, 1e-3):
                self.assertEqual(checks.box_counts(bands, eps),
                                 boxdim.box_count(BandSet([tuple(b) for b in bands]), eps))

    def test_cantor_intervals_match_fibtrace(self):
        ours = checks.cantor_intervals(0.3, 6)
        theirs = boxdim.cantor_bands(0.3, 6).as_array()
        np.testing.assert_array_equal(ours, theirs)

    def test_estimate_off_the_exact_dimension_is_caught(self):
        broken = copy.deepcopy(self.cantor)
        broken["estimate"]["value"] = repr(float(broken["estimate"]["value"]) + 0.1)
        problems = checks.check_cantor(broken, 0.3, 10)
        self.assertTrue(any("is more than" in p for p in problems), problems)
        self.assertTrue(any("refitted" in p for p in problems), problems)

    def test_count_breaking_nesting_is_caught(self):
        broken = copy.deepcopy(self.cantor)
        counts = broken["estimate"]["counts"]
        counts[3][1] = counts[2][1] - 1
        problems = checks.check_cantor(broken, 0.3, 10)
        self.assertTrue(any("N <= N/2 <= 2N" in p for p in problems), problems)

    def test_count_off_the_recount_is_caught(self):
        broken = copy.deepcopy(self.spectral)
        broken["estimate"]["counts"][-1][1] += 1
        problems = checks.check_estimate(broken["estimate"], self.cover)
        self.assertTrue(any("recount" in p for p in problems), problems)


class CertificateChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reports = {
            "empirical": run_cli("certify", "--seed", "3", "--set", "kind=empirical",
                                 "--set", "coupling=0.05", "--set", "singular_radius=0.2",
                                 "--set", "samples=30"),
            "model": run_cli("certify", "--seed", "3", "--set", "kind=model",
                             "--set", "vectors=20"),
            "recurrence": run_cli("certify", "--seed", "3", "--set", "kind=recurrence",
                                  "--set", "slack_schedules=5"),
        }

    def broken(self, kind, **fields):
        out = copy.deepcopy(self.reports[kind])
        out["report"].update(fields)
        return checks.check_certificate(out)

    def test_reports_pass(self):
        for kind, output in self.reports.items():
            self.assertEqual(checks.check_certificate(output), [], kind)

    def test_empirical_bounds_are_caught(self):
        self.assertTrue(self.broken("empirical", cone_invariance_fraction="0.999"))
        self.assertTrue(self.broken("empirical", inconclusive_rate="0.05"))
        self.assertTrue(self.broken("empirical", min_expansion_ratio="nan"))
        self.assertTrue(self.broken("empirical", cone_checks=0))

    def test_model_failure_is_caught(self):
        self.assertTrue(self.broken("model", passed=19))

    def test_recurrence_failures_are_caught(self):
        self.assertTrue(self.broken("recurrence", dichotomy_ok=False))
        self.assertTrue(self.broken("recurrence", slack_schedules_passed=4))


if __name__ == "__main__":
    unittest.main()
