"""The summary of ``tools/bench_pairs.py``, on fixed result lines."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _side(rate, rss, wall, failed=0, attempted=100, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"jobs_per_s": {"value": rate, "unit": "jobs/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}},
            "wall_s": wall}


def test_summary_of_fixed_pairs():
    rates = [(50.0, 55.0), (52.0, 51.0), (49.0, 56.0), (51.0, 57.0), (50.5, 54.0)]
    pairs = [{"workload": "certify", "seed": 900 + i, "first": ("parent", "change")[i % 2],
              "parent": _side(p, 40.0 + i, 20.0 + i),
              "change": _side(c, 40.0 + i - (i % 2), 21.0 + i, failed=i % 2,
                              attempted=110)}
             for i, (p, c) in enumerate(rates)]
    pairs.append({"workload": "covers", "seed": 910, "first": "parent",
                  "parent": _side(100.0, 41.0, 50.0), "change": _side(90.0, 41.0, 52.0,
                                                                       correct=False)})
    pairs.append({"workload": "covers", "seed": 911, "first": "change",
                  "parent": _side(104.0, 41.0, 50.0), "change": _side(110.0, 40.0, 49.0)})
    summary = bench_pairs.summarize(
        pairs, {"jobs_per_s": "higher", "peak_rss_mb": "lower"})
    assert list(summary) == ["certify", "covers"]
    certify = summary["certify"]
    assert certify["pairs"] == 5
    # parent 49, 50, 50.5, 51, 52 and change 51, 54, 55, 56, 57
    assert certify["jobs_per_s"] == {
        "parent": {"q1": 50.0, "median": 50.5, "q3": 51.0},
        "change": {"q1": 54.0, "median": 55.0, "q3": 56.0},
        "change_over_parent": round(55.0 / 50.5, 4),
        "change_better_in": 4,
    }
    # lower is better: the change used less memory in pairs 2 and 4, and
    # tied in the rest, which counts as no win
    assert certify["peak_rss_mb"]["change_better_in"] == 2
    assert certify["peak_rss_mb"]["parent"] == {"q1": 41.0, "median": 42.0, "q3": 43.0}
    assert certify["wall_s"]["change_better_in"] == 0
    assert certify["wall_s"]["change_over_parent"] == round(23.0 / 22.0, 4)
    assert certify["failed"] == {"parent": 0, "change": 2}
    assert certify["attempted"] == {"parent": 500, "change": 550}
    assert certify["correct"] is True
    covers = summary["covers"]
    assert covers["jobs_per_s"]["change_better_in"] == 1
    assert covers["jobs_per_s"]["parent"] == {"q1": 101.0, "median": 102.0, "q3": 103.0}
    assert covers["wall_s"]["change_better_in"] == 1
    assert covers["correct"] is False


def test_quartiles_are_inclusive_and_rounded():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {
        "q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bench_pairs.quartiles([1 / 3, 2 / 3]) == {
        "q1": 0.4167, "median": 0.5, "q3": 0.5833}
    with pytest.raises(ValueError, match="better"):
        bench_pairs.compare([1.0, 2.0], [1.0, 2.0], "faster")


def test_no_record_is_replaced(tmp_path):
    # both refusals come before the first run, so no subprocess starts
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workloads",
            "certify", "--seed-base", "1", "--label", "certify", "--claim", "x",
            "--out", str(tmp_path / "BENCH.json"), "--key", "old"]
    with pytest.raises(FileNotFoundError):
        bench_pairs.main(argv)
    (tmp_path / "BENCH.json").write_text('{"old": {}}')
    with pytest.raises(SystemExit):
        bench_pairs.main(argv)
    with pytest.raises(SystemExit):
        bench_pairs.main(argv[:-2])
    assert (tmp_path / "BENCH.json").read_text() == '{"old": {}}'
