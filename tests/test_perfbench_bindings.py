"""Every binding the benchmark's tracer wraps must exist in the program.

``perfbench/spans.py`` replaces each ``(module, attribute)`` of ``TRACED``
with a timing wrapper; a refactor that drops or renames one of them
would break ``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_binding_is_callable(monkeypatch):
    # spans.py imports its sibling checks.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    spans = importlib.import_module("spans")
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.TRACED
    assert missing == []


def test_traced_counters_read_the_program_return_types(monkeypatch, tmp_path):
    # each counter reads members of what its binding returns (samples_used,
    # exit_time, all_ok, ...), so one tiny job of each workload, and one
    # call of each binding that the program itself never calls, runs every
    # counter on a real return value
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    spans = importlib.import_module("spans")
    from fibtrace import certify, cli, spectrum

    jobs = [
        ["spectrum", "--set", "coupling=1", "--set", "k=4"],
        ["dimension", "--set", "mode=cantor", "--set", "ratio=0.3", "--set", "depth=6"],
        ["certify", "--seed", "1", "--set", "kind=empirical", "--set", "coupling=0.05",
         "--set", "samples=20", "--set", "n=10"],
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(jobs):
            assert cli.main([*argv, "--out", str(tmp_path / f"job{i}.json")]) == 0
        m = certify.make_model_map(delta=1e-3, seed=1)
        certify.expansion_certificate(m, [0.1, 0.2, 0.01], [0.0, 0.0, 1.0])
        spectrum.approximant_chain(4, 1.0)
    finally:
        tracer.uninstall()
    metrics = tracer.per_round_metrics(1, 0, 0.0)
    for name in ("spectrum.bands_returned", "boxdim.box_count.intervals",
                 "intervals.merge_intervals.items", "empirical.samples",
                 "empirical.cone_checks", "empirical.conclusive_ratio",
                 "certify.map_steps", "certify.pass_ratio"):
        assert metrics[name]["value"] > 0, name
    assert metrics["spectrum.band_yield"]["value"] == 1.0
