"""Spans around fibtrace's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced name with a wrapper in the module
where its caller looks it up: ``fibtrace.spectrum.merge_intervals`` and
``fibtrace.intervals.merge_intervals`` are separate bindings of one
function, and so are ``fibtrace.empirical.trace_step`` and
``fibtrace.tracemap.trace_step``.  Each call becomes a span
(name, start, end, parent, job) kept in memory; ``per_round_metrics``
turns the spans and counters into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

from checks import fibonacci


def _chain_counts(c: Counter, chain, args, kwargs) -> None:
    c["spectrum.bands_returned"] += sum(len(level) for level in chain)
    c["spectrum.fibonacci_sum"] += sum(fibonacci(j) for j in range(1, len(chain) + 1))


def _box_count_counts(c: Counter, out, args, kwargs) -> None:
    c["boxdim.box_count.intervals"] += len(args[0])


def _merge_counts(c: Counter, out, args, kwargs) -> None:
    # every caller in fibtrace passes a list
    c["intervals.merge_intervals.items"] += len(args[0])


def _empirical_counts(c: Counter, rep, args, kwargs) -> None:
    c["empirical.samples"] += rep.samples_total
    c["empirical.samples_used"] += rep.samples_used
    c["empirical.cone_checks"] += rep.cone_checks


def _expansion_counts(c: Counter, rep, args, kwargs) -> None:
    c["certify.map_steps"] += rep.exit_time
    c["certify.passed"] += rep.all_ok


#: (module, attribute, span name, counter): one entry per binding that
#: the workloads reach
TRACED = [
    ("fibtrace.cli", "main", "cli.main", None),
    ("fibtrace.spectrum", "spectrum_cover", "spectrum.spectrum_cover", None),
    ("fibtrace.spectrum", "approximant_chain", "spectrum.approximant_chain", _chain_counts),
    ("fibtrace.spectrum", "merge_intervals", "intervals.merge_intervals", _merge_counts),
    ("fibtrace.intervals", "merge_intervals", "intervals.merge_intervals", _merge_counts),
    ("fibtrace.boxdim", "box_dimension", "boxdim.box_dimension", None),
    ("fibtrace.boxdim", "box_count", "boxdim.box_count", _box_count_counts),
    ("fibtrace.boxdim", "auto_scale_grid", "boxdim.auto_scale_grid", None),
    ("fibtrace.boxdim", "cantor_bands", "boxdim.cantor_bands", None),
    ("fibtrace.empirical", "empirical_trace_certificate",
     "empirical.empirical_trace_certificate", _empirical_counts),
    ("fibtrace.empirical", "sample_bounded_points", "empirical.sample_bounded_points", None),
    ("fibtrace.empirical", "trace_step", "tracemap.trace_step", None),
    ("fibtrace.empirical", "singular_points", "tracemap.singular_points", None),
    ("fibtrace.torus", "invert_semiconj", "torus.invert_semiconj", None),
    ("fibtrace.torus", "df_semiconj", "torus.df_semiconj", None),
    ("fibtrace.certify", "expansion_certificate", "certify.expansion_certificate",
     _expansion_counts),
    ("fibtrace.certify", "make_model_map", "certify.make_model_map", None),
    ("fibtrace.recurrences", "run_aA", "recurrences.run_aA", None),
    ("fibtrace.recurrences", "run_dD", "recurrences.run_dD", None),
    ("fibtrace.recurrences", "dominates", "recurrences.dominates", None),
]

LAYERS = ["cli", "spectrum", "intervals", "boxdim", "empirical", "torus",
          "tracemap", "certify", "recurrences"]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, job)
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if counter is not None:
                counter(self.counts, out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")

    def per_round_metrics(self, rounds: int, output_bytes: int, overhead_s: float) -> dict:
        """Per-layer metrics of one round of jobs, averaged over ``rounds``."""
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)  # time of a span's children
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: defaultdict = defaultdict(float)  # self time per span name
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[index]
        c = self.counts
        cli_busy = busy["cli.main"]
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        for name in ("spectrum.spectrum_cover", "spectrum.approximant_chain",
                     "boxdim.box_dimension", "boxdim.box_count",
                     "intervals.merge_intervals", "torus.invert_semiconj",
                     "torus.df_semiconj", "tracemap.trace_step",
                     "certify.expansion_certificate", "recurrences.run_aA"):
            put(f"{name}.calls", calls[name] / rounds, "count")
        for name in ("cli.main", "spectrum.spectrum_cover", "spectrum.approximant_chain",
                     "boxdim.box_dimension", "boxdim.box_count", "boxdim.auto_scale_grid",
                     "boxdim.cantor_bands", "intervals.merge_intervals",
                     "empirical.empirical_trace_certificate",
                     "empirical.sample_bounded_points", "torus.invert_semiconj",
                     "torus.df_semiconj", "tracemap.trace_step",
                     "certify.expansion_certificate", "certify.make_model_map",
                     "recurrences.run_aA", "recurrences.run_dD", "recurrences.dominates"):
            put(f"{name}.busy_s", busy[name] / rounds, "s")
        put("tracemap.singular_points.calls", calls["tracemap.singular_points"] / rounds, "count")
        put("empirical.empirical_trace_certificate.self_s",
            own["empirical.empirical_trace_certificate"] / rounds, "s")
        put("cli.self_s", own["cli.main"] / rounds, "s")
        put("cli.output_bytes", output_bytes / rounds, "bytes")
        put("spectrum.bands_returned", c["spectrum.bands_returned"] / rounds, "count")
        put("spectrum.band_yield", _ratio(c["spectrum.bands_returned"],
                                          c["spectrum.fibonacci_sum"]), "ratio")
        put("boxdim.box_count.intervals", c["boxdim.box_count.intervals"] / rounds, "count")
        put("intervals.merge_intervals.items", c["intervals.merge_intervals.items"] / rounds,
            "count")
        put("empirical.samples", c["empirical.samples"] / rounds, "count")
        put("empirical.cone_checks", c["empirical.cone_checks"] / rounds, "count")
        put("empirical.conclusive_ratio", _ratio(c["empirical.samples_used"],
                                                 c["empirical.samples"]), "ratio")
        put("certify.map_steps", c["certify.map_steps"] / rounds, "count")
        put("certify.pass_ratio", _ratio(c["certify.passed"],
                                         calls["certify.expansion_certificate"]), "ratio")
        # a layer's share is its spans' self time over the time in cli.main
        layer_self: defaultdict = defaultdict(float)
        for name, t in own.items():
            layer_self[name.split(".")[0]] += t
        for layer in LAYERS:
            put(f"share.{layer}", _ratio(layer_self[layer], cli_busy), "ratio")
        put("trace.overhead_s", overhead_s, "s")
        return m


def _ratio(num, den) -> float:
    return num / den if den else 0.0
