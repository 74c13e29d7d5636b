"""Run perfbench in two checkouts in alternating pairs and write one record.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workloads certify covers dimension --seed-base 901 \
        [--traced certify] --label certify --claim TEXT \
        --out BENCH_certify.json --key NAME

Each of the 10 pairs of a workload runs ``python3 perfbench/run.py
--workload W --seed S --trace 0`` once from the root of each checkout,
one after the other, with the same seed on both sides; the run length
is perfbench's own.  Pair i of every workload runs before pair i + 1 of
any; pair 1 runs the parent first, and the sides alternate from pair to
pair.  Workload j takes the seeds seed-base + 10 j onwards.  A traced
workload gets one more pair, with ``--trace 1`` and the next free seed,
parent first.  Every run keeps its result line, the last line of its
standard output, and its wall seconds.

The record has the shape of the records in ``BENCH_<label>.json``: the
runs as ``pairs`` (and ``traced_seed_<S>``), and a ``summary`` per
workload with the quartiles of each end-to-end metric on each side, the
ratio of the medians, change over parent, the number of pairs in which
the change was better (by that metric's ``better`` in ``BENCHMARK.json``),
the same for the wall seconds, and the failed and attempted job counts.
The record is added under ``--key`` to the JSON object already in
``--out``, which must exist and must not hold that key yet, so no
earlier record is ever replaced.  Each run's result line is also
printed to standard error as it comes.

The tool imports nothing from ``perfbench/``; it only starts its
``run.py`` as a program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: alternating pairs run per workload
PAIRS = 10


def quartiles(values: list[float]) -> dict:
    """q1, median and q3 of values, inclusive method, to 4 decimals."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Quartiles of both sides of paired values, the ratio of their
    medians and the number of pairs in which the change was better."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be higher or lower, got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    return {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "change_over_parent": round(statistics.median(change)
                                    / statistics.median(parent), 4),
        "change_better_in": sum(sign * (c - p) > 0.0 for p, c in zip(parent, change)),
    }


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """The summary of untraced pairs, per workload, in order of first
    appearance: each metric of ``better`` (name -> "higher" or "lower"),
    the wall seconds, and the failed and attempted counts summed."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        entry: dict = {"pairs": len(runs)}
        for name, way in better.items():
            entry[name] = compare(
                *([r[side]["metrics"][name]["value"] for r in runs]
                  for side in ("parent", "change")), way)
        entry["wall_s"] = compare(*([r[side]["wall_s"] for r in runs]
                                    for side in ("parent", "change")), "lower")
        for count in ("failed", "attempted"):
            entry[count] = {side: sum(r[side][count] for r in runs)
                            for side in ("parent", "change")}
        entry["correct"] = all(r[side]["correct"] for r in runs
                               for side in ("parent", "change"))
        summary[workload] = entry
    return summary


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run from the root of checkout: its result line, with
    the run's wall seconds added as ``wall_s``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited "
                           f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = round(wall, 2)
    return result


def run_pair(sides: dict[str, Path], first: str, workload: str, seed: int,
             trace: int) -> dict:
    pair = {"workload": workload, "seed": seed, "first": first,
            "parent": None, "change": None}
    for side in (first, "change" if first == "parent" else "parent"):
        pair[side] = run_once(sides[side], workload, seed, trace)
        print(workload, seed, side, json.dumps(pair[side]), file=sys.stderr, flush=True)
    return pair


def revision(checkout: Path) -> dict:
    """The checkout's git commit and the git tree id of its src/, or None
    for either where git cannot tell it."""
    def git(rev):
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", rev],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    return {"head": git("HEAD"), "src_tree": git("HEAD:src")}


def machine() -> str:
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    return (f"{os.cpu_count()}-core {platform.machine()}, {ram:.0f} GB RAM, "
            f"{platform.system()}; Python {platform.python_version()}, numpy "
            f"{metadata.version('numpy')}; times are perfbench's reference seconds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--traced", nargs="*", default=[])
    parser.add_argument("--label", required=True)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--key", required=True)
    args = parser.parse_args(argv)
    whole = json.loads(args.out.read_text())
    if args.key in whole:
        parser.error(f"{args.out} already holds a record {args.key!r}")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    pairs = []
    for i in range(PAIRS):
        for j, workload in enumerate(args.workloads):
            pairs.append(run_pair(sides, ("parent", "change")[i % 2], workload,
                                  args.seed_base + j * PAIRS + i, 0))
    record = {
        "label": args.label,
        "claim": args.claim,
        "command": "python3 perfbench/run.py --workload W --seed S --trace T, run "
                   "from the root of each checkout, each side in its own directory; "
                   "wall_s is each run's wall time",
        "revisions": {side: revision(path) for side, path in sides.items()},
        "machine": machine(),
        "protocol": (f"{PAIRS} pairs per workload, pair i of every workload "
                     "before pair i + 1 of any; sides alternate, parent first in "
                     "pair 1; one seed per pair, the same on both sides; "
                     + "; ".join(f"{w}: seeds {args.seed_base + j * PAIRS}-"
                                 f"{args.seed_base + (j + 1) * PAIRS - 1}"
                                 for j, w in enumerate(args.workloads))),
        "summary": summarize(pairs, better),
        "pairs": pairs,
    }
    seed = args.seed_base + len(args.workloads) * PAIRS
    for workload in args.traced:
        traced = run_pair(sides, "parent", workload, seed, 1)
        record[f"traced_seed_{seed}"] = {key: traced[key]
                                         for key in ("workload", "parent", "change")}
        seed += 1
    whole[args.key] = record
    args.out.write_text(json.dumps(whole, indent=1) + "\n")
    for workload, entry in record["summary"].items():
        print(workload, json.dumps(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
