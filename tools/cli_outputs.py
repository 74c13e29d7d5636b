"""Write the output files of the benchmark's CLI jobs into one directory.

    python3 tools/cli_outputs.py --seeds 1 2 --out DIR [--root CHECKOUT]

For each seed, every job of perfbench's three job lists and their
warm-ups (``build_jobs`` in ``perfbench/run.py``) runs once through
``fibtrace.cli.main``, and then criterion 12's empirical run does, all
in one process.  The program and the job lists are imported from
CHECKOUT, by default the checkout that holds this script.  Job i of a
workload at seed s writes ``<workload>-s<s>-<i>.json``, and its CSV
beside it; the warm-up is job ``warm``.  ``jobs.txt`` lists each job's
file name, exit code and arguments.  No output holds a timing, so
``diff -r`` between the directories of two checkouts shows every output
that a change between them moved.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

#: the library call of criterion 12, as a CLI job (rng 112 is --seed 112)
CRITERION_12 = ("certify", "--seed", "112", "--set", "kind=empirical",
                "--set", "coupling=0.05", "--set", "samples=1000", "--set", "n=30",
                "--set", "singular_radius=0.2")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import checks
    import run
    from fibtrace import cli

    if Path(cli.__file__).resolve().parent != root / "src" / "fibtrace":
        raise ImportError(f"fibtrace imported from {cli.__file__}, not from {root / 'src'}")
    jobs = []
    for seed in args.seeds:
        for workload in run.WORKLOADS:
            listed, warm = run.build_jobs(workload, seed, checks)
            jobs.append((f"{workload}-s{seed}-warm", warm.argv))
            jobs += [(f"{workload}-s{seed}-{i}", job.argv) for i, job in enumerate(listed)]
    jobs.append(("criterion12", CRITERION_12))
    args.out.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, job in jobs:
        code = cli.main([*job, "--out", str(args.out / f"{name}.json")])
        lines.append(f"{name} {code} {' '.join(job)}\n")
    (args.out / "jobs.txt").write_text("".join(lines))
    print(f"{len(jobs)} jobs from {root} written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
