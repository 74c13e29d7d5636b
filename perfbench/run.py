"""Benchmark of fibtrace's CLI: spectral covers, box dimensions, certificates.

    python3 perfbench/run.py --workload {covers,dimension,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a fibtrace checkout; the program is imported from
``src/``.  One workload runs in one process, with numpy's BLAS pool held
to one thread.  The process sets up (imports, job list, one warm-up job),
then runs whole rounds of the workload's fixed job list through
``fibtrace.cli.main`` until the jobs have taken ``S`` seconds.  Every
output of the first round is checked by ``checks``; every later round
must write the same bytes.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: jobs_per_s, setup_s (median of SETUP_REPEATS set-ups,
  the extra ones in child processes) and peak_rss_mb;
- ``--trace 1``: the per-layer metrics of ``spans.Tracer`` from rounds
  that alternate untraced and traced, and the traced rounds' spans in
  ``perfbench/_out/``.

Times are reference seconds.  On a shared 2-core VM the machine's speed
drifted by up to 1.9x within minutes, for every kind of code alike, so
each wall time is divided by the time of a fixed reference kernel run
beside it and multiplied by REFERENCE_S.  The reference kernel is the
benchmark's own code, so a change to fibtrace cannot move it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

WORKLOADS = ("covers", "dimension", "certify")

#: set-ups per run whose median is setup_s; all but one in child processes
SETUP_REPEATS = 5

#: nominal time of ``reference_kernel``: a wall time t measured beside a
#: reference run of r seconds counts as t * REFERENCE_S / r
REFERENCE_S = 0.04

#: why the covers jobs at V = 16 fail on every run
DROPPED_BANDS = (
    "spectrum.approximant_chain drops bands at strong coupling, so the cover "
    "misses zeros of x_k"
)


def reference_kernel() -> float:
    """Wall time of a fixed mix of the kinds of work fibtrace does."""
    import numpy as np

    start = time.perf_counter()
    s = 0
    for i in range(100000):  # interpreter arithmetic
        s += i * i % 7
    for i in range(60):  # many small numpy calls, as in band-edge bisection
        E = np.array([0.3 + 1e-3 * i])
        a, b, c = np.ones_like(E), E / 2.0, (E - 1.0) / 2.0
        for _ in range(12):
            a, b, c = b, c, np.clip(2.0 * c * b - a, -1e120, 1e120)
    # float loops over sorted tuples, as in box counting
    ivs = sorted((3.0 * math.sin(i), 3.0 * math.sin(i) + 1e-4) for i in range(10000))
    for lo, hi in ivs:
        s += math.ceil(hi / 1e-3) - math.floor(lo / 1e-3)
    # a recursion over an array larger than the first cache levels
    E = np.linspace(-3.0, 3.0, 100000)
    a, b, c = np.ones_like(E), E / 2.0, (E - 1.0) / 2.0
    for _ in range(12):
        a, b, c = b, c, np.clip(2.0 * c * b - a, -1e120, 1e120)
    if s <= 0:
        raise ArithmeticError("reference kernel miscomputed")
    return time.perf_counter() - start


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]          # CLI arguments without --out
    check: Callable[[dict], list[str]]  # output -> problems found
    known_fault: str | None = None


def _sets(command: str, *pairs: str, seed: int | None = None) -> tuple[str, ...]:
    argv = [command]
    if seed is not None:
        argv += ["--seed", str(seed)]
    for pair in pairs:
        argv += ["--set", pair]
    return tuple(argv)


def _spectrum_job(checks, V: float, k: int, resolution: float, fault=None) -> Job:
    argv = _sets("spectrum", f"coupling={V!r}", f"k={k}", f"resolution={resolution!r}")
    return Job(argv, functools.partial(checks.check_spectrum, coupling=V, k=k,
                                       resolution=resolution), fault)


def _spectral_dimension_check(output, *, checks, V, k, resolution):
    from fibtrace import spectrum

    cover = spectrum.spectrum_cover(V, k, resolution).as_array()
    return checks.cover_problems(cover, V, k, resolution / 10.0) + \
        checks.check_estimate(output["estimate"], cover)


def build_jobs(workload: str, seed: int, checks) -> tuple[list[Job], Job]:
    """The workload's job list in a seeded order, and its warm-up job."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    if workload == "covers":
        # a coupling ladder from the weak regime to the strong one at one
        # fine resolution; band-edge bisection does nearly all the work
        for V in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            for k in (11, 12):
                jobs.append(_spectrum_job(checks, V, k, 1e-6,
                                          DROPPED_BANDS if V == 16.0 else None))
        warm = _spectrum_job(checks, 1.0, 6, 1e-6)
    elif workload == "dimension":
        # Cantor oracles with 1.6e4 to 6.6e4 intervals stress box counting;
        # small spectral covers with many scales use spectrum at a 1e-8
        # edge tolerance, unlike covers
        for ratio, depth in ((0.2, 16), (0.25, 15), (0.3, 14), (1.0 / 3.0, 16),
                             (0.35, 15), (0.4, 14)):
            jobs.append(Job(
                _sets("dimension", "mode=cantor", f"ratio={ratio!r}", f"depth={depth}"),
                functools.partial(checks.check_cantor, ratio=ratio, depth=depth)))
        for V in (2.0, 6.0, 8.0, 12.0):
            jobs.append(Job(
                _sets("dimension", "mode=spectrum", f"coupling={V!r}", "k=11",
                      "resolution=1e-07"),
                functools.partial(_spectral_dimension_check, checks=checks, V=V, k=11,
                                  resolution=1e-7)))
        warm = Job(_sets("dimension", "mode=cantor", "ratio=0.3", "depth=8"),
                   functools.partial(checks.check_cantor, ratio=0.3, depth=8))
    elif workload == "certify":
        # the certificate engines: sampled cone checks at the paper's small
        # couplings, model-map exits, and the recurrence inequalities
        def seeded():
            return rng.randrange(2**31)

        check = checks.check_certificate
        for V in (0.02, 0.05):
            jobs.append(Job(_sets("certify", "kind=empirical", f"coupling={V!r}",
                                  "singular_radius=0.2", "samples=400", seed=seeded()),
                            check))
        jobs.append(Job(_sets("certify", "kind=model", "vectors=400", seed=seeded()), check))
        jobs.append(Job(_sets("certify", "kind=recurrence", "slack_schedules=600",
                              seed=seeded()), check))
        warm = Job(_sets("certify", "kind=recurrence", "slack_schedules=10", seed=seeded()),
                   check)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs, warm


def setup(workload: str, seed: int, work: Path):
    """Import the program, build the job list, run the warm-up job.

    Returns the set-up time in reference seconds, the CLI module and the
    job list.
    """
    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from fibtrace import cli
    import checks

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "fibtrace":
        raise ImportError(f"fibtrace imported from {cli.__file__}, not from {ROOT / 'src'}")
    jobs, warm = build_jobs(workload, seed, checks)
    run_job(cli, warm, work / "warmup.json")
    wall = time.perf_counter() - start
    return wall * REFERENCE_S / reference_kernel(), cli, jobs


def run_job(cli, job: Job, out: Path) -> tuple[int, float]:
    start = time.perf_counter()
    code = cli.main([*job.argv, "--out", str(out)])
    return code, time.perf_counter() - start


def read_outputs(out: Path) -> bytes:
    return b"".join(p.read_bytes() for p in (out, Path(f"{out}.csv")) if p.exists())


@dataclass
class Rounds:
    """What ``run_rounds`` measured; ``wall`` and ``scaled`` hold each
    round's job time, keyed by whether the round was traced."""

    count: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    wall: dict = field(default_factory=lambda: {False: [], True: []})
    scaled: dict = field(default_factory=lambda: {False: [], True: []})
    references: list = field(default_factory=list)
    round_bytes: int = 0


def run_rounds(cli, jobs, work: Path, seconds: float, tracer=None) -> Rounds:
    """Whole rounds of ``jobs`` until they have taken ``seconds`` reference seconds.

    The reference kernel runs before the first job and after every job; a
    job's wall time is scaled by the mean of the two reference times
    around it.  With a tracer, rounds alternate untraced and traced, at
    least one of each.
    """
    r = Rounds(references=[reference_kernel()])
    first: dict[int, bytes | None] = {}
    while True:
        traced = tracer is not None and r.count % 2 == 1
        wall = scaled = 0.0
        r.round_bytes = 0
        if traced:
            tracer.install()
        try:
            for i, job in enumerate(jobs):
                out = work / f"job{i}.json"
                if traced:
                    tracer.job = r.count * len(jobs) + i
                code, dt = run_job(cli, job, out)
                r.references.append(reference_kernel())
                wall += dt
                scaled += dt * REFERENCE_S / statistics.fmean(r.references[-2:])
                blob = read_outputs(out) if code == 0 else b""
                r.round_bytes += len(blob)
                if r.count == 0:
                    faults = [f"exit code {code}"] if code else \
                        job.check(json.loads(out.read_text()))
                    first[i] = None if faults else blob
                    report = f"{' '.join(job.argv)}: {'; '.join(faults)}"
                    if faults and job.known_fault is None:
                        r.problems.append(report)
                    elif faults:
                        print(f"known fault, {job.known_fault}: {report}", file=sys.stderr)
                elif first[i] is None:
                    faults = ["failed in the first round"]
                elif blob != first[i]:
                    faults = ["output differs from the first round"]
                    r.problems.append(f"{' '.join(job.argv)}: {faults[0]}")
                else:
                    faults = []
                r.failed += bool(faults)
        finally:
            if traced:
                tracer.uninstall()
        r.wall[traced].append(wall)
        r.scaled[traced].append(scaled)
        r.count += 1
        total = sum(r.scaled[False]) + sum(r.scaled[True])
        if total >= seconds and (tracer is None or r.wall[True]):
            return r


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    work = OUT / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    setup_s, cli, jobs = setup(args.workload, args.seed, work)
    if args.setup_probe:
        print(setup_s)
        return 0
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    r = run_rounds(cli, jobs, work, args.seconds, tracer)
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s]
        for _ in range(SETUP_REPEATS - 1):
            probe = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", args.workload, "--seed", str(args.seed)],
                capture_output=True, text=True, check=True)
            setups.append(float(probe.stdout.strip().splitlines()[-1]))
        metrics = {
            "jobs_per_s": {"value": r.count * len(jobs) / sum(r.scaled[False]),
                           "unit": "jobs/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        overhead = statistics.median(r.scaled[True]) - statistics.median(r.scaled[False])
        metrics = tracer.per_round_metrics(len(r.wall[True]), r.round_bytes, overhead)
        metrics["bench.wall_jobs_per_s"] = {
            "value": len(r.wall[False]) * len(jobs) / sum(r.wall[False]), "unit": "jobs/s"}
        metrics["bench.reference_s"] = {
            "value": statistics.median(r.references), "unit": "s"}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    for problem in r.problems:
        print(f"wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": not r.problems,
        "attempted": r.count * len(jobs),
        "failed": r.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import fibtrace from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
