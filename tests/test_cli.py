import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fibtrace import boxdim, certify, cli


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fibtrace.cli", *args],
        capture_output=True,
        text=True,
    )


def test_subshift_output_schema(tmp_path):
    out = tmp_path / "sub.json"
    r = run_cli("subshift", "--out", str(out), "--set", "n=4")
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["tool"] == "fibtrace" and payload["version"]
    assert payload["config"]["n"] == "4"
    by_n = {row["n"]: row for row in payload["counts"]}
    assert by_n[2] == {"n": 2, "words": 10, "periodic": 4}
    assert by_n[3]["periodic"] == 0
    assert abs(
        float(payload["entropy"])
        - __import__("math").log(float(payload["spectral_radius"]))
    ) < 1e-12


def test_spectrum_command_and_csv(tmp_path):
    out = tmp_path / "spec.json"
    r = run_cli(
        "spectrum", "--out", str(out),
        "--set", "coupling=0", "--set", "k=6", "--set", "resolution=1e-3",
    )
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert abs(float(payload["measure"]) - 4.0) < 0.05
    lines = (tmp_path / "spec.json.csv").read_text().splitlines()
    assert lines[0] == "lo,hi,generation"
    assert len(lines) == payload["band_count"] + 1


def test_negative_coupling_exits_2_naming_field(tmp_path):
    r = run_cli(
        "spectrum", "--out", str(tmp_path / "x.json"), "--set", "coupling=-1"
    )
    assert r.returncode == 2
    assert "coupling" in r.stderr


def test_negative_dimension_resolution_exits_2_naming_field(tmp_path):
    r = run_cli(
        "dimension", "--out", str(tmp_path / "x.json"), "--set", "mode=spectrum",
        "--set", "coupling=2", "--set", "resolution=-1e-9",
    )
    assert r.returncode == 2
    assert "resolution" in r.stderr


@pytest.mark.parametrize(
    "args, ini, needle",
    [
        (("certify", "--set", "kind=empirical", "--set", "coupling=0.05",
          "--set", "seed=5"), None, "--seed"),
        (("certify", "--set", "kind=empirical", "--set", "coupling=0.05"),
         "[run]\nseed = 5\n", "--seed"),
        (("spectrum", "--set", "coupling=nan"), None, "coupling:"),
        (("spectrum", "--set", "coupling=1", "--set", "k=inf"), None, "k:"),
        (("subshift", "--set", "n=nan"), None, "n:"),
        (("dimension", "--set", "mode=sweep", "--set", "couplings=2 nan"),
         None, "couplings:"),
        (("dimension", "--set", "mode=sweep", "--set", "couplings=4 16",
          "--set", "k=9"), None, "couplings: must be >= 16.0, got 4.0"),
        (("mesh", "--set", "coupling=0.1", "--set", "per2=maybe"), None, "per2:"),
        (("dimension", "--set", "mode=box", "--set", "coupling=1"), None, "mode:"),
        # couplings is required: a list with no values does not pass for one
        (("dimension", "--set", "mode=sweep", "--set", "couplings="), None,
         "couplings: list field has no values"),
        (("dimension", "--set", "mode=sweep", "--set", "couplings= , ,"), None,
         "couplings: list field has no values"),
        (("dimension", "--set", "mode=sweep"), "[run]\ncouplings =\n",
         "couplings: list field has no values"),
    ],
)
def test_config_errors_exit_2_naming_field(tmp_path, args, ini, needle):
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        args = (*args, "--config", str(tmp_path / "run.ini"))
    r = run_cli(*args, "--out", str(tmp_path / "x.json"))
    assert r.returncode == 2
    assert needle in r.stderr
    assert not (tmp_path / "x.json").exists()


def test_level_past_the_cap_exits_2_naming_k(tmp_path):
    from fibtrace.spectrum import MAX_LEVEL

    for args in (
        ("spectrum", "--set", "coupling=1"),
        ("dimension", "--set", "mode=spectrum", "--set", "coupling=1"),
        ("dimension", "--set", "mode=sweep", "--set", "couplings=16"),
    ):
        r = run_cli(
            *args, "--out", str(tmp_path / "x.json"), "--set", f"k={MAX_LEVEL}"
        )
        assert r.returncode == 2
        assert "k:" in r.stderr
        assert not (tmp_path / "x.json").exists()


def test_mesh_resolution_1_exits_2(tmp_path):
    r = run_cli(
        "mesh", "--out", str(tmp_path / "m.json"),
        "--set", "coupling=0.1", "--set", "resolution=1",
    )
    assert r.returncode == 2
    assert "resolution" in r.stderr


def test_mesh_with_per2_overlay(tmp_path):
    out = tmp_path / "m.json"
    r = run_cli(
        "mesh", "--out", str(out),
        "--set", "coupling=0.2", "--set", "resolution=15",
        "--set", "x_min=0.5", "--set", "x_max=1.5",
        "--set", "y_min=0.5", "--set", "y_max=1.5",
        "--set", "per2=yes",
    )
    assert r.returncode == 0
    assert (tmp_path / "m.json.csv").exists()
    per2 = (tmp_path / "m.json.per2.csv").read_text().splitlines()
    assert per2[0] == "x,y,z"
    assert len(per2) > 1


def test_mesh_csv_contract(tmp_path, capsys):
    code, _, out = run_main(tmp_path, capsys, "mesh", "--set", "coupling=0.1",
                            "--set", "resolution=41")
    assert code == 0
    lines = Path(f"{out}.csv").read_text().splitlines()
    assert lines[0] == "x,y,z,sheet"
    rows = [line.split(",") for line in lines[1:]]
    x, y, z = (np.array([float(r[i]) for r in rows]) for i in range(3))
    sheets = [r[3] for r in rows]
    half = len(rows) // 2
    assert half > 0 and sheets == ["+"] * half + ["-"] * half
    g = x * x + y * y + z * z - 2.0 * x * y * z - 1.0
    assert np.all(np.abs(g - 0.1**2 / 4.0) <= 1e-9)
    assert np.all(z[:half] >= x[:half] * y[:half])
    assert np.all(z[half:] <= x[half:] * y[half:])
    assert np.array_equal(x[:half], x[half:]) and np.array_equal(y[:half], y[half:])
    payload = json.loads(out.read_text())
    assert payload["points_emitted"] == len(rows)
    assert payload["nodes_valid"] == half and payload["nodes_total"] == 41**2


def test_mesh_corner_window_at_the_largest_coupling_is_finite(tmp_path, capsys):
    # in-process, so that an overflow warning fails the test
    big = cli.FIELDS["mesh"]["x_max"].hi
    sets = [f"coupling={cli.FIELDS['mesh']['coupling'].hi!r}", f"x_min={-big!r}",
            f"x_max={big!r}", f"y_min={-big!r}", f"y_max={big!r}", "per2=yes"]
    code, err, out = run_main(tmp_path, capsys, "mesh",
                              *(a for s in sets for a in ("--set", s)))
    assert code == 0, err
    for suffix in (".csv", ".per2.csv"):
        rows = Path(f"{out}{suffix}").read_text().splitlines()[1:]
        vals = np.array([[float(v) for v in r.split(",")[:3]] for r in rows])
        assert len(vals) and np.all(np.isfinite(vals))


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nn = 3\n")
    out = tmp_path / "s.json"
    r = run_cli(
        "subshift", "--config", str(cfg), "--out", str(out), "--set", "n=5"
    )
    assert r.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["n"] == "5"  # flag override wins
    assert len(payload["counts"]) == 5


def test_missing_config_file_exits_2(tmp_path):
    r = run_cli(
        "subshift", "--config", str(tmp_path / "nope.ini"),
        "--out", str(tmp_path / "s.json"),
    )
    assert r.returncode == 2


def test_certify_recurrence(tmp_path):
    out = tmp_path / "c.json"
    r = run_cli(
        "certify", "--out", str(out), "--seed", "1",
        "--set", "kind=recurrence", "--set", "n=100",
        "--set", "slack_schedules=5",
    )
    assert r.returncode == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["tail_bound_ok"] and rep["growth_bound_ok"]
    assert rep["slack_schedules_passed"] == 5


def test_certify_recurrence_mixed_passes(tmp_path):
    # at delta = 0.2 and n = 5 only some schedules pass; the count is the
    # one the per-schedule loop gave before the schedules were stacked
    out = tmp_path / "c.json"
    r = run_cli(
        "certify", "--out", str(out), "--seed", "1",
        "--set", "kind=recurrence", "--set", "n=5", "--set", "delta=0.2",
        "--set", "slack_schedules=50",
    )
    assert r.returncode == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["slack_schedules"] == 50 and rep["slack_schedules_passed"] == 5


def test_certify_recurrence_without_schedules(tmp_path):
    out = tmp_path / "c.json"
    r = run_cli(
        "certify", "--out", str(out), "--seed", "1",
        "--set", "kind=recurrence", "--set", "slack_schedules=0",
    )
    assert r.returncode == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["slack_schedules_passed"] == 0 and rep["tail_bound_ok"]


@pytest.mark.parametrize("n, code", [(736, 0), (737, 2), (800, 2), (1500, 2)])
def test_certify_recurrence_n_is_bounded(tmp_path, n, code):
    # past n = 736 the heights (lambda - delta)^(k - n) go subnormal at the
    # defaults; such runs once failed with messages naming no field
    r = run_cli(
        "certify", "--out", str(tmp_path / "c.json"), "--seed", "1",
        "--set", "kind=recurrence", "--set", f"n={n}",
        "--set", "slack_schedules=3",
    )
    assert r.returncode == code
    assert "Warning" not in r.stderr
    if code == 2:
        assert "n: must be <= 736" in r.stderr


@pytest.mark.parametrize("n, code", [(415, 0), (416, 2), (8000, 2)])
def test_certify_recurrence_n_is_bounded_near_lambda_1(tmp_path, n, code):
    # as delta nears lambda - 1 the heights' ratio lambda - delta nears 1,
    # and the bound (G + m)^N on a run's values, not the heights, caps n
    r = run_cli(
        "certify", "--out", str(tmp_path / "c.json"), "--seed", "1",
        "--set", "kind=recurrence", "--set", "delta=1.618", "--set", f"n={n}",
        "--set", "slack_schedules=3",
    )
    assert r.returncode == code
    assert "Warning" not in r.stderr
    if code == 2:
        assert "n: must be <= 415" in r.stderr


@pytest.mark.parametrize("epsilon, delta, n_max, overflowed", [
    (0.1, 1.0, 644, 819), (0.24, 0.6, 897, 941), (0.24, 1.6, 470, 970),
])
def test_certify_recurrence_n_is_bounded_at_large_delta(
    tmp_path, capsys, epsilon, delta, n_max, overflowed
):
    # in-process, so that an overflow warning fails the test: at large
    # delta the bound on d_k, not the heights, caps n.  The n that
    # overflowed once exited 0 with flags computed from inf and NaN
    argv = ["certify", "--seed", "1", "--set", "kind=recurrence", "--set",
            f"epsilon={epsilon}", "--set", f"delta={delta}", "--set", "slack_schedules=3"]
    code, err, _ = run_main(tmp_path, capsys, *argv, "--set", f"n={n_max}")
    assert code == 0, err
    for n in (n_max + 1, overflowed):
        code, err, _ = run_main(tmp_path, capsys, *argv, "--set", f"n={n}")
        assert code == 2
        assert f"config error: n: must be <= {n_max}" in err


@pytest.mark.parametrize("sets, field", [
    (("delta=3",), "delta"),
    (("delta=1.618033988749895",), "delta"),
    (("delta=1.7",), "delta"),
    (("lam=0.5",), "lam"),
])
def test_certify_recurrence_needs_lam_minus_delta_above_1(tmp_path, sets, field):
    # these once ran into RuntimeWarnings and exit 3, or named `lambda`;
    # lambda is now the model map's constant and cannot be set
    r = run_cli(
        "certify", "--out", str(tmp_path / "c.json"), "--seed", "1",
        "--set", "kind=recurrence", *(a for s in sets for a in ("--set", s)),
    )
    assert r.returncode == 2
    if field == "lam":
        assert "config error: lam: not a field of certify kind=recurrence" in r.stderr
    else:
        assert f"config error: {field}: must be < 1.618033988749895" in r.stderr
    assert "Warning" not in r.stderr
    assert not (tmp_path / "c.json").exists()


#: recurrence reports as the CLI wrote them before lambda, C1 and C2 were
#: fixed: (sets, seed, the five flags, schedules passed)
RECURRENCE_REPORTS = [
    *((("n=5", "delta=0.2", "slack_schedules=50"), seed,
       (False, False, False, True, True), passed)
      for seed, passed in zip(range(1, 6), (5, 8, 7, 9, 4))),
    (("delta=0.2", "epsilon=0.2", "n=400"), 3, (True,) * 5, 100),
    (("delta=0.24", "n=60", "slack_schedules=200"), 2,
     (False, False, False, True, True), 200),
    (("delta=1.6", "n=10"), 4, (False, False, False, True, True), 0),
    (("epsilon=0.1", "delta=0.2", "n=802", "slack_schedules=5"), 1,
     (True, True, False, True, True), 5),
]


@pytest.mark.parametrize("sets, seed, flags, passed", RECURRENCE_REPORTS)
def test_certify_recurrence_reports_are_pinned(tmp_path, capsys, sets, seed, flags,
                                              passed):
    argv = ["certify", "--seed", str(seed), "--set", "kind=recurrence",
            *(a for s in sets for a in ("--set", s))]
    code, err, out = run_main(tmp_path, capsys, *argv)
    assert code == 0, err
    report = json.loads(out.read_text())["report"]
    names = ("tail_bound_ok", "growth_bound_ok", "stepwise_growth_ok",
             "stepwise_small_ok", "dichotomy_ok")
    assert tuple(report[name] for name in names) == flags
    assert report["slack_schedules_passed"] == passed


@pytest.mark.parametrize("key", ["c1", "c2"])
def test_certify_recurrence_constants_are_not_fields(tmp_path, capsys, key):
    # C1 = C2 = 1, as for the model map
    code, err, _ = run_main(tmp_path, capsys, "certify", "--set", "kind=recurrence",
                            "--set", f"{key}=1.0")
    assert code == 2
    assert f"config error: {key}: not a field of certify kind=recurrence" in err
    assert list(tmp_path.iterdir()) == []


def test_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        r = run_cli(
            "certify", "--out", str(out), "--seed", "42",
            "--set", "kind=recurrence", "--set", "n=80",
            "--set", "slack_schedules=3",
        )
        assert r.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("sets", [
    ("kind=empirical", "coupling=0.05", "samples=400"),
    ("kind=model",),
])
def test_certify_reruns_are_byte_identical(tmp_path, capsys, sets):
    # in-process, so that both runs share one interpreter's caches
    outs = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        args = [a for s in sets for a in ("--set", s)]
        code, err, out = run_main(tmp_path / run, capsys, "certify",
                                  "--seed", "7", *args)
        assert code == 0, err
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("sets, flagged", [
    # backs off to level 12 with residual 0.122 > RESIDUAL_FLAG
    (("coupling=32", "k=16"), True),
    (("coupling=2", "k=11", "resolution=1e-7"), False),
])
def test_dimension_records_the_residual_flag(tmp_path, sets, flagged):
    out = tmp_path / "dim.json"
    args = [a for s in ("mode=spectrum", *sets) for a in ("--set", s)]
    r = run_cli("dimension", "--out", str(out), *args)
    assert r.returncode == 0
    assert json.loads(out.read_text())["estimate"]["flagged"] is flagged


def test_dimension_at_zero_coupling_is_one(tmp_path, capsys):
    # V = 0 gives a one-band cover, whose scale grid only the float spacing
    # ends; run in-process, so a RuntimeWarning fails the test
    code, err, out = run_main(tmp_path, capsys, "dimension", "--set", "mode=spectrum",
                              "--set", "coupling=0", "--set", "k=8")
    assert (code, err) == (0, "")
    estimate = json.loads(out.read_text())["estimate"]
    assert float(estimate["value"]) == pytest.approx(1.0, abs=1e-12)
    assert estimate["flagged"] is False


def test_dimension_sweep_rows_record_the_residual_flag(tmp_path):
    out = tmp_path / "sweep.json"
    r = run_cli("dimension", "--out", str(out), "--set", "mode=sweep",
                "--set", "couplings=16", "--set", "k=8")
    assert r.returncode == 0
    (row,) = json.loads(out.read_text())["table"]
    assert row["flagged"] is (float(row["residual"]) > boxdim.RESIDUAL_FLAG)


def run_main(tmp_path, capsys, *args):
    """``cli.main`` in-process: exit code, stderr and the output path."""
    out = tmp_path / "x.json"
    code = cli.main([*args, "--out", str(out)])
    return code, capsys.readouterr().err, out


#: a valid value for each required field, so that one other field can fail
REQUIRED = {"coupling": "0.1", "ratio": "0.3", "couplings": "16"}


def _past_bounds(field):
    """The values just past each bound of a numeric field, as config text."""
    for bound, away, side in ((field.lo, -math.inf, "lo"), (field.hi, math.inf, "hi")):
        if bound is None:
            continue
        if field.type is int:
            yield str(bound + (1 if away > 0 else -1))
        elif side in field.open:
            yield repr(float(bound))
        else:
            yield repr(math.nextafter(bound, away))


def _bound_cases():
    for table, fields in cli.FIELDS.items():
        command, _, choice = table.partition(" ")
        for name, field in fields.items():
            for bad in _past_bounds(field):
                given = {key: REQUIRED[key] for key, f in fields.items()
                         if f.default is None and key != name}
                sets = [f"{key}={val}" for key, val in given.items()]
                if choice:
                    sets.append(choice)
                sets.append(f"{name}={bad}")
                argv = [command, *(a for s in sets for a in ("--set", s))]
                case = f"{table.replace(' ', '-')}:{name}={bad}"
                yield pytest.param(argv, name, id=case)


@pytest.mark.parametrize("argv, name", list(_bound_cases()))
def test_value_past_each_bound_exits_2_naming_field(tmp_path, capsys, argv, name):
    code, err, _ = run_main(tmp_path, capsys, *argv)
    assert code == 2
    assert f"config error: {name}: must be" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, key", [
    (("spectrum", "--set", "coupling=1", "--set", "K=12"), "K"),
    (("certify", "--set", "kind=model", "--set", "coupling=0.05"), "coupling"),
])
def test_unknown_key_exits_2_naming_key(tmp_path, capsys, args, key):
    code, err, _ = run_main(tmp_path, capsys, *args)
    assert code == 2
    assert f"config error: {key}: not a field of" in err
    assert list(tmp_path.iterdir()) == []


def test_config_records_every_resolved_field(tmp_path, capsys):
    code, _, out = run_main(tmp_path, capsys, "spectrum", "--set", "coupling=1")
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert config == {"coupling": "1.0", "k": "10", "resolution": "0.0001"}


def test_model_delta_is_bounded_by_c1(tmp_path):
    # C1 = 1 bounds the model map's second derivatives only up to delta = 2
    out = tmp_path / "model.json"
    argv = ["certify", "--seed", "1", "--set", "kind=model", "--out", str(out)]
    r = run_cli(*argv, "--set", "delta=3")
    assert r.returncode == 2
    assert "config error: delta: must be <= 2.0" in r.stderr
    r = run_cli(*argv, "--set", "delta=2")
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())["report"]
    assert report["passed"] == report["vectors"]
    with pytest.raises(ValueError, match="delta must be in"):
        certify.make_model_map(delta=2.5)


def test_model_n0_is_bounded_and_scores_up_to_the_bound(tmp_path, capsys):
    # in-process, so that an overflow warning fails the test: past n0 =
    # 696 the start heights are subnormal; at 696 the squares of the
    # pushed norms overflow, and the scaled norms score every vector.
    # The counts are pinned at three seeds and three n0.
    argv = ["certify", "--set", "kind=model"]
    code, err, out = run_main(tmp_path, capsys, *argv, "--set", "n0=697")
    assert code == 2 and "config error: n0: must be <= 696" in err
    assert list(tmp_path.iterdir()) == []
    for seed in ("1", "2", "3"):
        for n0 in (696, 600, 200):
            code, err, out = run_main(
                tmp_path, capsys, *argv, "--seed", seed, "--set", f"n0={n0}")
            assert code == 0, err
            report = json.loads(out.read_text())["report"]
            assert report["passed"] == report["vectors"] == 1000
            assert report["inconclusive"] == 0


def _bound_text(name, field):
    """The field's bounds as ``cli._number``'s messages write them."""
    parts = []
    for bad in _past_bounds(field):
        with pytest.raises(cli.ConfigError) as exc:
            cli._number(name, field, bad)
        parts.append(str(exc.value).partition(": must be ")[2].partition(", got")[0])
    return ", ".join(parts)


def test_readme_field_table_matches_the_code():
    # every row of README's CLI field table is "| table | field | type |
    # default | bound |"; the rows and the code's tables must agree, and
    # each bound cell starts with the bounds the code holds the field to
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows, bounds = set(), {}
    for line in readme.splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].split(" ")[0] in cli.COMMANDS:
            rows.add((cells[0], cells[1], cells[3]))
            bounds[cells[0], cells[1]] = cells[4].removeprefix("each ")
    code = {
        (table, name, "required" if f.default is None else cli._record(f.default))
        for table, fields in cli.FIELDS.items()
        for name, f in fields.items()
    }
    assert rows == code
    for table, fields in cli.FIELDS.items():
        for name, f in fields.items():
            assert bounds[table, name].startswith(_bound_text(name, f)), (table, name)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_negative_seed_exits_2_at_parse_time(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--out", str(tmp_path / "x.json"), "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


#: the CLI with its address space capped at 1 GiB once it is imported, so
#: that an oversized array fails to allocate at once instead of paging
CAPPED_CLI = (
    "import resource, sys\n"
    "from fibtrace import cli\n"
    "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("command, sets", [
    ("mesh", ["coupling=0.1", "resolution=100000"]),
    ("certify", ["kind=model", "vectors=1000000000"]),
    ("certify", ["kind=empirical", "coupling=0.05", "n=100000000"]),
    ("certify", ["kind=recurrence", "slack_schedules=1000000000"]),
])
def test_out_of_memory_exits_3(tmp_path, command, sets):
    argv = [command, "--out", str(tmp_path / "x.json"), "--seed", "1",
            *(arg for s in sets for arg in ("--set", s))]
    r = subprocess.run([sys.executable, "-c", CAPPED_CLI, *argv],
                       capture_output=True, text=True)
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("out of memory: Unable to allocate")
