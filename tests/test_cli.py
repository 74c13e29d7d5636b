import json
import subprocess
import sys

import pytest


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
