"""Command-line front end: reproducible runs driven by config files.

Commands: spectrum, dimension, certify, mesh, subshift.  Parameters live
in an INI-style config file of UTF-8 text, whose only section is [run],
and can be overridden with repeated ``--set key=value`` flags;
``--seed`` fixes all randomness so a rerun produces byte-identical
output files, and a ``seed`` config key is refused.  ``FIELDS`` gives
each command's fields (per ``dimension`` mode and ``certify`` kind) with
type, default and bounds; other keys are refused.  Every output records
the value every field resolved to, the seed and the toolkit version;
spectral outputs also record the level their cover reached.

Exit codes: 0 success (inconclusive certificates included), 2 config
error, 3 runtime numeric failure or out of memory.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from . import boxdim, empirical, recurrences, spectrum, subshift
from . import certify as cert
from .tracemap import PER2_POLE_BAND, per2_point, surface_points

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """Invalid or missing configuration value; message names the field."""


class Field(NamedTuple):
    """A float, int, bool or list (of floats) field; required if default is None.

    ``lo`` and ``hi`` bound a number, or each element of a list,
    inclusively, or exclusively where ``open`` names them ("lo", "hi").
    """

    type: type
    default: object = None
    lo: float | None = None
    hi: float | None = None
    open: str = ""


#: a cover at level k also builds level k + 1
MAX_K = spectrum.MAX_LEVEL - 1

#: the last model n0 whose start heights, down to LAMBDA_BIG^-(n0 + 40),
#: are normal floats (by the rule of recurrences.max_steps)
MAX_N0 = math.floor(-math.log(np.finfo(float).tiny) / math.log(cert.LAMBDA_BIG)) - 40

#: the field that picks the table of a command, and its default
SELECTORS = {"dimension": ("mode", "spectrum"), "certify": ("kind", "recurrence")}

FIELDS: dict[str, dict[str, Field]] = {
    "spectrum": {
        "coupling": Field(float, lo=0.0),
        "k": Field(int, 10, 1, MAX_K),
        "resolution": Field(float, 1e-4, 0.0, open="lo"),
    },
    "dimension mode=cantor": {
        "ratio": Field(float, None, 0.0, 0.5, open="lo hi"),
        # cantor_bands builds 2^depth intervals: 2^20 of them take 16 MB,
        # while a depth in the 30s would ask for gigabytes
        "depth": Field(int, 10, 1, 20),
    },
    "dimension mode=spectrum": {
        "coupling": Field(float, lo=0.0),
        "k": Field(int, 10, 2, MAX_K),
        "resolution": Field(float, 1e-7, 0.0),
    },
    "dimension mode=sweep": {
        # boxdim.asymptote_check is defined for V >= 16 only
        "couplings": Field(list, lo=16.0),
        "k": Field(int, 10, 2, MAX_K),
    },
    "certify kind=recurrence": {
        # the bounds RecurrenceParams.validate checks
        "epsilon": Field(float, 0.1, 0.0, 0.25, open="lo hi"),
        "delta": Field(float, 1e-3, 0.0, float(cert.LAMBDA_BIG - 1.0), open="hi"),
        "n": Field(int, 200, 1),
        "slack_schedules": Field(int, 100, 0),
    },
    "certify kind=model": {
        # make_model_map's range: C1 = 1 bounds the second derivatives
        "delta": Field(float, 1e-3, 0.0, 2.0),
        "vectors": Field(int, 1000, 1),
        "n0": Field(int, 200, 1, MAX_N0),
    },
    "certify kind=empirical": {
        # the bounds empirical_trace_certificate checks
        "coupling": Field(float, None, 1e-12, 0.5),
        "samples": Field(int, 1000, 1),
        "n": Field(int, 30, 1),
        "epsilon": Field(float, 0.1, 0.0, 0.25, open="lo hi"),
        "zeta": Field(float, 0.1, 0.0, 1.0, open="lo hi"),
        "singular_radius": Field(float, 0.05, 0.0),
    },
    "mesh": {
        # (x^2 - 1)(y^2 - 1) <= 1e304 and V^2/4 <= 2.5e299, so that the
        # sheets xy +- sqrt((x^2 - 1)(y^2 - 1) + V^2/4) stay finite
        "coupling": Field(float, lo=0.0, hi=1e150),
        "resolution": Field(int, 101, 2),
        "x_min": Field(float, -2.0, -1e76, 1e76),
        "x_max": Field(float, 2.0, -1e76, 1e76),
        "y_min": Field(float, -2.0, -1e76, 1e76),
        "y_max": Field(float, 2.0, -1e76, 1e76),
        "per2": Field(bool, False),
    },
    "subshift": {"n": Field(int, 10, 1, 20)},
}


def _fmt(x) -> str:
    """Shortest round-trip decimal for a float; stable across runs."""
    return repr(float(x))


def _load_config(path: str | None, overrides: list[str]) -> dict:
    cfg: dict[str, str] = {}
    if path is not None:
        # no header can name an empty section, so [DEFAULT] is a section
        # like any other, and is refused like any other
        parser = configparser.ConfigParser(default_section="")
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"config: cannot read {path!r}")
            for sec in parser.sections():
                if sec != "run":
                    raise ConfigError(f"config: section [{sec}] is not [run]")
            cfg = dict(parser.items("run")) if parser.has_section("run") else {}
        except configparser.Error as exc:
            raise ConfigError(f"config: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config: {path!r} is not UTF-8 text: {exc}") from None
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, val = item.partition("=")
        cfg[key.strip()] = val.strip()
    if "seed" in cfg:
        raise ConfigError("seed: not a config key; pass --seed instead")
    return cfg


def _number(key: str, field: Field, raw: str | None):
    """Parse ``raw`` (None if not given) as ``field`` and hold it to the bounds."""
    if raw is None:
        if field.default is None:
            raise ConfigError(f"{key}: required field is missing")
        return field.default
    if field.type is bool:
        word = raw.lower()
        if word not in ("yes", "true", "1", "no", "false", "0"):
            raise ConfigError(f"{key}: must be yes/true/1 or no/false/0, got {raw!r}")
        return word in ("yes", "true", "1")
    if field.type is list:
        each = field._replace(type=float)
        vals = [_number(key, each, v) for v in raw.replace(",", " ").split()]
        if not vals:
            raise ConfigError(f"{key}: list field has no values")
        return vals
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {raw!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    if field.type is int:
        if val != int(val):
            raise ConfigError(f"{key}: must be an integer, got {val}")
        val = int(val)
    lo_open, hi_open = "lo" in field.open, "hi" in field.open
    if field.lo is not None and (val <= field.lo if lo_open else val < field.lo):
        op = ">" if lo_open else ">="
        raise ConfigError(f"{key}: must be {op} {field.lo}, got {val}")
    if field.hi is not None and (val >= field.hi if hi_open else val > field.hi):
        op = "<" if hi_open else "<="
        raise ConfigError(f"{key}: must be {op} {field.hi}, got {val}")
    return val


def _resolve(command: str, cfg: dict) -> dict:
    """Every field of the command's table, parsed, bounded or defaulted."""
    cfg = dict(cfg)
    table, params = command, {}
    if command in SELECTORS:
        key, default = SELECTORS[command]
        params[key] = cfg.pop(key, default)
        table = f"{command} {key}={params[key]}"
        if table not in FIELDS:
            raise ConfigError(f"{key}: unknown {command} {key} {params[key]!r}")
    for key in cfg:
        if key not in FIELDS[table]:
            raise ConfigError(f"{key}: not a field of {table}")
    for key, field in FIELDS[table].items():
        params[key] = _number(key, field, cfg.get(key))
    return params


def _record(val) -> str:
    """A resolved field as written to an output's ``config``."""
    if isinstance(val, bool):
        return "yes" if val else "no"
    if isinstance(val, list):
        return " ".join(map(_fmt, val))
    return _fmt(val) if isinstance(val, float) else str(val)


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_spectrum(p: dict, out: str, seed: int | None) -> dict:
    cover = spectrum.spectrum_cover(p["coupling"], p["k"], p["resolution"])
    edges = [(_fmt(lo), _fmt(hi)) for lo, hi in cover.intervals.tolist()]
    _write_csv(out + ".csv", "lo,hi", edges)
    return {
        "bands": [{"lo": lo, "hi": hi} for lo, hi in edges],
        "band_count": len(cover),
        "level": cover.generation,
        "measure": _fmt(cover.measure),
    }


def cmd_dimension(p: dict, out: str, seed: int | None) -> dict:
    if p["mode"] == "sweep":
        rows = boxdim.asymptote_check(p["couplings"], p["k"])
        floats = ("V", "dim", "dim_log_V", "residual")
        return {"table": [
            {"level": r["level"], "flagged": r["flagged"],
             **{key: _fmt(r[key]) for key in floats}} for r in rows
        ]}
    if p["mode"] == "cantor":
        bands, level = boxdim.cantor_bands(p["ratio"], p["depth"]), {}
    else:
        bands = spectrum.spectrum_cover(p["coupling"], p["k"], p["resolution"])
        level = {"level": bands.generation}
    est = boxdim.box_dimension(bands, boxdim.auto_scale_grid(bands))
    return {**level, "estimate": {
        "value": _fmt(est.value), "residual": _fmt(est.regression_residual),
        "flagged": est.flagged,
        "scale_range": [_fmt(est.counts[0][0]), _fmt(est.counts[-1][0])],
        "counts": [[_fmt(e), n] for e, n in est.counts],
    }}


def cmd_certify(p: dict, out: str, seed: int | None) -> dict:
    rng = np.random.default_rng(seed)
    if p["kind"] == "recurrence":
        params = recurrences.RecurrenceParams(epsilon=p["epsilon"], delta=p["delta"])
        N, n_max = p["n"], recurrences.max_steps(params)
        if N > n_max:
            at = "at these delta and epsilon"
            raise ConfigError(f"n: must be <= {n_max} {at}, got {N}")
        run = recurrences.run_dD(params, N)
        schedules = p["slack_schedules"]
        # schedule by schedule, N draws for column 0 and then N for column 1
        slack = rng.random((schedules, 2, N))
        slack *= np.array([[0.3], [0.2]])
        slack = slack.transpose(0, 2, 1)
        aa_pass = 0
        if schedules:
            runs = recurrences.run_aA(params, N, slack_schedule=slack)
            # zero slack: the exact run from the schedules' shared start A_0
            ref = recurrences.run_aA(params, N)
            ok = runs.passed & recurrences.dominates(runs, ref)
            aa_pass = int(np.count_nonzero(ok))
        flags = ("tail_bound_ok", "growth_bound_ok", "stepwise_growth_ok",
                 "stepwise_small_ok", "dichotomy_ok")
        return {"report": {
            "kind": "recurrence", "N": N, "delta": _fmt(params.delta),
            **{flag: getattr(run, flag) for flag in flags},
            "slack_schedules": schedules, "slack_schedules_passed": aa_pass,
        }}
    if p["kind"] == "model":
        m_seed = None if seed is None else seed + 1
        m = cert.make_model_map(delta=p["delta"], seed=m_seed)
        n, n0 = p["vectors"], p["n0"]
        zp = cert.LAMBDA_BIG ** -rng.uniform(n0 + 1, n0 + 40, n)
        points = np.column_stack([rng.uniform(-1.0, 1.0, (n, 2)), zp])
        vectors = cert.sample_cone_vectors_3d(zp, rng)
        rep = cert.expansion_certificates(m, points, vectors)
        return {"report": {
            "kind": "model", "delta": _fmt(p["delta"]), "vectors": p["vectors"],
            "passed": int(np.count_nonzero(rep.all_ok)),
            "inconclusive": 0,  # every row exits: see expansion_certificates
        }}
    rep = empirical.empirical_trace_certificate(
        p["coupling"], sample_size=p["samples"], n_forward=p["n"], epsilon=p["epsilon"],
        zeta=p["zeta"], singular_radius=p["singular_radius"], rng=rng,
    )
    rates = ("inconclusive_rate", "min_expansion_ratio", "cone_invariance_fraction")
    return {"report": {
        "kind": "empirical", "coupling": _fmt(p["coupling"]),
        "samples": rep.samples_total, "cone_checks": rep.cone_checks,
        "cone_undecided": rep.cone_undecided,
        **{name: _fmt(getattr(rep, name)) for name in rates},
        "singular_radius": _fmt(p["singular_radius"]),
    }}


def cmd_mesh(p: dict, out: str, seed: int | None) -> dict:
    x_win, y_win = (p["x_min"], p["x_max"]), (p["y_min"], p["y_max"])
    if x_win[1] <= x_win[0] or y_win[1] <= y_win[0]:
        raise ConfigError("x_max/y_max: window must have positive extent")
    xs = np.linspace(*x_win, p["resolution"])
    ys = np.linspace(*y_win, p["resolution"])
    x, y, z = surface_points(p["coupling"], *np.meshgrid(xs, ys, indexing="ij"))
    half = len(x) // 2
    rows = [(_fmt(a), _fmt(b), _fmt(c), "+" if i < half else "-")
            for i, (a, b, c) in enumerate(zip(x.tolist(), y.tolist(), z.tolist()))]
    _write_csv(out + ".csv", "x,y,z,sheet", rows)
    result = {"points_emitted": 2 * half, "nodes_valid": half,
              "nodes_total": p["resolution"] ** 2}
    if p["per2"]:
        curve = per2_point(xs[np.abs(xs - 0.5) >= PER2_POLE_BAND])
        curve = curve[(y_win[0] <= curve[:, 1]) & (curve[:, 1] <= y_win[1])]
        rows = [map(_fmt, q) for q in curve.tolist()]
        _write_csv(out + ".per2.csv", "x,y,z", rows)
        result["per2_points"] = len(curve)
    return result


def cmd_subshift(p: dict, out: str, seed: int | None) -> dict:
    table = []
    for n in range(1, p["n"] + 1):
        words, periodic = subshift.counts(n)
        table.append({"n": n, "words": words, "periodic": periodic})
    return {
        "counts": table, "spectral_radius": _fmt(subshift.spectral_radius()),
        "entropy": _fmt(subshift.entropy()), "transition": subshift.TRANSITION.tolist(),
    }


COMMANDS = {
    "spectrum": cmd_spectrum,
    "dimension": cmd_dimension,
    "certify": cmd_certify,
    "mesh": cmd_mesh,
    "subshift": cmd_subshift,
}


def _seed(raw: str) -> int:
    """A ``--seed`` value: an integer >= 0, as numpy's generators take."""
    try:
        seed = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibtrace", description="Trace-map spectra, dimensions, and hyperbolicity "
        "certificates as reproducible data files.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", required=True, help="output path (JSON)")
    parser.add_argument("--seed", type=_seed, default=None)
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config value (repeatable)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = _resolve(args.command, _load_config(args.config, args.overrides))
        result = COMMANDS[args.command](params, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    config = {key: _record(val) for key, val in params.items()}
    if args.seed is not None:
        config["seed"] = str(args.seed)
    meta = {"tool": "fibtrace", "version": __version__, "command": args.command}
    payload = {**meta, "config": config, **result}
    with open(args.out, "w") as fh:
        # compact, so json uses its C encoder; indent=2 falls back to Python
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
