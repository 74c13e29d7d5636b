"""Command-line front end: reproducible runs driven by config files.

Commands: spectrum, dimension, certify, mesh, subshift.  Parameters live
in an INI-style config file (section [run]) and can be overridden with
repeated ``--set key=value`` flags; ``--seed`` fixes all randomness so a
rerun produces byte-identical output files, and a ``seed`` config key is
refused.  Numeric fields must be finite.  Every output records the
configuration keys that were given, the seed and the toolkit version;
defaults that were not given are not written out.

Exit codes: 0 success (inconclusive certificates included), 2 config
error, 3 runtime numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys

import numpy as np

from . import __version__
from . import boxdim, empirical, recurrences, spectrum, subshift
from . import certify as cert
from .tracemap import per2_point, surface_mesh

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """Invalid or missing configuration value; message names the field."""


def _fmt(x) -> str:
    """Shortest round-trip decimal for a float; stable across runs."""
    return repr(float(x))


def _load_config(path: str | None, overrides: list[str]) -> dict:
    cfg: dict[str, str] = {}
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigError(f"config: cannot read {path!r}")
        for section in parser.sections():
            for key, val in parser.items(section):
                cfg[key] = val
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, val = item.partition("=")
        cfg[key.strip()] = val.strip()
    if "seed" in cfg:
        raise ConfigError("seed: not a config key; pass --seed instead")
    return cfg


def _to_float(key: str, raw) -> float:
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: not a number: {raw!r}") from None
    if not np.isfinite(val):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return val


def _get_float(cfg: dict, key: str, default=None, minimum=None) -> float:
    raw = cfg.get(key, default)
    if raw is None:
        raise ConfigError(f"{key}: required field is missing")
    val = _to_float(key, raw)
    if minimum is not None and val < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {val}")
    return val


def _get_int(cfg: dict, key: str, default=None, minimum=None) -> int:
    val = _get_float(cfg, key, default, minimum)
    if val != int(val):
        raise ConfigError(f"{key}: must be an integer, got {val}")
    return int(val)


def _get_level(cfg: dict, minimum: int) -> int:
    """Cover level k; the cover also builds level k + 1."""
    k = _get_int(cfg, "k", default=10, minimum=minimum)
    if k + 1 > spectrum.MAX_LEVEL:
        raise ConfigError(f"k: must be <= {spectrum.MAX_LEVEL - 1}, got {k}")
    return k


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _meta(cfg: dict, seed: int | None) -> dict:
    resolved = dict(sorted(cfg.items()))
    if seed is not None:
        resolved["seed"] = str(seed)
    return {"tool": "fibtrace", "version": __version__, "config": resolved}


def _bands_to_rows(bands) -> list[dict]:
    return [
        {"lo": _fmt(lo), "hi": _fmt(hi), "generation": bands.generation}
        for lo, hi in bands.intervals.tolist()
    ]


def cmd_spectrum(cfg: dict, out: str, seed: int | None) -> int:
    V = _get_float(cfg, "coupling", minimum=0.0)
    k = _get_level(cfg, minimum=1)
    resolution = _get_float(cfg, "resolution", default=1e-4)
    if resolution <= 0:
        raise ConfigError("resolution: must be > 0")
    cover = spectrum.spectrum_cover(V, k, resolution)
    payload = _meta(cfg, seed)
    payload.update(
        {
            "command": "spectrum",
            "bands": _bands_to_rows(cover),
            "band_count": len(cover),
            "measure": _fmt(cover.measure),
        }
    )
    _write_json(out, payload)
    with open(out + ".csv", "w") as fh:
        fh.write("lo,hi,generation\n")
        for lo, hi in cover.intervals.tolist():
            fh.write(f"{_fmt(lo)},{_fmt(hi)},{cover.generation}\n")
    return 0


def cmd_dimension(cfg: dict, out: str, seed: int | None) -> int:
    mode = cfg.get("mode", "spectrum")
    payload = _meta(cfg, seed)
    payload["command"] = "dimension"
    if mode == "cantor":
        ratio = _get_float(cfg, "ratio")
        if not 0.0 < ratio < 0.5:
            raise ConfigError("ratio: must be in (0, 0.5)")
        depth = _get_int(cfg, "depth", default=10, minimum=1)
        bands = boxdim.cantor_bands(ratio, depth)
        est = boxdim.box_dimension(bands, boxdim.auto_scale_grid(bands))
        payload["estimate"] = _estimate_payload(est)
    elif mode == "spectrum":
        V = _get_float(cfg, "coupling", minimum=0.0)
        k = _get_level(cfg, minimum=2)
        cover = spectrum.spectrum_cover(
            V, k, _get_float(cfg, "resolution", default=1e-7, minimum=0.0)
        )
        est = boxdim.box_dimension(cover, boxdim.auto_scale_grid(cover))
        payload["estimate"] = _estimate_payload(est)
    elif mode == "sweep":
        raw = cfg.get("couplings")
        if raw is None:
            raise ConfigError("couplings: required for mode=sweep")
        V_list = [
            _to_float("couplings", v) for v in raw.replace(",", " ").split()
        ]
        k = _get_level(cfg, minimum=2)
        rows = boxdim.asymptote_check(V_list, k)
        payload["table"] = [
            {
                "V": _fmt(r["V"]),
                "level": r["level"],
                "dim": _fmt(r["dim"]),
                "dim_log_V": _fmt(r["dim_log_V"]),
                "residual": _fmt(r["residual"]),
            }
            for r in rows
        ]
    else:
        raise ConfigError(f"mode: unknown dimension mode {mode!r}")
    _write_json(out, payload)
    return 0


def _estimate_payload(est: boxdim.DimensionEstimate) -> dict:
    return {
        "value": _fmt(est.value),
        "scale_range": [_fmt(est.scale_range[0]), _fmt(est.scale_range[1])],
        "residual": _fmt(est.regression_residual),
        "counts": [[_fmt(e), n] for e, n in est.counts],
    }


def cmd_certify(cfg: dict, out: str, seed: int | None) -> int:
    kind = cfg.get("kind", "recurrence")
    payload = _meta(cfg, seed)
    payload["command"] = "certify"
    rng = np.random.default_rng(seed)
    if kind == "recurrence":
        params = recurrences.RecurrenceParams(
            c1=_get_float(cfg, "c1", default=1.0),
            c2=_get_float(cfg, "c2", default=1.0),
            lam=_get_float(cfg, "lam", default=cert.LAMBDA_BIG),
            epsilon=_get_float(cfg, "epsilon", default=0.1),
            delta=_get_float(cfg, "delta", default=1e-3),
        )
        N = _get_int(cfg, "n", default=200, minimum=1)
        n_max = recurrences.max_steps(params)
        if N > n_max:
            raise ConfigError(
                f"n: must be <= {n_max} at these lam, delta, epsilon and c2,"
                f" got {N}"
            )
        run = recurrences.run_dD(params, N)
        schedules = _get_int(cfg, "slack_schedules", default=100, minimum=0)
        slack = np.empty((schedules, N, 2))
        for row in slack:
            row[:, 0] = rng.uniform(0.0, 0.3, N)
            row[:, 1] = rng.uniform(0.0, 0.2, N)
        aa_pass = 0
        if schedules:
            runs = recurrences.run_aA(params, N, slack_schedule=slack)
            # the exact run from the schedules' shared start A_0
            ref = recurrences.run_dD(params, N, D0=runs.large[0, 0])
            aa_pass = int(
                np.count_nonzero(runs.passed & recurrences.dominates(runs, ref))
            )
        payload["report"] = {
            "kind": "recurrence",
            "N": N,
            "delta": _fmt(params.delta),
            "tail_bound_ok": run.tail_bound_ok,
            "growth_bound_ok": run.growth_bound_ok,
            "stepwise_growth_ok": run.stepwise_growth_ok,
            "stepwise_small_ok": run.stepwise_small_ok,
            "dichotomy_ok": run.dichotomy_ok,
            "slack_schedules": schedules,
            "slack_schedules_passed": aa_pass,
        }
    elif kind == "model":
        delta = _get_float(cfg, "delta", default=1e-3, minimum=0.0)
        n_vectors = _get_int(cfg, "vectors", default=1000, minimum=1)
        n0 = _get_int(cfg, "n0", default=200, minimum=1)
        m = cert.make_model_map(
            delta=delta, seed=None if seed is None else seed + 1
        )
        points, vectors = [], []
        for _ in range(n_vectors):
            zp = cert.LAMBDA_BIG ** (-rng.uniform(n0 + 1, n0 + 40))
            points.append([rng.uniform(-1, 1), rng.uniform(-1, 1), zp])
            vectors.append(cert.sample_cone_vector_3d(zp, 1.0, rng))
        reps = cert.expansion_certificates(m, points, vectors)
        inconclusive = sum(rep.status == "inconclusive" for rep in reps)
        passed = sum(rep.all_ok for rep in reps)
        payload["report"] = {
            "kind": "model",
            "delta": _fmt(delta),
            "vectors": n_vectors,
            "passed": passed,
            "inconclusive": inconclusive,
        }
    elif kind == "empirical":
        V = _get_float(cfg, "coupling", minimum=1e-12)
        rep = empirical.empirical_trace_certificate(
            V,
            sample_size=_get_int(cfg, "samples", default=1000, minimum=1),
            n_forward=_get_int(cfg, "n", default=30, minimum=1),
            epsilon=_get_float(cfg, "epsilon", default=0.1),
            zeta=_get_float(cfg, "zeta", default=0.1),
            singular_radius=_get_float(cfg, "singular_radius", default=0.05),
            rng=rng,
        )
        payload["report"] = {
            "kind": "empirical",
            "coupling": _fmt(V),
            "samples": rep.samples_total,
            "inconclusive_rate": _fmt(rep.inconclusive_rate),
            "min_expansion_ratio": _fmt(rep.min_expansion_ratio),
            "cone_invariance_fraction": _fmt(rep.cone_invariance_fraction),
            "cone_checks": rep.cone_checks,
            "singular_radius": _fmt(rep.singular_radius),
        }
    else:
        raise ConfigError(f"kind: unknown certificate kind {kind!r}")
    _write_json(out, payload)
    return 0


def cmd_mesh(cfg: dict, out: str, seed: int | None) -> int:
    V = _get_float(cfg, "coupling", minimum=0.0)
    resolution = _get_int(cfg, "resolution", default=101)
    if resolution < 2:
        raise ConfigError("resolution: must be >= 2")
    window = [
        _get_float(cfg, "x_min", default=-2.0),
        _get_float(cfg, "x_max", default=2.0),
        _get_float(cfg, "y_min", default=-2.0),
        _get_float(cfg, "y_max", default=2.0),
    ]
    if window[1] <= window[0] or window[3] <= window[2]:
        raise ConfigError("x_max/y_max: window must have positive extent")
    mesh = surface_mesh(
        V, (window[0], window[1]), (window[2], window[3]), resolution
    )
    pts = mesh.points()
    with open(out + ".csv", "w") as fh:
        fh.write("x,y,z,sheet\n")
        for x, y, z, sheet in pts:
            sign = "+" if sheet > 0 else "-"
            fh.write(f"{_fmt(x)},{_fmt(y)},{_fmt(z)},{sign}\n")
    payload = _meta(cfg, seed)
    payload.update(
        {
            "command": "mesh",
            "points_emitted": int(len(pts)),
            "nodes_valid": int(mesh.valid.sum()),
            "nodes_total": int(mesh.valid.size),
        }
    )
    if cfg.get("per2", "no").lower() in ("yes", "true", "1"):
        xs = np.linspace(window[0], window[1], resolution)
        rows = []
        for x in xs:
            try:
                p = per2_point(x)
            except ValueError:
                continue
            if window[2] <= p[1] <= window[3]:
                rows.append(p)
        with open(out + ".per2.csv", "w") as fh:
            fh.write("x,y,z\n")
            for p in rows:
                fh.write(f"{_fmt(p[0])},{_fmt(p[1])},{_fmt(p[2])}\n")
        payload["per2_points"] = len(rows)
    _write_json(out, payload)
    return 0


def cmd_subshift(cfg: dict, out: str, seed: int | None) -> int:
    n_max = _get_int(cfg, "n", default=10, minimum=1)
    if n_max > 20:
        raise ConfigError("n: must be <= 20")
    table = []
    for n in range(1, n_max + 1):
        words, periodic = subshift.counts(n)
        table.append({"n": n, "words": words, "periodic": periodic})
    rho = subshift.spectral_radius()
    payload = _meta(cfg, seed)
    payload.update(
        {
            "command": "subshift",
            "counts": table,
            "spectral_radius": _fmt(rho),
            "entropy": _fmt(float(np.log(rho))),
            "transition": subshift.TRANSITION.tolist(),
        }
    )
    _write_json(out, payload)
    return 0


COMMANDS = {
    "spectrum": cmd_spectrum,
    "dimension": cmd_dimension,
    "certify": cmd_certify,
    "mesh": cmd_mesh,
    "subshift": cmd_subshift,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibtrace",
        description="Trace-map spectra, dimensions, and hyperbolicity "
        "certificates as reproducible data files.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", required=True, help="output path (JSON)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value (repeatable)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.overrides)
        return COMMANDS[args.command](cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
