"""Experiment runner CLI.

Subcommands: ``run`` executes a sweep config (file or preset name) and
writes one CSV row per sweep point; ``fit-marcum`` fits the exponential
surrogate and prints its parameters, writing no file; ``presets`` lists or
prints bundled configs; ``trace`` ray-traces a geometry for debugging.
Output is deterministic for a fixed config: floats are printed with 17
significant digits, '.' decimal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import presets as presets_mod
from .channel import ChannelModel, make_channel_model
from .escape3d import Geometry3D
from .geometry2d import Geometry2D
from .mass2d import mass
from .montecarlo import McConfig, run_escape_isolation, run_transport, trace_ray
from .specfun import fit_exponential_approx
from .transport import TransportGeometry

CSV_SCHEMA = "# keyhole-results v1"
CSV_COLUMNS = ("sweep_param", "value", "mass_closed", "mass_quadrature",
               "isolation_analytic", "mc_p_hat", "mc_std_err", "trials",
               "seed", "status")
# the layout class of each scenario name a config may give
SCENARIOS = {cls.scenario: cls for cls in (Geometry2D, Geometry3D, TransportGeometry)}


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    if x != x:
        return "nan"
    return format(float(x), ".17g")


def output_dir() -> Path:
    return Path(os.environ.get("KEYHOLE_OUTPUT_DIR", "."))


def load_config(source: str) -> dict:
    """Load a config from a JSON file path or a bundled preset name."""
    path = Path(source)
    if path.exists():
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if source in presets_mod.PRESETS:
        return presets_mod.get_preset(source)
    raise ConfigError(f"config not found (no such file or preset): {source}")


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config key missing: {key}")
    return cfg[key]


def _parse_geometry(cfg: dict):
    """The config's layout at its base values; a missing, unknown or invalid
    key is a ConfigError."""
    scenario = _require(cfg, "scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario: {scenario!r}")
    # JSON lists are the coordinate pairs of the layout classes
    args = {key: tuple(v) if isinstance(v, list) else v
            for key, v in _require(cfg, "geometry").items()}
    if "sides" in cfg:
        args["sides"] = cfg["sides"]
    try:
        return SCENARIOS[scenario](**args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"geometry: {exc}") from exc


def _validate_sweep(cfg: dict, geometry) -> tuple:
    sweep = _require(cfg, "sweep")
    param = _require(sweep, "parameter")
    values = _require(sweep, "values")
    allowed = ("alpha", *geometry.sweep_parameters)
    if param not in allowed:
        raise ConfigError(f"sweep.parameter of a {geometry.scenario} config must be one of "
                          f"{list(allowed)}")
    if not values:
        raise ConfigError("sweep.values must be non-empty")
    diffs = [b - a for a, b in zip(values, values[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ConfigError("sweep.values must be strictly monotone")
    return param, list(values)


def _sweep_row(cfg: dict, geometry, rho, param: str, value: float) -> dict:
    channel = dict(cfg["channel"])
    if param == "alpha":
        channel["alpha"] = value
    else:
        geometry = geometry.swept(param, value)
    model = make_channel_model(**channel)
    mc_cfg = cfg.get("mc", {})
    try:
        closed, status = mass(geometry, model, "closed_form").total, "ok"
    except ValueError as exc:  # the layout or eta has no closed form; the row stands
        closed, status = math.nan, f"no closed form: {exc}"
    row = {"sweep_param": param, "value": value, "mass_closed": closed,
           "mass_quadrature": mass(geometry, model).total, "isolation_analytic": math.nan,
           "mc_p_hat": math.nan, "mc_std_err": math.nan,
           "trials": int(mc_cfg.get("trials", 0)) if mc_cfg.get("enabled") else 0,
           "seed": int(mc_cfg.get("seed", 0)), "status": status}
    # a layout with a node population carries its density and isolation
    if rho is not None:
        row["isolation_analytic"] = math.exp(-rho * row["mass_quadrature"])
    if mc_cfg.get("enabled"):
        mc = McConfig(geometry, model, trials=int(mc_cfg["trials"]),
                      seed=int(mc_cfg["seed"]), rho=rho, event=mc_cfg.get("event", "joint"))
        est = run_escape_isolation(mc) if rho is not None else run_transport(mc).estimate
        row["mc_p_hat"] = est.p_hat
        row["mc_std_err"] = est.std_err
    return row


def run_experiment(source, output_path=None) -> tuple:
    """Execute a sweep config; returns (rows, csv_path).

    The whole config is checked before the first row: a missing or unknown
    key, or an invalid channel or ``rho``, raises ConfigError. A row whose
    layout or computation fails at its sweep value, a swept alpha included,
    is written with an ``error:`` status instead. A row whose layout derives
    no closed form keeps its other columns, with ``mass_closed`` NaN and the
    reason in a ``no closed form:`` status.
    """
    cfg = load_config(source) if isinstance(source, (str, Path)) else source
    if cfg.get("schema", "keyhole-config-v1") != "keyhole-config-v1":
        raise ConfigError(f"unsupported config schema: {cfg.get('schema')!r}")
    geometry = _parse_geometry(cfg)
    param, values = _validate_sweep(cfg, geometry)
    channel = _require(cfg, "channel")
    for key in ("K", "beta") if param == "alpha" else ("K", "beta", "alpha"):
        _require(channel, key)
    # the channel's fields are ChannelModel's; a swept alpha is checked row by row
    try:
        ChannelModel(**{**channel, "alpha": 1.0} if param == "alpha" else channel)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"channel: {exc}") from exc
    mc = cfg.get("mc", {})
    for key in ("trials", "seed") if mc.get("enabled") else ():
        _require(mc, key)
    rho = _require(cfg, "rho") if geometry.domain_measure() is not None else None
    if rho is not None and not (isinstance(rho, (int, float)) and 0.0 <= rho < math.inf):
        raise ConfigError(f"rho must be a finite number >= 0, got {rho!r}")

    rows = []
    for value in values:
        try:
            rows.append(_sweep_row(cfg, geometry, rho, param, value))
        except (ConfigError, KeyboardInterrupt):
            raise
        except Exception as exc:  # numerical failure: flag the row, keep going
            rows.append({"sweep_param": param, "value": value,
                         "mass_closed": math.nan, "mass_quadrature": math.nan,
                         "isolation_analytic": math.nan, "mc_p_hat": math.nan,
                         "mc_std_err": math.nan, "trials": 0, "seed": 0,
                         "status": f"error: {exc}"})

    if output_path is None:
        name = cfg.get("output")
        if name is None:
            base = source if isinstance(source, str) and "/" not in str(source) else "results"
            name = f"{base}.csv"
        output_path = output_dir() / name
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_SCHEMA, ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in CSV_COLUMNS))
    output_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows, output_path


def _cmd_run(args) -> int:
    try:
        rows, path = run_experiment(args.config, args.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    bad = sum(1 for r in rows if r["status"] != "ok")
    print(f"wrote {len(rows)} rows to {path}" + (f" ({bad} flagged)" if bad else ""))
    return 0


def _cmd_fit_marcum(args) -> int:
    mode = "fixed_two" if args.fixed_two else "free"
    try:
        fit = fit_exponential_approx(float(args.k), mode)
    except Exception as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"K": float(args.k), "mode": mode, "a": fit.a_parameter,
                      "nu": fit.nu, "mu": fit.mu, "nu2": fit.nu2,
                      "sup_error": fit.sup_error}, sort_keys=True))
    return 0


def _cmd_presets(args) -> int:
    if args.action == "list":
        for name in presets_mod.preset_names():
            cfg = presets_mod.get_preset(name)
            sweep = cfg["sweep"]
            mc = "mc" if cfg.get("mc", {}).get("enabled") else "analytic"
            print(f"{name:8s} {cfg['scenario']:9s} sweep={sweep['parameter']:10s} "
                  f"points={len(sweep['values']):3d} {mc}")
        return 0
    if args.name is None:
        print("preset name required for 'show'", file=sys.stderr)
        return 2
    try:
        print(json.dumps(presets_mod.get_preset(args.name), indent=2))
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_trace(args) -> int:
    try:
        geometry = _parse_geometry(load_config(args.geometry))
        # the angle tilts the ray from the wall normal, the last coordinate, toward +x
        sin, cos = math.sin(args.angle), math.cos(args.angle)
        direction = (sin, *[0.0] * (len(args.origin) - 2), cos)
        path = trace_ray(geometry, args.origin, direction, args.max_reflections)
    except ValueError as exc:  # a ConfigError or a bad origin
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"points": [list(p) for p in path.points],
                      "reflections": path.reflections,
                      "length": path.length,
                      "stopped": path.stopped}, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="keyhole",
        description="Connectivity analysis for wall-gap coupled wireless layouts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep config (file or preset)")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None, help="CSV output path")
    p_run.set_defaults(func=_cmd_run)

    p_fit = sub.add_parser("fit-marcum",
                           help="fit the exponential surrogate and print it as JSON")
    p_fit.add_argument("--k", type=float, required=True)
    p_fit.add_argument("--fixed-two", action="store_true")
    p_fit.set_defaults(func=_cmd_fit_marcum)

    p_pre = sub.add_parser("presets", help="list or show bundled configs")
    p_pre.add_argument("action", choices=["list", "show"])
    p_pre.add_argument("name", nargs="?")
    p_pre.set_defaults(func=_cmd_presets)

    p_tr = sub.add_parser("trace", help="ray-trace a geometry")
    p_tr.add_argument("--geometry", required=True, help="config file or preset")
    p_tr.add_argument("--origin", type=float, nargs="+", required=True)
    p_tr.add_argument("--angle", type=float, required=True,
                      help="angle from vertical, radians")
    p_tr.add_argument("--max-reflections", type=int, default=8)
    p_tr.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
