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
from .channel import make_channel_model
from .escape3d import Geometry3D, mass3d_closed_form, mass3d_numeric
from .geometry2d import Geometry2D
from .mass2d import mass_closed_form, mass_numeric
from .montecarlo import McConfig, run_escape_isolation, run_transport, trace_ray
from .specfun import fit_exponential_approx
from .transport import TransportGeometry, transport_mass

CSV_SCHEMA = "# keyhole-results v1"
CSV_COLUMNS = ("sweep_param", "value", "mass_closed", "mass_quadrature",
               "isolation_analytic", "mc_p_hat", "mc_std_err", "trials",
               "seed", "status")
# the values a sweep can set, per scenario: a key the geometry never reads is an error
SWEEP_PARAMETERS = {
    "escape2d": ("alpha", "eps", "w", "y0"),
    "escape3d": ("alpha", "gap_radius", "w", "y0", "z0"),
    "transport": ("alpha", "eps", "w", "y0"),
}


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
            with open(path) as fh:
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


def _validate_sweep(cfg: dict) -> tuple:
    sweep = _require(cfg, "sweep")
    param = _require(sweep, "parameter")
    values = _require(sweep, "values")
    scenario = cfg["scenario"]
    if scenario not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown scenario: {scenario!r}")
    if param not in SWEEP_PARAMETERS[scenario]:
        raise ConfigError(f"sweep.parameter of a {scenario} config must be one of "
                          f"{list(SWEEP_PARAMETERS[scenario])}")
    if not values:
        raise ConfigError("sweep.values must be non-empty")
    diffs = [b - a for a, b in zip(values, values[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ConfigError("sweep.values must be strictly monotone")
    return param, list(values)


def _apply_sweep(cfg: dict, param: str, value: float) -> dict:
    out = json.loads(json.dumps(cfg))
    geo = out["geometry"]
    transport = out["scenario"] == "transport"
    if param == "alpha":
        out["channel"]["alpha"] = value
    elif param == "eps" and transport:
        # both gaps resized in place from their left edges, nodes kept centred
        lo, hi = ("x_u1", "x_u2") if geo["case"] == "opposite" else ("x_l3", "x_l4")
        geo["x_l2"] = geo["x_l1"] + value
        geo[hi] = geo[lo] + value
        geo["node0"][0] = geo["x_l1"] + value / 2.0
        geo["node1"][0] = geo[lo] + value / 2.0
    elif param == "y0" and transport:
        geo["node0"][1] = value
    elif param == "w" and transport:
        # a node beyond the upper wall keeps its height above that wall
        if geo["case"] == "opposite":
            geo["node1"][1] = value + (geo["node1"][1] - geo["w"])
        geo["w"] = value
    else:
        geo[param] = value
    return out


def _build_geometry(cfg: dict):
    scenario = cfg["scenario"]
    geo = dict(cfg["geometry"])
    if scenario == "escape2d":
        return Geometry2D(w=geo["w"], L=geo["L"], eps=geo["eps"],
                          gap_center_x=geo["gap_center_x"], x0=geo["x0"],
                          y0=geo["y0"], sides=cfg.get("sides", "both"))
    if scenario == "escape3d":
        return Geometry3D(w=geo["w"], L=geo["L"], gap_radius=geo["gap_radius"],
                          gap_center=tuple(geo["gap_center"]), x0=geo["x0"],
                          y0=geo["y0"], z0=geo["z0"])
    if scenario == "transport":
        return TransportGeometry(
            w=geo["w"], L=geo["L"], case=geo["case"], x_l1=geo["x_l1"],
            x_l2=geo["x_l2"], x_u1=geo.get("x_u1"), x_u2=geo.get("x_u2"),
            x_l3=geo.get("x_l3"), x_l4=geo.get("x_l4"),
            node0=tuple(geo["node0"]), node1=tuple(geo["node1"]))
    raise ConfigError(f"unknown scenario: {scenario!r}")


def _sweep_row(cfg: dict, param: str, value: float) -> dict:
    point = _apply_sweep(cfg, param, value)
    scenario = point["scenario"]
    ch = point["channel"]
    model = make_channel_model(K=ch["K"], beta=ch["beta"], eta=ch.get("eta", 2.0),
                               alpha=ch["alpha"], C=ch.get("C", 6))
    geometry = _build_geometry(point)
    mc_cfg = point.get("mc", {})
    row = {"sweep_param": param, "value": value, "mass_closed": math.nan,
           "mass_quadrature": math.nan, "isolation_analytic": math.nan,
           "mc_p_hat": math.nan, "mc_std_err": math.nan,
           "trials": int(mc_cfg.get("trials", 0)) if mc_cfg.get("enabled") else 0,
           "seed": int(mc_cfg.get("seed", 0)), "status": "ok"}

    if scenario == "escape2d":
        row["mass_closed"] = mass_closed_form(geometry, model).total
        row["mass_quadrature"] = mass_numeric(geometry, model).total
        row["isolation_analytic"] = math.exp(-point["rho"] * row["mass_quadrature"])
    elif scenario == "escape3d":
        row["mass_closed"] = mass3d_closed_form(geometry, model).total
        row["mass_quadrature"] = mass3d_numeric(geometry, model).total
        row["isolation_analytic"] = math.exp(-point["rho"] * row["mass_quadrature"])
    else:
        row["mass_closed"] = transport_mass(geometry, model, "expansion").total
        row["mass_quadrature"] = transport_mass(geometry, model).total

    if mc_cfg.get("enabled"):
        if scenario == "transport":
            mc = McConfig(scenario=scenario, geometry=geometry, channel=model,
                          trials=int(mc_cfg["trials"]), seed=int(mc_cfg["seed"]))
            est = run_transport(mc).estimate
        else:
            mc = McConfig(scenario=scenario, geometry=geometry, channel=model,
                          trials=int(mc_cfg["trials"]), seed=int(mc_cfg["seed"]),
                          rho=point["rho"], event=mc_cfg.get("event", "joint"))
            est = run_escape_isolation(mc)
        row["mc_p_hat"] = est.p_hat
        row["mc_std_err"] = est.std_err
    return row


def run_experiment(source, output_path=None) -> tuple:
    """Execute a sweep config; returns (rows, csv_path)."""
    cfg = load_config(source) if isinstance(source, (str, Path)) else source
    if cfg.get("schema", "keyhole-config-v1") != "keyhole-config-v1":
        raise ConfigError(f"unsupported config schema: {cfg.get('schema')!r}")
    _require(cfg, "scenario")
    _require(cfg, "geometry")
    _require(cfg, "channel")
    param, values = _validate_sweep(cfg)
    if cfg["scenario"] != "transport":
        _require(cfg, "rho")

    rows = []
    for value in values:
        try:
            rows.append(_sweep_row(cfg, param, value))
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
    output_path.write_text("\n".join(lines) + "\n")
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
        cfg = load_config(args.geometry)
        if cfg.get("scenario") == "transport":
            raise ConfigError("trace needs an escape geometry; transport has no tracer")
        geometry = _build_geometry(cfg)
        sin, cos = math.sin(args.angle), math.cos(args.angle)
        direction = (sin, cos) if isinstance(geometry, Geometry2D) else (sin, 0.0, cos)
        path = trace_ray(geometry, args.origin, direction, args.max_reflections)
    except ValueError as exc:  # a ConfigError, or an origin of the wrong length
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
