"""Parity record: the outputs a behaviour-preserving change must keep bit for bit.

Run from the root of a source checkout; keyhole is imported from its ``src/``:

    python tools/parity.py --out parity.json

Run it on two checkouts and compare the two files (``cmp a.json b.json``).
The record holds:

- the SHA-256 of every preset CSV with Monte Carlo off, and of fig4 and fig9
  with it on, as the presets set it;
- ``averaged_connect_prob`` on the opposite-gap boxes (as a float hex) and the
  per-count ``run_transport`` tallies there (seed 1, 400k trials);
- the escape event counts of every pinned Monte Carlo configuration of the
  tests (some also at alpha = 0), and of one off-axis 3-D run;
- every ``full_connectivity_first_order`` field (floats as hex) at fig4's
  alpha values;
- NumPy's version and the SIMD features it detects on this CPU, since
  last-bit rounding can follow the loop NumPy dispatches to.

It takes about 12 s on one core and writes nothing outside ``--out`` and a
temporary directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from keyhole import _kernels, cli, montecarlo, presets, transport  # noqa: E402
from keyhole.channel import make_channel_model  # noqa: E402
from keyhole.escape3d import Geometry3D  # noqa: E402
from keyhole.geometry2d import Geometry2D  # noqa: E402
from keyhole.mass2d import ClusterInputs, full_connectivity_first_order  # noqa: E402
from keyhole.montecarlo import McConfig  # noqa: E402

TRANSPORT_BOX0 = (15.0, 15.3, -0.6, -0.4)
TRANSPORT_BOX1 = (14.5, 14.8, 12.0, 14.0)


def preset_csv_digests(out_dir: Path) -> dict:
    digests = {}
    runs = [(name, False) for name in presets.preset_names()]
    runs += [("fig4", True), ("fig9", True)]
    for name, mc_on in runs:
        cfg = presets.get_preset(name)
        if not mc_on:
            cfg["mc"]["enabled"] = False
        label = f"{name}_mc" if mc_on else name
        _, path = cli.run_experiment(cfg, out_dir / f"{label}.csv")
        digests[label] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def transport_record() -> dict:
    tg = transport.TransportGeometry(w=10.0, L=100.0, case="opposite", x_l1=15.0,
                                     x_l2=15.3, x_u1=14.5, x_u2=14.8,
                                     node0=(15.15, -0.5), node1=(14.65, 12.0))
    model = make_channel_model(K=4.0, beta=1e-3, alpha=0.85, C=6)
    p_avg = transport.averaged_connect_prob(tg, model, TRANSPORT_BOX0, TRANSPORT_BOX1,
                                            n_outer=12, n_inner=24)
    est = montecarlo.run_transport(McConfig(tg, model, trials=400_000, seed=1,
                                            region0=TRANSPORT_BOX0,
                                            region1=TRANSPORT_BOX1))
    return {"averaged_connect_prob": float(p_avg).hex(),
            "run_transport_attempts": list(est.per_c_attempts),
            "run_transport_connects": list(est.per_c_connects)}


def preset_point(name: str, alpha: float):
    cfg = presets.get_preset(name)
    ch = cfg["channel"]
    model = make_channel_model(K=ch["K"], beta=ch["beta"], eta=ch["eta"],
                               alpha=alpha, C=ch["C"])
    return cli._parse_geometry(cfg), model


def pinned_configs():
    """(label, config, events) of each escape count pin."""
    fig4, fig4_model = preset_point("fig4", 0.5)
    fig9, fig9_model = preset_point("fig9", 0.75)
    wide = make_channel_model(K=4.0, beta=0.01, alpha=0.75, C=6)
    strip = Geometry2D(w=20.0, L=100.0, eps=2.0, gap_center_x=50.0, x0=50.0, y0=-1.0)
    split = McConfig(strip, wide, trials=200, seed=13, rho=0.04)
    left_only = McConfig(dataclasses.replace(fig4, sides="left_only"), fig4_model,
                         trials=60, seed=21, rho=0.03)
    all_events = _kernels.EVENTS
    pins = [
        ("2d_joint", McConfig(fig4, fig4_model, trials=60, seed=11, rho=0.03), all_events),
        ("split_interior", split, all_events),
        ("3d_isolated", McConfig(fig9, fig9_model, trials=60, seed=12, rho=0.01),
         ("isolated_only",)),
        ("left_only", left_only, all_events),
        ("off_centre", McConfig(dataclasses.replace(fig4, x0=fig4.gap_left + 0.01),
                                fig4_model, trials=60, seed=22, rho=0.03), all_events),
        ("wide_gap", McConfig(Geometry2D(w=10.0, L=100.0, eps=2.0, gap_center_x=50.0,
                                         x0=50.0, y0=-1.5),
                              wide, trials=100, seed=23, rho=0.04), all_events),
        ("c_max_2", McConfig(strip, make_channel_model(K=4.0, beta=0.01, alpha=0.75, C=2),
                             trials=200, seed=24, rho=0.04), all_events),
        ("3d_wide_gap", McConfig(Geometry3D(w=10.0, L=100.0, gap_radius=1.0,
                                            gap_center=(50.0, 50.0), x0=50.0, y0=50.0,
                                            z0=-2.0),
                                 wide, trials=40, seed=25, rho=0.004), all_events),
        ("3d_off_axis", McConfig(Geometry3D(w=10.0, L=100.0, gap_radius=1.0,
                                            gap_center=(50.0, 50.0), x0=50.6, y0=49.8,
                                            z0=-2.0),
                                 wide, trials=400, seed=26, rho=0.004), ("isolated_only",)),
    ]
    reflected = make_channel_model(K=4.0, beta=0.01, alpha=0.9, C=4)
    reflected_2d = McConfig(Geometry2D(w=6.0, L=40.0, eps=2.0, gap_center_x=20.0,
                                       x0=20.3, y0=-1.0),
                            reflected, trials=60, seed=32, rho=0.05)
    reflected_3d = McConfig(Geometry3D(w=6.0, L=30.0, gap_radius=1.0,
                                       gap_center=(15.0, 15.0), x0=15.5, y0=14.8, z0=-1.0),
                            reflected, trials=40, seed=42, rho=0.005)
    pins += [("reflected_2d", reflected_2d, all_events),
             ("reflected_3d_off_axis", reflected_3d, all_events)]
    for label, cfg in (("split_interior", split), ("left_only", left_only),
                       ("reflected_2d", reflected_2d),
                       ("reflected_3d_off_axis", reflected_3d)):
        pins.append((f"{label}_alpha0", dataclasses.replace(
            cfg, channel=dataclasses.replace(cfg.channel, alpha=0.0)), all_events))
    return pins


def escape_pins() -> dict:
    return {label: [montecarlo._escape_counts(dataclasses.replace(cfg, event=e))
                    for e in events]
            for label, cfg, events in pinned_configs()}


def full_connectivity_fields() -> dict:
    cfg = presets.get_preset("fig4")
    geometry = cli._parse_geometry(cfg)
    inputs = ClusterInputs(rho=cfg["rho"], V=geometry.w * geometry.L)
    fields = {}
    for alpha in cfg["sweep"]["values"]:
        _, model = preset_point("fig4", alpha)
        fc = full_connectivity_first_order(geometry, model, inputs)
        fields[repr(alpha)] = {k: (v.hex() if isinstance(v, float) else v)
                               for k, v in dataclasses.asdict(fc).items()}
    return fields


def simd_features() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                     # NumPy < 2
        from numpy.core import _multiarray_umath as umath
    return {"detected": sorted(k for k, on in umath.__cpu_features__.items() if on),
            "baseline": list(umath.__cpu_baseline__),
            "dispatch": list(umath.__cpu_dispatch__)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON record")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        csvs = preset_csv_digests(Path(tmp))
    record = {
        "preset_csv_sha256": csvs,
        "transport": transport_record(),
        "escape_pins": escape_pins(),
        "fig4_full_connectivity": full_connectivity_fields(),
        "numpy": np.__version__,
        "simd": simd_features(),
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
