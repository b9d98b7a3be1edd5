"""Bundled sweep configurations for the reference scenarios.

Each preset is a complete experiment config (JSON-compatible dict). Names
follow the fig* convention used across the test suite and docs.
"""

from __future__ import annotations

import copy

import numpy as np


def _grid(lo: float, hi: float, n: int) -> list:
    return [round(float(v), 10) for v in np.linspace(lo, hi, n)]


_ESCAPE2D_BASE = {
    "schema": "keyhole-config-v1",
    "scenario": "escape2d",
    "geometry": {"w": 20.0, "L": 100.0, "eps": 0.3, "gap_center_x": 50.0,
                 "x0": 50.0, "y0": -2.0},
    "channel": {"K": 4.0, "beta": 1e-3, "eta": 2.0, "alpha": 0.75, "C": 6},
    "rho": 0.1,
    "sides": "both",
    "mc": {"enabled": True, "trials": 10000, "seed": 20240901, "event": "joint"},
}

_ESCAPE3D_BASE = {
    "schema": "keyhole-config-v1",
    "scenario": "escape3d",
    "geometry": {"w": 20.0, "L": 100.0, "gap_radius": 0.1,
                 "gap_center": [50.0, 50.0], "x0": 50.0, "y0": 50.0,
                 "z0": -2.0},
    "channel": {"K": 4.0, "beta": 1e-3, "eta": 2.0, "alpha": 0.75, "C": 6},
    "rho": 0.1,
    "mc": {"enabled": True, "trials": 10000, "seed": 20240902,
           "event": "isolated_only"},
}

PRESETS = {
    "fig4": {
        **copy.deepcopy(_ESCAPE2D_BASE),
        "sweep": {"parameter": "alpha", "values": _grid(0.5, 1.0, 11)},
    },
    "fig5": {
        **copy.deepcopy(_ESCAPE2D_BASE),
        "channel": {"K": 4.0, "beta": 1e-3, "eta": 2.0, "alpha": 0.6, "C": 6},
        "sweep": {"parameter": "y0", "values": _grid(-4.0, -1.0, 7)},
    },
    "fig6": {
        **copy.deepcopy(_ESCAPE2D_BASE),
        "geometry": {"w": 15.0, "L": 100.0, "eps": 0.3, "gap_center_x": 50.0,
                     "x0": 50.0, "y0": -2.0},
        "sweep": {"parameter": "alpha", "values": _grid(0.5, 1.0, 11)},
    },
    "fig7": {
        **copy.deepcopy(_ESCAPE2D_BASE),
        "sweep": {"parameter": "eps", "values": _grid(0.1, 0.5, 9)},
    },
    "fig9": {
        **copy.deepcopy(_ESCAPE3D_BASE),
        "rho": 0.08,
        "sweep": {"parameter": "alpha", "values": _grid(0.5, 1.0, 11)},
    },
    "fig10": {
        **copy.deepcopy(_ESCAPE3D_BASE),
        "sweep": {"parameter": "alpha", "values": _grid(0.5, 1.0, 11)},
    },
    "fig11": {
        **copy.deepcopy(_ESCAPE3D_BASE),
        "sweep": {"parameter": "gap_radius", "values": _grid(0.05, 0.5, 10)},
    },
    "fig12": {
        **copy.deepcopy(_ESCAPE3D_BASE),
        "sweep": {"parameter": "z0", "values": _grid(-4.0, -0.5, 8)},
    },
    "fig13": {
        "schema": "keyhole-config-v1",
        "scenario": "transport",
        "geometry": {"w": 10.0, "L": 100.0, "case": "opposite",
                     "x_l1": 15.0, "x_l2": 15.3, "x_u1": 14.5, "x_u2": 14.8,
                     "node0": [15.15, -2.0], "node1": [14.65, 12.0]},
        "channel": {"K": 4.0, "beta": 1e-3, "eta": 2.0, "alpha": 0.85, "C": 6},
        "sweep": {"parameter": "w", "values": [10.0, 15.0, 20.0]},
        "mc": {"enabled": False, "trials": 10000, "seed": 20240903},
    },
    "fig14": {
        "schema": "keyhole-config-v1",
        "scenario": "transport",
        "geometry": {"w": 10.0, "L": 100.0, "case": "opposite",
                     "x_l1": 15.0, "x_l2": 15.3, "x_u1": 14.5, "x_u2": 14.8,
                     "node0": [15.15, -2.0], "node1": [14.65, 12.0]},
        "channel": {"K": 4.0, "beta": 1e-3, "eta": 2.0, "alpha": 0.85, "C": 6},
        "sweep": {"parameter": "eps", "values": _grid(0.1, 0.5, 9)},
        "mc": {"enabled": False, "trials": 10000, "seed": 20240903},
    },
    "fig15": {
        "schema": "keyhole-config-v1",
        "scenario": "transport",
        "geometry": {"w": 10.0, "L": 100.0, "case": "opposite",
                     "x_l1": 15.0, "x_l2": 15.3, "x_u1": 14.5, "x_u2": 14.8,
                     "node0": [15.15, -2.0], "node1": [14.65, 12.0]},
        "channel": {"K": 4.0, "beta": 1e-3, "eta": 2.0, "alpha": 0.85, "C": 6},
        "sweep": {"parameter": "y0", "values": _grid(-3.0, -0.5, 6)},
        "mc": {"enabled": False, "trials": 10000, "seed": 20240903},
    },
}


def preset_names() -> list:
    return sorted(PRESETS)


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset: {name!r}")
    return copy.deepcopy(PRESETS[name])
