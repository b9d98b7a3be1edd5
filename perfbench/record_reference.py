"""Record the analytic reference values that the benchmark checks against.

Run once at the commit whose outputs define "correct":

    python3 perfbench/record_reference.py

It rewrites the ``presets``, ``fig4_full_connectivity`` and
``averaged_connect_prob`` entries of ``perfbench/reference.json`` and keeps
every other entry. NaN (a row flagged at that commit) is stored as null.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from keyhole import cli, transport  # noqa: E402


def _num(x):
    return None if isinstance(x, float) and math.isnan(x) else x


def dumps(data: dict) -> str:
    """Indented JSON with each innermost list on one line."""
    text = json.dumps(data, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]",
                  text) + "\n"


def main() -> int:
    out_dir = ROOT / "perfbench" / "out" / "csv"
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep = workloads.AnalyticSweep(0, False, out_dir, {})
    sweep.setup()
    presets = {}
    for name, cfg in sweep.configs.items():
        rows, _ = cli.run_experiment(cfg, out_dir / f"{name}.csv")
        presets[name] = [[r["value"], _num(r["mass_closed"]), _num(r["mass_quadrature"])]
                         for r in rows]
    fc = [[alpha, workloads.mass2d.full_connectivity_first_order(
              sweep.fc_geometry, model, sweep.fc_inputs).p_fc]
          for alpha, model in sweep.fc_models]
    avg = workloads.TransportAverage(0, False, out_dir, {})
    avg.setup()
    n_outer, n_inner = workloads.TRANSPORT_ORDER
    p_avg = transport.averaged_connect_prob(
        avg.geometry, avg.model, workloads.TRANSPORT_BOX0, workloads.TRANSPORT_BOX1,
        n_outer=n_outer, n_inner=n_inner)

    path = workloads.REFERENCE_PATH
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update(presets=presets, fig4_full_connectivity=fc, averaged_connect_prob=p_avg)
    path.write_text(dumps(data))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
