import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# analytic set-up, one isolated-only MC run, one transport average and one
# transport MC run, then one joint MC run; prints the heavy SciPy modules
# loaded after each stage
SCRIPT = """
import json, sys
from keyhole import (Geometry2D, McConfig, TransportGeometry, averaged_connect_prob,
                     make_channel_model, run_escape_isolation, run_transport)
from keyhole.montecarlo import link_probability_table

HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.stats", "scipy.sparse.csgraph")

def loaded():
    return [m for m in HEAVY if m in sys.modules]

model = make_channel_model(K=4.0, beta=1e-3, alpha=0.5, C=6)
link_probability_table(model)
g = Geometry2D(w=20.0, L=100.0, eps=0.3, gap_center_x=50.0, x0=50.0, y0=-2.0)
cfg = McConfig(g, model, trials=20, seed=11, rho=0.03, event="isolated_only")
isolated = run_escape_isolation(cfg).event_count
tg = TransportGeometry(w=10.0, L=100.0, case="opposite", x_l1=15.0, x_l2=15.3,
                       x_u1=14.5, x_u2=14.8, node0=(15.15, -2.0), node1=(14.65, 12.0))
averaged_connect_prob(tg, model, (15.0, 15.3, -2.1, -1.9), (14.5, 14.8, 12.0, 14.0),
                      n_outer=2, n_inner=2)
run_transport(McConfig(tg, model, trials=300, seed=11, region0=(15.0, 15.3, -2.1, -1.9),
                       region1=(14.5, 14.8, 12.0, 14.0)))
before = loaded()
cfg.event = "joint"
run_escape_isolation(cfg)
print(json.dumps({"isolated": isolated, "before": before, "after": loaded()}))
"""


def test_heavy_scipy_modules_load_only_where_a_graph_is_built():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, encoding="utf-8", timeout=120, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    # at import, scipy.optimize adds about 24 MB of peak RSS and scipy.stats 46 MB
    assert out["before"] == []
    # the joint event builds the pair graph in trials with node 0 isolated
    assert out["isolated"] > 0
    assert "scipy.sparse.csgraph" in out["after"]
