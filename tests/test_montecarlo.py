import dataclasses
import math

import numpy as np
import pytest

from keyhole import cli, montecarlo, presets
from keyhole.channel import make_channel_model
from keyhole.escape3d import mass3d_numeric
from keyhole.geometry2d import Geometry2D
from keyhole.mass2d import mass_numeric
from keyhole.montecarlo import (McConfig, link_probability_table,
                                run_escape_isolation, run_full_connectivity)


def preset_point(name, alpha):
    cfg = presets.get_preset(name)
    ch = cfg["channel"]
    model = make_channel_model(K=ch["K"], beta=ch["beta"], eta=ch["eta"],
                               alpha=alpha, C=ch["C"])
    return cfg, cli._build_geometry(cfg), model


def split_interior_config(trials=200):
    # a wide gap and a sparse interior: 22 of the 200 trials have a split
    # interior graph, and node 0 bridges it in one of them
    geometry = Geometry2D(w=20.0, L=100.0, eps=2.0, gap_center_x=50.0,
                          x0=50.0, y0=-1.0)
    model = make_channel_model(K=4.0, beta=0.01, alpha=0.75, C=6)
    return McConfig("escape2d", geometry, model, trials=trials, seed=13, n=80)


# (isolated, joint, full) counts pin the random streams and the event logic
def test_escape_counts_pinned_2d_joint():
    _, geometry, model = preset_point("fig4", 0.5)
    cfg = McConfig("escape2d", geometry, model, trials=60, seed=11, n=60)
    assert montecarlo._escape_counts(cfg, True) == (19, 19, 41)


def test_escape_counts_pinned_split_interior():
    assert montecarlo._escape_counts(split_interior_config(), True) == (6, 5, 174)


def test_escape_counts_pinned_3d_isolated():
    _, geometry, model = preset_point("fig9", 0.75)
    cfg = McConfig("escape3d", geometry, model, trials=60, seed=12, n=2000,
                   event="isolated_only")
    assert montecarlo._escape_counts(cfg, False)[0] == 35


def test_run_functions_report_kernel_counts():
    cfg = split_interior_config()
    assert run_escape_isolation(cfg).event_count == 5
    assert run_full_connectivity(cfg).event_count == 174
    cfg.event = "isolated_only"
    est = run_escape_isolation(cfg)
    assert est.event_count == 6
    assert est.p_hat == pytest.approx(6 / 200)


def test_single_node_full_connectivity_is_not_isolated():
    # with one interior node the graph is connected exactly when node 0 links
    cfg = split_interior_config(trials=300)
    cfg.n = 1
    iso, joint, full = montecarlo._escape_counts(cfg, True)
    assert iso == joint
    assert iso + full == 300
    assert 0 < full < 300


def test_empty_interior_counts_every_event():
    cfg = split_interior_config(trials=7)
    cfg.n = 0
    assert montecarlo._escape_counts(cfg, True) == (7, 7, 7)


@pytest.mark.parametrize("name, scenario, trials, mass_fn", [
    ("fig4", "escape2d", 2000, mass_numeric),
    ("fig9", "escape3d", 1000, mass3d_numeric),
])
def test_isolation_matches_analytic(name, scenario, trials, mass_fn):
    cfg, geometry, model = preset_point(name, 0.5)
    p = math.exp(-cfg["rho"] * mass_fn(geometry, model).total)
    est = run_escape_isolation(McConfig(
        scenario, geometry, model, trials=trials, seed=cfg["mc"]["seed"],
        rho=cfg["rho"], event="isolated_only"))
    assert abs(est.p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)


def test_left_only_isolation_matches_analytic():
    # the right cone is closed, so about twice as many trials stay isolated
    # as with both cones open (0.166)
    cfg, geometry, model = preset_point("fig4", 0.5)
    geometry = dataclasses.replace(geometry, sides="left_only")
    rho, trials = 0.05, 3000
    p = math.exp(-rho * mass_numeric(geometry, model).total)
    est = run_escape_isolation(McConfig("escape2d", geometry, model, trials=trials,
                                        seed=3, rho=rho, event="isolated_only"))
    assert p == pytest.approx(0.4071, abs=1e-4)
    assert abs(est.p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)


def test_link_table_shared_and_read_only():
    a = make_channel_model(K=4.0, beta=1e-3, alpha=0.5, C=6)
    b = make_channel_model(K=4.0, beta=1e-2, alpha=0.9, C=6)
    tab, inv_step = link_probability_table(a)
    assert link_probability_table(b)[0] is tab
    assert not tab.flags.writeable
    with pytest.raises(ValueError):
        tab[0] = 0.0
    assert tab[0] == pytest.approx(1.0)
    assert inv_step == pytest.approx((tab.size - 1) / (a.a_parameter + 14.0))
    other = link_probability_table(make_channel_model(K=8.0, beta=1e-3,
                                                      alpha=0.5, C=6))[0]
    assert other is not tab
    assert not np.array_equal(other, tab)
