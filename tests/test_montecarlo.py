import dataclasses
import math

import numpy as np
import pytest
from scipy.sparse import csgraph

from keyhole import _kernels, cli, montecarlo, presets
from keyhole.channel import make_channel_model
from keyhole.escape3d import Geometry3D, mass3d_numeric
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


def event_counts(cfg):
    return tuple(montecarlo._escape_counts(cfg, e) for e in _kernels.EVENTS)


# (isolated, joint, full) counts pin the random streams and the event logic
def test_escape_counts_pinned_2d_joint():
    _, geometry, model = preset_point("fig4", 0.5)
    cfg = McConfig("escape2d", geometry, model, trials=60, seed=11, n=60)
    assert event_counts(cfg) == (19, 19, 41)


def test_escape_counts_pinned_split_interior():
    assert event_counts(split_interior_config()) == (6, 5, 174)


def test_escape_counts_pinned_3d_isolated():
    _, geometry, model = preset_point("fig9", 0.75)
    cfg = McConfig("escape3d", geometry, model, trials=60, seed=12, n=2000,
                   event="isolated_only")
    assert montecarlo._escape_counts(cfg, "isolated_only") == 35


def reach_layouts():
    # layouts where the kernel's reach bound prunes differently: one open
    # cone, a lopsided node 0, a cone across most of the strip, a reflection
    # cap below C and a wide 3-D gap
    _, fig4, fig4_model = preset_point("fig4", 0.5)
    wide_model = make_channel_model(K=4.0, beta=0.01, alpha=0.75, C=6)
    yield McConfig("escape2d", dataclasses.replace(fig4, sides="left_only"),
                   fig4_model, trials=60, seed=21, n=60)
    yield McConfig("escape2d", dataclasses.replace(fig4, x0=fig4.gap_left + 0.01),
                   fig4_model, trials=60, seed=22, n=60)
    yield McConfig("escape2d", Geometry2D(w=10.0, L=100.0, eps=2.0, gap_center_x=50.0,
                                          x0=50.0, y0=-1.5),
                   wide_model, trials=100, seed=23, n=40)
    yield McConfig("escape2d", Geometry2D(w=20.0, L=100.0, eps=2.0, gap_center_x=50.0,
                                          x0=50.0, y0=-1.0),
                   wide_model, trials=200, seed=24, n=80, c_max=2)
    yield McConfig("escape3d", Geometry3D(w=10.0, L=100.0, gap_radius=1.0,
                                          gap_center=(50.0, 50.0), x0=50.0, y0=50.0,
                                          z0=-2.0),
                   make_channel_model(K=4.0, beta=1e-2, alpha=0.75, C=6),
                   trials=40, seed=25, n=400)


# counts of a kernel that draws every coordinate and every pair graph
@pytest.mark.parametrize("cfg, counts", zip(reach_layouts(), [
    (40, 40, 20), (18, 18, 42), (12, 4, 50), (10, 10, 166), (14, 9, 23),
]), ids=["left_only", "off_centre", "wide_gap", "c_max_2", "3d_wide_gap"])
def test_escape_counts_pinned_reach_layouts(cfg, counts):
    assert event_counts(cfg) == counts


@pytest.mark.parametrize("c_max", [0, 1, 2, 6])
def test_cone_reach_bounds_every_classified_node(c_max):
    w, depth, tan_t = 20.0, 2.0, 0.075
    reach = _kernels.cone_reach(w, depth, tan_t, c_max)
    rng = np.random.default_rng(c_max)
    adx = rng.uniform(0.0, 2.0 * reach, 20000)
    v = rng.uniform(0.0, w, adx.size)
    # the far corner of D_c_max, just inside it: the top wall image for even
    # c_max, the bottom one for odd
    corner = ((c_max + 1) * w + depth) * tan_t * (1.0 - 1e-12)
    adx = np.append(adx, corner)
    v = np.append(v, w if c_max % 2 == 0 else 0.0)
    c_sel, _, _ = _kernels._classify_np(adx, v, depth, w, tan_t, c_max)
    assert c_sel[-1] == c_max
    assert adx[c_sel >= 0].max() <= reach
    assert (c_sel >= 0).sum() > 1000


def test_pair_graph_built_only_where_the_event_needs_it(monkeypatch):
    calls = []
    components = csgraph.connected_components

    def counting(*args, **kwargs):
        calls.append(1)
        return components(*args, **kwargs)

    # escape_trials looks it up on scipy.sparse.csgraph where it builds a graph
    monkeypatch.setattr(csgraph, "connected_components", counting)
    cfg = split_interior_config()
    iso = montecarlo._escape_counts(cfg, "isolated_only")
    assert len(calls) == 0
    montecarlo._escape_counts(cfg, "joint")
    assert len(calls) == iso == 6
    montecarlo._escape_counts(cfg, "full")
    assert len(calls) == iso + cfg.trials


def test_unknown_event_rejected():
    with pytest.raises(ValueError, match="unknown event"):
        montecarlo._escape_counts(split_interior_config(trials=1), "partial")
    with pytest.raises(ValueError, match="unknown event"):
        dataclasses.replace(split_interior_config(trials=1), event="partial")


def test_run_functions_report_kernel_counts():
    cfg = split_interior_config()
    assert run_escape_isolation(cfg).event_count == 5
    assert run_full_connectivity(cfg).event_count == 174
    # McConfig takes every kernel event: "full" counts what
    # run_full_connectivity counts
    assert run_escape_isolation(dataclasses.replace(cfg, event="full")).event_count == 174
    cfg.event = "isolated_only"
    est = run_escape_isolation(cfg)
    assert est.event_count == 6
    assert est.p_hat == pytest.approx(6 / 200)


def test_single_node_full_connectivity_is_not_isolated():
    # with one interior node the graph is connected exactly when node 0 links
    cfg = split_interior_config(trials=300)
    cfg.n = 1
    iso, joint, full = event_counts(cfg)
    assert iso == joint
    assert iso + full == 300
    assert 0 < full < 300


def test_empty_interior_counts_every_event():
    cfg = split_interior_config(trials=7)
    cfg.n = 0
    assert event_counts(cfg) == (7, 7, 7)


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


@pytest.mark.parametrize("name, scenario, rho, trials, mass_fn", [
    ("fig4", "escape2d", 0.1, 4000, mass_numeric),
    ("fig9", "escape3d", 0.08, 2000, mass3d_numeric),
])
def test_isolation_matches_analytic_eta3(name, scenario, rho, trials, mass_fn):
    # eta = 3: node-0 and pair links take the table at b_c r^(3/2)
    cfg = presets.get_preset(name)
    model = make_channel_model(K=cfg["channel"]["K"], beta=1e-4, eta=3.0,
                               alpha=0.75, C=cfg["channel"]["C"])
    geometry = cli._build_geometry(cfg)
    p = math.exp(-rho * mass_fn(geometry, model).total)
    est = run_escape_isolation(McConfig(scenario, geometry, model, trials=trials,
                                        seed=cfg["mc"]["seed"], rho=rho,
                                        event="isolated_only"))
    assert 0.01 < p < 0.99
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
