import dataclasses
import math

import numpy as np
import pytest
from scipy import special
from scipy.sparse import csgraph

from keyhole import _kernels, cli, montecarlo, presets
from keyhole.channel import make_channel_model
from keyhole.escape3d import Geometry3D
from keyhole.geometry2d import Geometry2D
from keyhole.mass2d import ClusterInputs, full_connectivity_first_order, mass
from keyhole.montecarlo import McConfig, link_probability_table, run_escape_isolation


def preset_point(name, alpha):
    cfg = presets.get_preset(name)
    ch = cfg["channel"]
    model = make_channel_model(K=ch["K"], beta=ch["beta"], eta=ch["eta"],
                               alpha=alpha, C=ch["C"])
    return cfg, cli._parse_geometry(cfg), model


def split_interior_config(trials=200):
    # a wide gap and a sparse interior: 22 of the 200 trials have a split
    # interior graph, and node 0 bridges it in one of them
    geometry = Geometry2D(w=20.0, L=100.0, eps=2.0, gap_center_x=50.0,
                          x0=50.0, y0=-1.0)
    model = make_channel_model(K=4.0, beta=0.01, alpha=0.75, C=6)
    return McConfig(geometry, model, trials=trials, seed=13, n=80)


def event_counts(cfg):
    return tuple(montecarlo._escape_counts(dataclasses.replace(cfg, event=e))
                 for e in _kernels.EVENTS)


# (isolated, joint, full) counts pin the random streams and the event logic
def test_escape_counts_pinned_2d_joint():
    _, geometry, model = preset_point("fig4", 0.5)
    cfg = McConfig(geometry, model, trials=60, seed=11, n=60)
    assert event_counts(cfg) == (19, 19, 41)


def test_escape_counts_pinned_split_interior():
    assert event_counts(split_interior_config()) == (6, 5, 174)


def test_escape_counts_pinned_3d_isolated():
    _, geometry, model = preset_point("fig9", 0.75)
    cfg = McConfig(geometry, model, trials=60, seed=12, n=2000,
                   event="isolated_only")
    assert montecarlo._escape_counts(cfg) == 35


def reach_layouts():
    # layouts where the kernel's reach bound prunes differently: one open
    # cone, a lopsided node 0, a cone across most of the strip, a reflection
    # cap below C and a wide 3-D gap
    _, fig4, fig4_model = preset_point("fig4", 0.5)
    wide_model = make_channel_model(K=4.0, beta=0.01, alpha=0.75, C=6)
    yield McConfig(dataclasses.replace(fig4, sides="left_only"),
                   fig4_model, trials=60, seed=21, n=60)
    yield McConfig(dataclasses.replace(fig4, x0=fig4.gap_left + 0.01),
                   fig4_model, trials=60, seed=22, n=60)
    yield McConfig(Geometry2D(w=10.0, L=100.0, eps=2.0, gap_center_x=50.0,
                                          x0=50.0, y0=-1.5),
                   wide_model, trials=100, seed=23, n=40)
    yield McConfig(Geometry2D(w=20.0, L=100.0, eps=2.0, gap_center_x=50.0,
                                          x0=50.0, y0=-1.0),
                   wide_model, trials=200, seed=24, n=80, c_max=2)
    yield McConfig(Geometry3D(w=10.0, L=100.0, gap_radius=1.0,
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
    iso = montecarlo._escape_counts(dataclasses.replace(cfg, event="isolated_only"))
    assert len(calls) == 0
    montecarlo._escape_counts(dataclasses.replace(cfg, event="joint"))
    assert len(calls) == iso == 6
    montecarlo._escape_counts(dataclasses.replace(cfg, event="full"))
    assert len(calls) == iso + cfg.trials


@pytest.mark.parametrize("lam", [0.3, 300.0])
def test_keyed_poisson_counts_have_mean_and_variance_lam(lam):
    # at 0.3, three trials in four draw no node
    trials = 20000
    bases = _kernels.trial_bases_np(7, np.arange(trials, dtype=np.uint64))
    u = _kernels.draws_np(bases, _kernels.STREAM_COUNTS, np.zeros(trials, dtype=np.uint64))
    k = _kernels.poisson_counts(u, lam)
    # each count is the least k whose CDF reaches its uniform
    assert np.all(special.pdtr(k, lam) >= u)
    assert np.all((k == 0) | (special.pdtr(np.maximum(k - 1, 0), lam) < u))
    assert abs(k.mean() - lam) <= 4.0 * math.sqrt(lam / trials)
    assert abs(k.var(ddof=1) - lam) <= 4.0 * math.sqrt((lam + 2.0 * lam * lam) / trials)
    # uniforms on the CDF's steps and just above them, where the rounding of
    # pdtrik decides and the fix-up must give k and k + 1
    steps = np.arange(int(lam + 6.0 * math.sqrt(lam)) + 1)
    cdf = special.pdtr(steps, lam)
    steps, cdf = steps[cdf < 1.0 - 1e-12], cdf[cdf < 1.0 - 1e-12]
    assert np.array_equal(_kernels.poisson_counts(cdf, lam), steps)
    assert np.array_equal(_kernels.poisson_counts(np.nextafter(cdf, 1.0), lam), steps + 1)


def block_layouts():
    split = split_interior_config(trials=60)
    yield split
    yield dataclasses.replace(split, n=None, rho=0.04)
    # a reach box inside the slab: c_max = 1 keeps it 11 from node 0
    slab = Geometry3D(w=10.0, L=30.0, gap_radius=1.0, gap_center=(15.0, 15.0),
                      x0=15.0, y0=15.0, z0=-2.0)
    yield McConfig(slab, split.channel, trials=40, seed=26, rho=0.005, c_max=1)


@pytest.mark.parametrize("cfg", block_layouts(), ids=["n", "rho", "rho_3d"])
def test_blocks_leave_every_count_unchanged(cfg, monkeypatch):
    counts = []
    # one trial per block, then every trial in one block
    for budget in (1, 10 ** 9):
        monkeypatch.setattr(_kernels, "NODE_BUDGET", budget)
        counts.append(event_counts(cfg))
    assert counts[0] == counts[1]
    assert 0 < counts[0][0] < cfg.trials


def test_pair_graph_sees_a_poisson_population_over_the_domain(monkeypatch):
    # the reach box U covers 22 x 22 of the 30 x 30 floor; a graph trial
    # joins U's nodes with the domain population's nodes outside U, which
    # together are Poisson(rho V) and uniform over the slab
    cfg = dataclasses.replace(list(block_layouts())[2], trials=300, event="full")
    seen = []
    graph_event = _kernels._graph_event

    def recording(base, coords, *args):
        seen.append(np.array(coords))
        return graph_event(base, coords, *args)

    monkeypatch.setattr(_kernels, "_graph_event", recording)
    montecarlo._escape_counts(cfg)
    counts = np.array([c.shape[1] for c in seen])
    nodes = np.concatenate(seen, axis=1)
    lam = cfg.rho * cfg.geometry.domain_measure()
    assert len(seen) == cfg.trials
    assert abs(counts.mean() - lam) <= 4.0 * math.sqrt(lam / cfg.trials)
    assert nodes.min() >= 0.0 and nodes[:2].max() <= 30.0 and nodes[2].max() <= 10.0
    in_u = (np.abs(nodes[0] - 15.0) <= 11.0) & (np.abs(nodes[1] - 15.0) <= 11.0)
    share = (22.0 / 30.0) ** 2
    assert abs(in_u.mean() - share) <= 4.0 * math.sqrt(share * (1.0 - share) / in_u.size)


def test_scenario_must_name_the_geometry():
    # the slab fills w L^2: at fig9's rho it holds 16,000 nodes, where the
    # strip's w L would give 160
    _, slab, model = preset_point("fig9", 0.5)
    assert McConfig(slab, model, trials=1, seed=1, rho=0.08).node_count() == 16000
    assert McConfig(slab, model, trials=1, seed=1, rho=0.08,
                    scenario="escape3d").node_count() == 16000
    with pytest.raises(ValueError, match="disagrees"):
        McConfig(slab, model, trials=1, seed=1, rho=0.08, scenario="escape2d")


def test_unknown_event_rejected():
    cfg = split_interior_config(trials=1)
    cfg.event = "partial"            # set past McConfig's own check
    with pytest.raises(ValueError, match="unknown event"):
        montecarlo._escape_counts(cfg)
    with pytest.raises(ValueError, match="unknown event"):
        dataclasses.replace(split_interior_config(trials=1), event="partial")


def test_run_functions_report_kernel_counts():
    cfg = split_interior_config()
    assert run_escape_isolation(cfg).event_count == 5
    # McConfig takes every kernel event: "full" counts single-component trials
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


@pytest.mark.parametrize("name, scenario, trials", [
    ("fig4", "escape2d", 2000),
    ("fig9", "escape3d", 1000),
])
def test_isolation_matches_analytic(name, scenario, trials):
    cfg, geometry, model = preset_point(name, 0.5)
    p = math.exp(-cfg["rho"] * mass(geometry, model).total)
    est = run_escape_isolation(McConfig(
        geometry, model, trials=trials, seed=cfg["mc"]["seed"],
        rho=cfg["rho"], event="isolated_only", scenario=scenario))
    assert abs(est.p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)


@pytest.mark.parametrize("name, scenario, rho, trials", [
    ("fig4", "escape2d", 0.1, 4000),
    ("fig9", "escape3d", 0.08, 2000),
])
def test_isolation_matches_analytic_eta3(name, scenario, rho, trials):
    # eta = 3: node-0 and pair links take the table at b_c r^(3/2)
    cfg = presets.get_preset(name)
    model = make_channel_model(K=cfg["channel"]["K"], beta=1e-4, eta=3.0,
                               alpha=0.75, C=cfg["channel"]["C"])
    geometry = cli._parse_geometry(cfg)
    p = math.exp(-rho * mass(geometry, model).total)
    est = run_escape_isolation(McConfig(geometry, model, trials=trials,
                                        seed=cfg["mc"]["seed"], rho=rho,
                                        event="isolated_only", scenario=scenario))
    assert 0.01 < p < 0.99
    assert abs(est.p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)


def test_left_only_isolation_matches_analytic():
    # the right cone is closed, so about twice as many trials stay isolated
    # as with both cones open (0.166)
    cfg, geometry, model = preset_point("fig4", 0.5)
    geometry = dataclasses.replace(geometry, sides="left_only")
    rho, trials = 0.05, 3000
    p = math.exp(-rho * mass(geometry, model).total)
    est = run_escape_isolation(McConfig(geometry, model, trials=trials,
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


def test_off_axis_isolation_matches_analytic():
    # a wide gap with node 0 well off its axis, so the cone's tangent runs
    # from 0.2 to 0.8 with the azimuth; the on-axis isolation, 0.276, sits
    # about 7 sigma away. C = 2 keeps every cone inside the slab.
    model = make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=2)
    geometry = Geometry3D(w=10.0, L=100.0, gap_radius=1.0, gap_center=(50.0, 50.0),
                          x0=50.6, y0=50.0, z0=-2.0)
    rho, trials = 5.5e-4, 10000
    p = math.exp(-rho * mass(geometry, model).total)
    est = run_escape_isolation(McConfig(geometry, model, trials=trials, seed=31,
                                        rho=rho, event="isolated_only"))
    assert p == pytest.approx(0.3035, abs=1e-4)
    assert abs(est.p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)


def test_full_connectivity_matches_first_order_on_the_small_box():
    # the first MC test of full_connectivity_first_order: Poisson nodes on an
    # 8 x 14 box, where at rho = 0.2 the exterior term dominates p_fc
    geometry = Geometry2D(w=8.0, L=14.0, eps=0.3, gap_center_x=7.0, x0=7.0, y0=-2.0)
    model = make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=6)
    rho, trials = 0.2, 4000
    p = full_connectivity_first_order(
        geometry, model, ClusterInputs(rho=rho, V=geometry.domain_measure())).p_fc
    est = run_escape_isolation(McConfig(geometry, model, trials=trials, seed=5,
                                        rho=rho, event="full"))
    assert p == pytest.approx(0.9832, abs=1e-4)
    assert abs(est.p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)
