import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.sparse import csgraph

from keyhole import _kernels, cli, montecarlo, presets
from keyhole.channel import make_channel_model
from keyhole.escape3d import Geometry3D
from keyhole.geometry2d import Geometry2D, y_image
from keyhole.mass2d import ClusterInputs, full_connectivity_first_order, mass
from keyhole.montecarlo import McConfig, link_probability_table, run_escape_isolation


def preset_point(name, alpha):
    cfg = presets.get_preset(name)
    ch = cfg["channel"]
    model = make_channel_model(K=ch["K"], beta=ch["beta"], eta=ch["eta"],
                               alpha=alpha, C=ch["C"])
    return cfg, cli._parse_geometry(cfg), model


def split_interior_config(trials=200):
    # a wide gap and a sparse interior: 20 of the 200 trials have a split
    # interior graph, two of them with node 0 isolated
    geometry = Geometry2D(w=20.0, L=100.0, eps=2.0, gap_center_x=50.0,
                          x0=50.0, y0=-1.0)
    model = make_channel_model(K=4.0, beta=0.01, alpha=0.75, C=6)
    return McConfig(geometry, model, trials=trials, seed=13, rho=0.04)


def event_counts(cfg):
    return tuple(montecarlo._escape_counts(dataclasses.replace(cfg, event=e))
                 for e in _kernels.EVENTS)


def reference_counts(cfg, graph=True):
    """(isolated, joint, full) counts of ``cfg``, or (isolated,) without
    ``graph``, from a slow reference that shares with the kernel only its
    keyed draws and its link table. Each trial draws its Poisson nodes in
    the reach box U and over the domain, keeping the domain's nodes outside
    U. Every node is classified by testing each image count in turn, the
    least count whose cone holds it winning. With ``graph``, every trial's
    full pair graph is built and the events are decided by union-find."""
    g, model = cfg.geometry, cfg.channel
    node0, cone_tan, _, tan_max = g.mc_setup()
    depth = -node0[-1]
    reach = _kernels.cone_reach(g.w, depth, tan_max, model.C)
    tab, inv_step = link_probability_table(model)
    power = 0.5 * model.eta
    b = model.b_coefficient(np.arange(model.C + 1))
    dim = len(node0)
    extent = np.array([g.L] * (dim - 1) + [g.w])
    lo = np.array([max(p - reach, 0.0) for p in node0[:-1]] + [0.0])
    span = np.array([min(p + reach, g.L) for p in node0[:-1]] + [g.w]) - lo

    def link_prob(coeff, r):
        return _kernels.table_lookup_np(tab, inv_step,
                                        coeff * (r if power == 1.0 else r ** power))

    def nodes(base, stream, count_index, box_lo, box_span):
        u = _kernels.draws_np(base, _kernels.STREAM_COUNTS,
                              np.array([count_index], dtype=np.uint64))
        k = _kernels.poisson_counts(u, cfg.rho * np.prod(box_span))[0]
        keys = np.arange(k, dtype=np.uint64) * np.uint64(4)
        return np.array([box_lo[d] + box_span[d]
                         * _kernels.draws_np(base, stream, keys + np.uint64(d))
                         for d in range(dim)]).reshape(dim, k)

    def find(parent, i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    counts = np.zeros(3 if graph else 1, dtype=np.int64)
    bases = _kernels.trial_bases_np(cfg.seed, np.arange(cfg.trials, dtype=np.uint64))
    for t in range(cfg.trials):
        base = bases[t:t + 1]
        in_box = nodes(base, _kernels.STREAM_REACH, 0, lo, span)
        domain = nodes(base, _kernels.STREAM_DOMAIN, 1, np.zeros(dim), extent)
        inside = np.ones(domain.shape[1], dtype=bool)
        for d in range(dim - 1):
            inside &= (domain[d] >= lo[d]) & (domain[d] <= lo[d] + span[d])
        pts = np.concatenate((in_box, domain[:, ~inside]), axis=1)
        n, n_box = pts.shape[1], in_box.shape[1]

        offsets = [pts[d] - node0[d] for d in range(dim - 1)]
        adx = np.abs(offsets[0]) if dim == 2 else np.sqrt(offsets[0] * offsets[0]
                                                          + offsets[1] * offsets[1])
        tan_t = np.broadcast_to(cone_tan(*offsets), (n,))
        verts = np.array([y_image(c, pts[-1], g.w) + depth for c in range(model.C + 1)])
        in_cone = adx <= verts * tan_t
        c_node = np.where(in_cone.any(axis=0), in_cone.argmax(axis=0), -1)
        # every node a cone holds lies in U
        assert np.all(c_node[n_box:] == -1)
        hit = np.flatnonzero(c_node >= 0)
        vert = verts[c_node[hit], hit]
        h0 = link_prob(b[c_node[hit]], np.sqrt(adx[hit] ** 2 + vert ** 2))
        link0 = hit[_kernels.draws_np(base, _kernels.STREAM_EXTERNAL,
                                      hit.astype(np.uint64)) < h0]
        isolated = link0.size == 0
        counts[0] += isolated
        if not graph:
            continue

        parent = list(range(n + 1))          # vertex n is node 0
        pair = 0
        for i in range(n - 1):
            j = np.arange(i + 1, n)
            r = np.sqrt(sum((p[i] - p[j]) ** 2 for p in pts))
            u = _kernels.draws_np(base, _kernels.STREAM_PAIRS,
                                  np.arange(pair, pair + j.size, dtype=np.uint64))
            pair += j.size
            for k in j[u < link_prob(b[0], r)]:
                parent[find(parent, i)] = find(parent, k)
        interior_roots = {find(parent, i) for i in range(n)}
        for k in link0:
            parent[find(parent, n)] = find(parent, k)
        counts[1] += isolated and len(interior_roots) <= 1
        counts[2] += len({find(parent, i) for i in range(n + 1)}) == 1
    return tuple(int(c) for c in counts)


# (isolated, joint, full) counts pin the random streams and the event logic;
# the slow reference gives the same counts
def test_escape_counts_pinned_2d_joint():
    _, geometry, model = preset_point("fig4", 0.5)
    cfg = McConfig(geometry, model, trials=60, seed=11, rho=0.03)
    assert event_counts(cfg) == reference_counts(cfg) == (21, 21, 39)


def test_escape_counts_pinned_split_interior():
    cfg = split_interior_config()
    assert event_counts(cfg) == reference_counts(cfg) == (7, 5, 175)


def test_escape_counts_pinned_3d_isolated():
    _, geometry, model = preset_point("fig9", 0.75)
    cfg = McConfig(geometry, model, trials=60, seed=12, rho=0.01,
                   event="isolated_only")
    assert (montecarlo._escape_counts(cfg),) == reference_counts(cfg, graph=False) == (39,)


def reach_layouts():
    # layouts where the kernel's reach box is cut differently: one open
    # cone, a lopsided node 0, a cone across most of the strip, a channel
    # with C = 2 and a wide 3-D gap
    _, fig4, fig4_model = preset_point("fig4", 0.5)
    wide_model = make_channel_model(K=4.0, beta=0.01, alpha=0.75, C=6)
    yield McConfig(dataclasses.replace(fig4, sides="left_only"),
                   fig4_model, trials=60, seed=21, rho=0.03)
    yield McConfig(dataclasses.replace(fig4, x0=fig4.gap_left + 0.01),
                   fig4_model, trials=60, seed=22, rho=0.03)
    yield McConfig(Geometry2D(w=10.0, L=100.0, eps=2.0, gap_center_x=50.0,
                              x0=50.0, y0=-1.5),
                   wide_model, trials=100, seed=23, rho=0.04)
    yield McConfig(Geometry2D(w=20.0, L=100.0, eps=2.0, gap_center_x=50.0,
                              x0=50.0, y0=-1.0),
                   make_channel_model(K=4.0, beta=0.01, alpha=0.75, C=2),
                   trials=200, seed=24, rho=0.04)
    yield McConfig(Geometry3D(w=10.0, L=100.0, gap_radius=1.0,
                              gap_center=(50.0, 50.0), x0=50.0, y0=50.0, z0=-2.0),
                   wide_model, trials=40, seed=25, rho=0.004)


# counts of a reference that draws every node and every pair graph
@pytest.mark.parametrize("cfg, counts", zip(reach_layouts(), [
    (36, 36, 24), (23, 23, 37), (7, 2, 43), (10, 9, 175), (13, 11, 22),
]),
                         ids=["left_only", "off_centre", "wide_gap", "c_max_2", "3d_wide_gap"])
def test_escape_counts_pinned_reach_layouts(cfg, counts):
    assert event_counts(cfg) == reference_counts(cfg) == counts


@pytest.mark.parametrize("cfg, counts", [
    (split_interior_config(), (7, 5, 175)),
    (next(reach_layouts()), (37, 37, 23)),      # (36, 36, 24) at alpha = 0.5
], ids=["split_interior", "left_only"])
def test_escape_counts_pinned_at_alpha_zero(cfg, counts):
    # no reflected link survives: the infinite coefficients of c > 0 read
    # past the link table's end, in the kernel and in the reference alike
    model = dataclasses.replace(cfg.channel, alpha=0.0)
    assert np.all(np.isinf(model.b_coefficient(np.arange(1, model.C + 1))))
    cfg = dataclasses.replace(cfg, channel=model)
    assert event_counts(cfg) == reference_counts(cfg) == counts


def test_table_lookup_reads_zero_at_and_past_the_end():
    tab, _ = link_probability_table(split_interior_config().channel)
    last = tab.size - 1.0
    # with a unit step the argument is the table position
    pos = np.array([0.0, 0.5, last - 0.5, last, last + 0.25, 1e300, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.table_lookup_np(tab, 1.0, pos)
    assert got[0] == tab[0] and got[1] == 0.5 * (tab[0] + tab[1])
    assert got[2] == tab[-2] + 0.5 * (tab[-1] - tab[-2])
    assert np.all(got[3:] == 0.0)


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
    assert len(calls) == iso == 7
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
    yield split_interior_config(trials=60)
    # a reach box inside the slab: C = 1 keeps it 11 from node 0
    slab = Geometry3D(w=10.0, L=30.0, gap_radius=1.0, gap_center=(15.0, 15.0),
                      x0=15.0, y0=15.0, z0=-2.0)
    yield McConfig(slab, make_channel_model(K=4.0, beta=0.01, alpha=0.75, C=1),
                   trials=40, seed=26, rho=0.005)


@pytest.mark.parametrize("cfg", block_layouts(), ids=["rho", "rho_3d"])
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
    cfg = dataclasses.replace(list(block_layouts())[1], trials=300, event="full")
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
    for scenario in (None, "escape3d"):
        cfg = McConfig(slab, model, trials=1, seed=1, rho=0.08, scenario=scenario)
        assert cfg.rho * cfg.geometry.domain_measure() == pytest.approx(16000)
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
    iso, joint, full = reference_counts(cfg)
    assert run_escape_isolation(cfg).event_count == joint == 5
    # McConfig takes every kernel event: "full" counts single-component trials
    assert run_escape_isolation(dataclasses.replace(cfg, event="full")).event_count == full
    cfg.event = "isolated_only"
    est = run_escape_isolation(cfg)
    assert est.event_count == iso
    assert est.p_hat == pytest.approx(iso / 200)


def test_single_node_full_connectivity_is_not_isolated():
    # with one interior node the graph is connected exactly when node 0 links
    model = split_interior_config().channel
    tab, inv_step = link_probability_table(model)
    base = _kernels.trial_bases_np(13, np.arange(1, dtype=np.uint64))
    coords = [np.array([50.0]), np.array([1.0])]

    def holds(event, link0):
        return _kernels._graph_event(base, coords, np.array(link0, dtype=np.int64),
                                     event, tab, inv_step, model.b_coefficient(0), 1.0)

    assert holds("joint", []) and holds("joint", [0])
    assert not holds("full", []) and holds("full", [0])


@pytest.mark.parametrize("rho", [None, -0.1, math.nan, math.inf, "0.1"])
def test_escape_layout_needs_a_finite_rho(rho):
    # a negative rho used to fail deep in np.repeat, after a RuntimeWarning
    cfg = split_interior_config()
    with pytest.raises(ValueError, match="rho must be a finite number >= 0"):
        McConfig(cfg.geometry, cfg.channel, trials=1, seed=1, rho=rho)


def test_transport_layout_takes_no_rho():
    tg = cli._parse_geometry(presets.get_preset("fig13"))
    model = split_interior_config().channel
    McConfig(tg, model, trials=1, seed=1)
    with pytest.raises(ValueError, match="takes no rho"):
        McConfig(tg, model, trials=1, seed=1, rho=0.1)


def test_empty_interior_counts_every_event():
    cfg = split_interior_config(trials=7)
    cfg.rho = 0.0
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
