import dataclasses
import itertools
import math

import numpy as np
import pytest

from keyhole.channel import make_channel_model
from keyhole.mass2d import mass
from keyhole.transport import (TransportGeometry, averaged_connect_prob,
                               min_paths, receiving_region)


def opposite_geometry(w=10.0, y0=-2.0, gap=0.3, x_l1=15.0, x_u1=14.5):
    return TransportGeometry(
        w=w, L=100.0, case="opposite", x_l1=x_l1, x_l2=x_l1 + gap,
        x_u1=x_u1, x_u2=x_u1 + gap, node0=(x_l1 + gap / 2.0, y0),
        node1=(x_u1 + gap / 2.0, w + 2.0))


def same_side_geometry(**kw):
    base = dict(w=10.0, L=100.0, case="same_side", x_l1=14.0, x_l2=16.0,
                x_l3=23.0, x_l4=26.0, node0=(15.0, -2.0), node1=(25.0, -2.0))
    base.update(kw)
    return TransportGeometry(**base)


@pytest.fixture(scope="module")
def model():
    return make_channel_model(K=4.0, beta=1e-3, alpha=0.85, C=6)


def min_reflections(tg, c_max):
    """Smallest count with a non-empty receiving region, or None."""
    return next((c for c in tg.counts(c_max) if not receiving_region(tg, c).empty), None)


def min_path(tg, p0, p1, c_max):
    """``min_paths`` for one pair: (c, r), or None when no count works."""
    c, r = min_paths(tg, p0[0], p0[1], p1[0], p1[1], c_max)
    return None if c < 0 else (int(c), float(r))


def test_layout_decides_counts_and_receiving_gap():
    opp, same = opposite_geometry(), same_side_geometry()
    assert list(opp.counts(6)) == [0, 2, 4, 6]
    assert list(same.counts(6)) == [1, 3, 5]
    assert list(same.counts(0)) == []
    assert opp.receiving_gap == (14.5, 14.8)
    assert same.receiving_gap == (23.0, 26.0)
    with pytest.raises(ValueError, match="non-negative"):
        receiving_region(opp, -1)


def test_case1_parity_and_window():
    tg = opposite_geometry()
    assert receiving_region(tg, 1).empty
    assert receiving_region(tg, 3).empty
    reg = receiving_region(tg, 2)
    assert not reg.empty
    depth = 3.0 * tg.w + 2.0
    assert reg.phi_min == pytest.approx(math.atan((15.15 - 14.8) / depth))
    assert reg.phi_max == pytest.approx(math.atan((15.15 - 14.5) / depth))
    phi = 0.5 * (reg.phi_min + reg.phi_max)
    assert float(reg.r_min(phi)) == pytest.approx(depth / math.cos(phi))
    assert float(reg.r_max(phi)) == pytest.approx((15.15 - 14.5) / math.sin(phi))


def test_case1_receiver_right_of_node_is_empty():
    tg = TransportGeometry(w=10.0, L=100.0, case="opposite", x_l1=15.0,
                           x_l2=15.3, x_u1=16.0, x_u2=16.3,
                           node0=(15.15, -2.0), node1=(16.15, 12.0))
    for c in (0, 2, 4, 6):
        assert receiving_region(tg, c).empty
    assert min_reflections(tg, 6) is None


def test_case1_los_impossibility_forces_two_reflections():
    # receiver gap placed beyond the direct cone's reach at the upper wall
    tg = TransportGeometry(w=10.0, L=100.0, case="opposite", x_l1=15.0,
                           x_l2=15.3, x_u1=13.0, x_u2=13.3,
                           node0=(15.15, -2.0), node1=(13.15, 12.0))
    theta = tg.theta()
    assert tg.node0[0] - (2.0 + 10.0) * math.tan(theta) > tg.x_u2
    cmin = min_reflections(tg, 6)
    assert cmin is not None and cmin >= 2


def test_case1_straddling_gaps_direct_only():
    tg = TransportGeometry(w=10.0, L=100.0, case="opposite", x_l1=15.0,
                           x_l2=15.3, x_u1=15.0, x_u2=15.3,
                           node0=(15.15, -2.0), node1=(15.15, 12.0))
    assert tg.gaps_straddle()
    assert not receiving_region(tg, 0).empty
    for c in (2, 4, 6):
        assert receiving_region(tg, c).empty


def test_case2_parity():
    tg = same_side_geometry()
    (x0, y0), (x1, y1) = tg.node0, tg.node1
    # same-side paths take odd counts only: none up to 0, c=1 up to 1 and 2
    assert min_paths(tg, x0, y0, x1, y1, 0)[0] == -1
    assert min_paths(tg, x0, y0, x1, y1, 1)[0] == 1
    assert min_paths(tg, x0, y0, x1, y1, 2)[0] == 1
    assert receiving_region(tg, 0).empty
    assert receiving_region(tg, 2).empty
    assert not receiving_region(tg, 1).empty


def test_case2_path_triangle():
    # one bounce off the upper wall: 10 across and 2*10 + 2 + 2 up
    tg = same_side_geometry()
    c, r = min_path(tg, tg.node0, tg.node1, 6)
    assert c == 1
    assert r == pytest.approx(26.0, rel=1e-12)


def test_case2_path_outside_cone_infeasible():
    tg = same_side_geometry(node1=(40.0, -0.5), x_l3=38.0, x_l4=42.0)
    # the c=1 and c=3 images of node 1 lie outside node 0's escape cone
    for c in (1, 3):
        vert = (c + 1) * tg.w + 2.0 + 0.5
        assert math.atan((40.0 - 15.0) / vert) > tg.theta()
    c, r = min_path(tg, tg.node0, tg.node1, 6)
    assert c == 5
    assert r == pytest.approx(math.hypot(25.0, 6 * tg.w + 2.5), rel=1e-12)


def test_same_side_exit_must_fall_in_receiver_gap():
    # the c=1 ray toward node 1 clears the transmitter gap but meets the
    # lower wall at x=20.17, left of the receiver gap; c=3 gets through
    tg = same_side_geometry(x_l2=15.983, x_l3=20.395, x_l4=20.751,
                            node0=(14.033, -2.756), node1=(20.685, -1.899))
    got = min_path(tg, tg.node0, tg.node1, 6)
    want = traced_min_path(tg, tg.node0, tg.node1, 6)
    assert got[0] == want[0] == 3
    assert got[1] == pytest.approx(want[1], rel=1e-9)


def test_mass_case1_empty_when_unreachable(model):
    tg = TransportGeometry(w=10.0, L=100.0, case="opposite", x_l1=15.0,
                           x_l2=15.3, x_u1=16.0, x_u2=16.3,
                           node0=(15.15, -2.0), node1=(16.15, 12.0))
    assert mass(tg, model).total == 0.0


@pytest.mark.parametrize("tg", [
    opposite_geometry(w=10.0), opposite_geometry(w=15.0), opposite_geometry(w=20.0),
    # receiver gaps [23, 26], [19, 21] and [17, 19]: 0.14%, 0.42% and 1.9% apart
    same_side_geometry(),
    same_side_geometry(x_l3=19.0, x_l4=21.0, node1=(20.0, -2.0)),
    same_side_geometry(x_l3=17.0, x_l4=19.0, node1=(18.0, -2.0)),
], ids=["10.0", "15.0", "20.0", "same_side-23-26", "same_side-19-21", "same_side-17-19"])
def test_mass_case1_expansion_matches_quadrature(model, tg):
    quad = mass(tg, model)
    exp = mass(tg, model, "closed_form")
    assert quad.total > 0.0
    assert abs(exp.total - quad.total) / quad.total <= 0.05


@pytest.mark.parametrize("geometry", [opposite_geometry, same_side_geometry],
                         ids=["opposite", "same_side"])
def test_expansion_rejects_eta_other_than_two(geometry):
    # the expansion is derived for eta = 2; the quadrature takes any eta
    m = make_channel_model(K=4.0, beta=1e-3, eta=3.0, alpha=0.85, C=6)
    assert math.isfinite(mass(geometry(), m).total)
    with pytest.raises(ValueError, match="eta = 2"):
        mass(geometry(), m, "closed_form")


def test_mass_case1_per_c_decreasing(model):
    for w in (10.0, 15.0, 20.0):
        br = mass(opposite_geometry(w=w), model)
        values = [v for _, v in br.per_c if v > 1e-12 * max(br.total, 1e-300)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_mass_case1_monotone_in_gap(model):
    totals = [mass(opposite_geometry(gap=gap), model).total
              for gap in (0.1, 0.2, 0.3, 0.4, 0.5)]
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_mass_case1_decreases_toward_wall(model):
    totals = [mass(opposite_geometry(y0=y), model).total
              for y in (-3.0, -2.0, -1.0, -0.5)]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_mass_case2_far_gap_is_zero(model):
    tg = same_side_geometry(x_l3=90.0, x_l4=93.0, node1=(91.5, -2.0))
    assert mass(tg, model).total == 0.0


def test_mass_case2_mirror_symmetry(model):
    # reflecting the layout and rebuilding it in the rightward convention
    # preserves every offset that the mass depends on
    tg = same_side_geometry()
    shift = 60.0
    flipped = TransportGeometry(
        w=10.0, L=100.0, case="same_side",
        x_l1=14.0 + shift, x_l2=16.0 + shift,
        x_l3=23.0 + shift, x_l4=26.0 + shift,
        node0=(15.0 + shift, -2.0), node1=(25.0 + shift, -2.0))
    a = mass(tg, model).total
    b = mass(flipped, model).total
    assert a == pytest.approx(b, rel=1e-9)


def test_mass_case2_parity_only_odd(model):
    br = mass(same_side_geometry(), model)
    assert all(c % 2 == 1 for c, _ in br.per_c)


def traced_min_path(tg, p0, p1, c_max):
    """Minimal (c, r) found by tracing the ray aimed at each image of p1.

    ``trace_ray`` knows only the transmitter gap, so the receiver gap is
    checked here on the traced points: the exit point must lie in it and no
    reflection point on its wall may.
    """
    from keyhole.geometry2d import Geometry2D
    from keyhole.montecarlo import trace_ray
    g = Geometry2D(w=tg.w, L=tg.L, eps=tg.x_l2 - tg.x_l1,
                   gap_center_x=0.5 * (tg.x_l1 + tg.x_l2), x0=p0[0], y0=p0[1])
    if tg.case == "opposite":
        start, beyond, rx_gap, rx_wall = 0, p1[1] - tg.w, (tg.x_u1, tg.x_u2), tg.w
    else:
        start, beyond, rx_gap, rx_wall = 1, -p1[1], (tg.x_l3, tg.x_l4), 0.0
    dx = p1[0] - p0[0]
    for c in range(start, c_max + 1, 2):
        vert = (c + 1) * tg.w - p0[1] + beyond
        traced = trace_ray(g, p0, (dx, vert), max_reflections=c)
        if traced.stopped != "budget" or traced.reflections != c:
            continue                 # blocked at entry or escaped mid-bounce
        exit_pt, bounces = traced.points[-1], traced.points[2:-1]
        assert exit_pt[1] == pytest.approx(rx_wall, abs=1e-9)
        if not rx_gap[0] <= exit_pt[0] <= rx_gap[1]:
            continue
        if any(abs(y - rx_wall) < 1e-9 and rx_gap[0] <= x <= rx_gap[1]
               for x, y in bounces):
            continue                 # left through the receiver gap early
        # past the exit the ray runs straight on to node 1
        assert exit_pt[0] + dx * beyond / vert == pytest.approx(p1[0], abs=1e-9)
        return c, traced.length + math.hypot(p1[0] - exit_pt[0], p1[1] - exit_pt[1])
    return None


# a pair whose c=4 path meets the upper wall at x=14.735, inside the
# receiver gap, on its third bounce: no path with c <= 6 exists
PINNED_P0, PINNED_P1 = (15.004, -0.413), (14.526, 13.690)


def min_path_cases():
    rng = np.random.default_rng(20121127)
    r1 = (14.5, 14.8, 12.0, 14.0)
    same = same_side_geometry(x_l3=17.0, x_l4=19.0, node1=(18.0, -2.0))
    layouts = [(opposite_geometry(y0=-0.5), (15.0, 15.3, -0.6, -0.4), r1),
               (opposite_geometry(y0=-2.0), (15.0, 15.3, -2.1, -1.9), r1),
               (same, (14.0, 16.0, -1.0, -0.1), (17.0, 19.0, -1.0, -0.1))]
    cases = [(layouts[0][0], PINNED_P0, PINNED_P1)]
    for tg, b0, b1 in layouts:
        for _ in range(150):
            p0 = (rng.uniform(b0[0], b0[1]), rng.uniform(b0[2], b0[3]))
            p1 = (rng.uniform(b1[0], b1[1]), rng.uniform(b1[2], b1[3]))
            cases.append((tg, p0, p1))
    return cases


def test_transport_min_path_matches_ray_trace():
    found = set()
    # each layout's pairs also go through one batched min_paths call
    for _, group in itertools.groupby(min_path_cases(), key=lambda case: id(case[0])):
        group = list(group)
        tg = group[0][0]
        p0s = np.array([p0 for _, p0, _ in group])
        p1s = np.array([p1 for _, _, p1 in group])
        cs, rs = min_paths(tg, p0s[:, 0], p0s[:, 1], p1s[:, 0], p1s[:, 1], 6)
        assert cs.shape == rs.shape == (len(group),)
        for (_, p0, p1), c_b, r_b in zip(group, cs, rs):
            batched = None if c_b < 0 else (int(c_b), float(r_b))
            got = min_path(tg, p0, p1, 6)
            want = traced_min_path(tg, p0, p1, 6)
            if want is None:
                assert got is None and batched is None, (tg.case, p0, p1, got, batched)
                assert c_b == -1 and r_b == 0.0
                found.add(None)
                continue
            for path in (got, batched):
                assert path is not None and path[0] == want[0], (tg.case, p0, p1, path, want)
                assert path[1] == pytest.approx(want[1], rel=1e-9)
            found.add(want[0])
    # the sample reaches direct, reflected and unreachable pairs
    assert {None, 0, 1, 2} <= found


@pytest.mark.parametrize("layout", ["opposite", "same_side"])
def test_min_paths_on_a_broadcast_grid(layout):
    # the (n0, n1) grid averaged_connect_prob passes: node 0 down the rows,
    # node 1 along the columns
    tg, box0, box1 = {
        "opposite": (opposite_geometry(y0=-0.5), BENCH_BOX0, BENCH_BOX1),
        "same_side": (same_side_geometry(x_l3=17.0, x_l4=19.0, node1=(18.0, -2.0)),
                      (14.0, 16.0, -1.0, -0.1), (17.0, 19.0, -1.0, -0.1)),
    }[layout]
    rng = np.random.default_rng(7)
    px, py = rng.uniform(box0[0], box0[1], 17), rng.uniform(box0[2], box0[3], 17)
    qx, qy = rng.uniform(box1[0], box1[1], 23), rng.uniform(box1[2], box1[3], 23)
    if layout == "opposite":
        # the pinned pair, which no count of c <= 6 reaches
        px[0], py[0], qx[0], qy[0] = *PINNED_P0, *PINNED_P1
    cs, rs = min_paths(tg, px[:, None], py[:, None], qx, qy, 6)
    assert cs.shape == rs.shape == (17, 23)
    found = set()
    for i, j in itertools.product(range(17), range(23)):
        want = min_path(tg, (px[i], py[i]), (qx[j], qy[j]), 6)
        if want is None:
            assert (cs[i, j], rs[i, j]) == (-1, 0.0), (i, j)
        else:
            assert (cs[i, j], rs[i, j]) == want, (i, j)
        found.add(None if want is None else want[0])
    # the grid holds unreachable pairs and, across opposite walls, more than
    # one count
    assert found >= ({None, 0, 2} if layout == "opposite" else {None, 1})


def test_run_transport_agrees_with_min_path(model):
    from keyhole import _kernels
    from keyhole.montecarlo import McConfig, run_transport
    tg = opposite_geometry(y0=-0.5)
    pinned = run_transport(McConfig(
        scenario="transport", geometry=tg, channel=model, trials=1000, seed=5,
        region0=(PINNED_P0[0], PINNED_P0[0], PINNED_P0[1], PINNED_P0[1]),
        region1=(PINNED_P1[0], PINNED_P1[0], PINNED_P1[1], PINNED_P1[1])))
    assert pinned.per_c_attempts == (0,) * (model.C + 1)

    # sample for sample, on the positions run_transport draws
    trials, seed = 2000, 11
    box0, box1 = (15.0, 15.3, -0.6, -0.4), (14.5, 14.8, 12.0, 14.0)
    est = run_transport(McConfig(scenario="transport", geometry=tg,
                                 channel=model, trials=trials, seed=seed,
                                 region0=box0, region1=box1))
    base = _kernels.trial_bases_np(seed, np.arange(trials, dtype=np.uint64))

    def coord(stream, j, lo, hi):
        u = _kernels.draws_np(base, stream, np.full(trials, j, dtype=np.uint64))
        return lo + (hi - lo) * u

    x0 = coord(_kernels.STREAM_POSITION, 0, box0[0], box0[1])
    y0 = coord(_kernels.STREAM_POSITION, 1, box0[2], box0[3])
    x1 = coord(_kernels.STREAM_NODE1, 0, box1[0], box1[1])
    y1 = coord(_kernels.STREAM_NODE1, 1, box1[2], box1[3])
    attempts = [0] * (model.C + 1)
    for i in range(trials):
        path = min_path(tg, (x0[i], y0[i]), (x1[i], y1[i]), model.C)
        if path is not None:
            attempts[path[0]] += 1
    assert est.per_c_attempts == tuple(attempts)
    assert attempts[4] + attempts[6] > 0


def test_geometry_validation():
    with pytest.raises(ValueError):
        same_side_geometry(x_l3=15.0, x_l4=18.0)   # overlaps transmitter gap
    with pytest.raises(ValueError):
        same_side_geometry(node0=(10.0, -2.0))     # outside its gap
    with pytest.raises(ValueError):
        same_side_geometry(node1=(40.0, -2.0))     # outside its gap
    with pytest.raises(ValueError):
        opposite_geometry(y0=1.0)
    with pytest.raises(ValueError):
        TransportGeometry(w=10.0, L=100.0, case="opposite", x_l1=15.0,
                          x_l2=15.3, x_u1=14.5, x_u2=14.8,
                          node0=(15.15, -2.0), node1=(14.65, 5.0))


def test_averaged_connect_prob_saturates():
    # beta = 1e-20 with no reflection loss makes every link with a path
    # certain, so the average is the share of pairs with a path
    tg = same_side_geometry()
    certain = make_channel_model(K=4.0, beta=1e-20, alpha=1.0, C=6)
    region0 = (14.0, 16.0, -1.0, -0.1)
    region1 = (23.0, 26.0, -1.0, -0.1)
    assert averaged_connect_prob(tg, certain, region0, region1) <= 1.0
    full_cover = averaged_connect_prob(
        tg, certain, (14.9, 15.1, -0.2, -0.1), (24.9, 25.1, -0.2, -0.1))
    assert full_cover == pytest.approx(1.0, abs=1e-9)


def test_averaged_connect_prob_strong_loss_is_zero(model):
    tg = same_side_geometry()
    harsh = make_channel_model(K=4.0, beta=1e6, alpha=0.85, C=6)
    val = averaged_connect_prob(tg, harsh, (14.0, 16.0, -1.0, -0.1),
                                (23.0, 26.0, -1.0, -0.1))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_averaged_connect_prob_y0_trend(model):
    # Unlike the fig15 mass, whose unbounded receiving region lengthens as
    # node 0 drops (test_mass_case1_decreases_toward_wall), this average is
    # over a fixed receiver box. Dropping node 0 narrows its cone through
    # the 0.3-wide lower gap and lengthens every path, so both the direct
    # share and the total fall. A trace_ray oracle over 20k uniform pairs
    # per box gives 0.6421 +- 0.0029 near and 0.5552 +- 0.0031 far.
    tg_near = opposite_geometry(y0=-0.5)
    tg_far = opposite_geometry(y0=-2.0)
    box_near = (15.0, 15.3, -0.6, -0.4)
    box_far = (15.0, 15.3, -2.1, -1.9)
    r1 = (14.5, 14.8, 12.0, 14.0)
    p_near = averaged_connect_prob(tg_near, model, box_near, r1)
    p_far = averaged_connect_prob(tg_far, model, box_far, r1)
    assert p_near > p_far

    # the same channel with C = 0 keeps only the direct paths
    direct = dataclasses.replace(model, C=0)
    d_near = averaged_connect_prob(tg_near, direct, box_near, r1)
    d_far = averaged_connect_prob(tg_far, direct, box_far, r1)
    assert d_near > d_far


# the boxes that perfbench's transport_average workload averages over
BENCH_BOX0, BENCH_BOX1 = (15.0, 15.3, -0.6, -0.4), (14.5, 14.8, 12.0, 14.0)


def test_averaged_connect_prob_default_order_pinned(model):
    # value of the per-pair loop this one-pass quadrature replaced
    val = averaged_connect_prob(opposite_geometry(y0=-0.5), model,
                                BENCH_BOX0, BENCH_BOX1)
    assert val == pytest.approx(0.6395904396434917, rel=1e-12)


@pytest.mark.parametrize("eta", [2.0, 3.0])
def test_averaged_connect_prob_matches_run_transport(eta):
    # 24x48 rather than the default 12x24, which sits 0.0023 below the
    # converged value (see the averaged_connect_prob docstring)
    from keyhole.montecarlo import McConfig, run_transport
    model = make_channel_model(K=4.0, beta=1e-3, eta=eta, alpha=0.85, C=6)
    tg = opposite_geometry(y0=-0.5)
    p_avg = averaged_connect_prob(tg, model, BENCH_BOX0, BENCH_BOX1,
                                  n_outer=24, n_inner=48)
    est = run_transport(McConfig(scenario="transport", geometry=tg,
                                 channel=model, trials=400_000, seed=7,
                                 region0=BENCH_BOX0, region1=BENCH_BOX1)).estimate
    assert abs(est.p_hat - p_avg) <= 4.0 * est.std_err, (p_avg, est.p_hat, est.std_err)


def test_run_transport_counts_pinned(model):
    # per-c tallies of the perfbench transport_average oracle, seed 1
    from keyhole.montecarlo import McConfig, run_transport
    run = run_transport(McConfig(scenario="transport", geometry=opposite_geometry(y0=-0.5),
                                 channel=model, trials=400_000, seed=1,
                                 region0=BENCH_BOX0, region1=BENCH_BOX1))
    assert run.per_c_attempts == (251002, 0, 96430, 0, 7492, 0, 1643)
    assert run.per_c_connects == (240913, 0, 16321, 0, 1, 0, 0)
    assert run.estimate.event_count == 257235


def test_run_transport_at_alpha_zero_connects_only_direct_pairs(model):
    # alpha moves no draw and no path, only the link probabilities: every
    # reflected path has probability 0, so only direct pairs connect
    from keyhole.montecarlo import McConfig, run_transport
    run = run_transport(McConfig(scenario="transport", geometry=opposite_geometry(y0=-0.5),
                                 channel=dataclasses.replace(model, alpha=0.0),
                                 trials=100_000, seed=1,
                                 region0=BENCH_BOX0, region1=BENCH_BOX1))
    assert run.per_c_attempts == (62646, 0, 24052, 0, 1860, 0, 405)
    assert run.per_c_connects == (60057, 0, 0, 0, 0, 0, 0)


def test_run_transport_counts_do_not_depend_on_blocking(model, monkeypatch):
    from keyhole import _kernels
    from keyhole.montecarlo import McConfig, run_transport
    tg = opposite_geometry(y0=-0.5)

    def run(**kw):
        return run_transport(McConfig(scenario="transport", geometry=tg, channel=model,
                                      seed=3, **kw))

    def tallies(est):
        return est.per_c_attempts, est.per_c_connects, est.estimate.event_count

    whole = tallies(run(trials=5000, region0=BENCH_BOX0, region1=BENCH_BOX1))
    # a block size that leaves a short last block
    monkeypatch.setattr(_kernels, "NODE_BUDGET", 997)
    assert tallies(run(trials=5000, region0=BENCH_BOX0, region1=BENCH_BOX1)) == whole
    pinned = run(trials=5000,
                 region0=(PINNED_P0[0], PINNED_P0[0], PINNED_P0[1], PINNED_P0[1]),
                 region1=(PINNED_P1[0], PINNED_P1[0], PINNED_P1[1], PINNED_P1[1]))
    assert pinned.per_c_attempts == (0,) * (model.C + 1)


def test_averaged_connect_prob_degenerate_region(model):
    tg = same_side_geometry()
    with pytest.raises(ValueError):
        averaged_connect_prob(tg, model, (14.0, 14.0, -1.0, -0.1),
                              (23.0, 26.0, -1.0, -0.1))
