import dataclasses
import math

import numpy as np
import pytest

from keyhole import _kernels
from keyhole._kernels import y_image
from keyhole.channel import make_channel_model
from keyhole.escape3d import Geometry3D, region_bounds_3d, volume_ratio_first_reflection
from keyhole.mass2d import mass


def make_geometry(**kw):
    base = dict(w=20.0, L=100.0, gap_radius=0.1, gap_center=(50.0, 50.0),
                x0=50.0, y0=50.0, z0=-2.0)
    base.update(kw)
    return Geometry3D(**base)


@pytest.fixture(scope="module")
def model():
    return make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=6)


def test_theta_on_axis():
    g = make_geometry()
    assert g.theta() == pytest.approx(math.atan(0.1 / 2.0))
    assert g.theta(1.3) == pytest.approx(g.theta(0.0))


def test_region_bounds_direct():
    g = make_geometry()
    reg = region_bounds_3d(g, 0)
    assert reg.phi_min == 0.0
    assert float(reg.r_min(0.0)) == pytest.approx(2.0)
    assert float(reg.r_max(0.0)) == pytest.approx(22.0)


def test_region_bounds_first_reflection():
    g = make_geometry(w=20.0)
    th = g.theta()
    reg = region_bounds_3d(g, 1)
    assert reg.phi_min == pytest.approx(math.atan(2.0 * math.tan(th) / 42.0))
    assert reg.phi_max == pytest.approx(th)


def test_region_bounds_azimuth_independent_on_axis():
    g = make_geometry()
    for varphi in (0.0, 0.7, 2.4, 5.0):
        reg = region_bounds_3d(g, 2, varphi)
        assert reg.phi_min == pytest.approx(region_bounds_3d(g, 2, 0.0).phi_min)
        assert reg.phi_max == pytest.approx(region_bounds_3d(g, 2, 0.0).phi_max)


def test_mass_vanishes_with_gap(model):
    g = make_geometry(gap_radius=1e-9)
    assert mass(g, model).total == pytest.approx(0.0, abs=1e-9)


def test_alpha_zero_direct_only():
    g = make_geometry()
    m = make_channel_model(K=4.0, beta=1e-3, alpha=0.0, C=6)
    br = mass(g, m)
    assert br.per_c[0][1] > 0.0
    assert all(v == 0.0 for c, v in br.per_c if c >= 1)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
def test_closed_form_matches_quadrature(alpha):
    g = make_geometry()
    m = make_channel_model(K=4.0, beta=1e-3, alpha=alpha, C=6)
    quad = mass(g, m).total
    closed = mass(g, m, "closed_form").total
    assert abs(closed - quad) / quad <= 0.10


def test_closed_form_direct_region_converges(model):
    # the c = 0 relative expansion error falls as theta^4, about 16x per
    # halving of the gap; a wrong second-order coefficient leaves theta^2,
    # about 4x
    gaps = []
    for radius in (0.4, 0.2, 0.1, 0.05, 0.025):
        g = make_geometry(gap_radius=radius)
        closed = mass(g, model, "closed_form").per_c[0][1]
        gaps.append(abs(closed / mass(g, model).per_c[0][1] - 1.0))
    assert all(a >= 10.0 * b for a, b in zip(gaps, gaps[1:])), gaps


def test_closed_form_reflected_term_pinned():
    # fig9 geometry at alpha = 1: the c = 1 term against a 40-digit mpmath
    # evaluation of the same expansion; sin-weighted moments integrated by
    # hand, such as (2 - theta^2) cos(theta) + 2 theta sin(theta) - 2, lose
    # six digits to cancellation here
    m = make_channel_model(K=4.0, beta=1e-3, alpha=1.0, C=6)
    got = mass(make_geometry(), m, "closed_form").per_c[1][1]
    assert got == pytest.approx(42.856626049381590042, rel=1e-13, abs=0.0)


def test_closed_form_direct_term_positive(model):
    # the direct term must stay positive across escape angles
    for eps in (0.05, 0.2, 0.8, 2.0):
        g = make_geometry(gap_radius=eps)
        assert mass(g, model, "closed_form").per_c[0][1] > 0.0


def test_truncation_at_zero_reflections(model):
    g = make_geometry()
    m0 = make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=0)
    only_direct = mass(g, m0, "closed_form")
    full = mass(g, model, "closed_form")
    assert only_direct.total == pytest.approx(full.per_c[0][1], rel=1e-12)


def test_axisymmetric_shortcut(model):
    # a node a hair off the axis takes the azimuthal trapezoid rule
    g = make_geometry()
    fast = mass(g, model)
    near = dataclasses.replace(g, x0=g.x0 + 1e-6)
    assert not near.is_on_axis()
    nested = mass(near, model)
    assert nested.total == pytest.approx(fast.total, abs=1e-8 * max(1.0, fast.total))


def test_mass_monotone_in_gap_and_height(model):
    totals_eps = [mass(make_geometry(gap_radius=e), model).total
                  for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(a < b for a, b in zip(totals_eps, totals_eps[1:]))
    totals_w = [mass(make_geometry(w=w), model).total
                for w in (10.0, 15.0, 20.0)]
    assert all(a < b for a, b in zip(totals_w, totals_w[1:]))


def test_per_c_decay(model):
    g = make_geometry()
    br = mass(g, make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=6))
    values = [v for _, v in br.per_c if v > 1e-12 * br.total]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v >= 0.0 for _, v in br.per_c)


def test_volume_ratio_values():
    assert volume_ratio_first_reflection(make_geometry(z0=-1e-9)) \
        == pytest.approx(7.0, abs=1e-6)
    assert volume_ratio_first_reflection(make_geometry(z0=-20.0)) \
        == pytest.approx(1.0 + 12.0 / 7.0)
    assert volume_ratio_first_reflection(make_geometry(z0=-1e9)) \
        == pytest.approx(1.0, abs=1e-6)


def test_volume_ratio_matches_direct_expression():
    g = make_geometry(z0=-3.3)
    u = 3.3
    direct = 1.0 + (u ** 3 - 2.0 * (20.0 + u) ** 3 + (40.0 + u) ** 3) \
        / ((20.0 + u) ** 3 - u ** 3)
    assert volume_ratio_first_reflection(g) == pytest.approx(direct, rel=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        make_geometry(z0=1.0)
    with pytest.raises(ValueError):
        make_geometry(gap_radius=25.0)
    with pytest.raises(ValueError):
        make_geometry(x0=51.0)
    with pytest.raises(ValueError):
        make_geometry(gap_center=(0.05, 50.0))


def test_off_axis_theta_varies():
    g = make_geometry(x0=50.05)
    assert g.theta(0.0) < g.theta(math.pi)
    with pytest.raises(ValueError):
        mass(g, make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=6), "closed_form")


def monte_carlo_mass(g, model, n, seed):
    """Volume integral of the surrogate link over the reachable slab, by
    uniform sampling of a box that bounds the unfolded cones.

    Each point takes the smallest c whose unfolded image is seen through the
    gap disc, judged by where the segment from node 0 crosses z = 0.
    Returns (estimate, standard error).
    """
    pts, volume = points_in_reach(g, model.C, n, seed)
    c, r = count_through_disc(g, pts, model.C)
    seen = c >= 0
    h = np.zeros(n)
    lam = np.array([model.lambda_coeff(k) for k in range(model.C + 1)])
    h[seen] = np.exp(-lam[c[seen]] * r[seen] ** model.radial_exponent())
    return volume * h.mean(), volume * h.std() / math.sqrt(n)


def points_in_reach(g, c_max, n, seed):
    """``n`` uniform points of the box that bounds the unfolded cones up to
    ``c_max``, and the box's volume."""
    rng = np.random.default_rng(seed)
    reach = ((c_max + 1) * g.w + g.abs_z0) * (g.gap_radius + g.node_offset()) / g.abs_z0
    lo = np.array([g.x0 - reach, g.y0 - reach, 0.0])
    hi = np.array([g.x0 + reach, g.y0 + reach, g.w])
    return lo + (hi - lo) * rng.random((n, 3)), float(np.prod(hi - lo))


def count_through_disc(g, pts, c_max):
    """Smallest c whose unfolded image of each point is seen through the gap
    disc (-1: none up to ``c_max``), and the unfolded distance, judged by
    where the segment from node 0 crosses z = 0."""
    gx, gy = g.gap_center
    dx, dy = pts[:, 0] - g.x0, pts[:, 1] - g.y0
    c_out = np.full(len(pts), -1)
    r_out = np.zeros(len(pts))
    for c in range(c_max + 1):
        vert = y_image(c, pts[:, 2], g.w) + g.abs_z0
        t = g.abs_z0 / vert
        seen = (c_out < 0) & ((g.x0 + t * dx - gx) ** 2 + (g.y0 + t * dy - gy) ** 2
                              <= g.gap_radius ** 2)
        c_out[seen] = c
        r_out[seen] = np.sqrt(dx[seen] ** 2 + dy[seen] ** 2 + vert[seen] ** 2)
    return c_out, r_out


def test_off_axis_trial_cones_match_the_gap_disc():
    # the trial kernel's classifier on the mc_setup disc, against where the
    # segment from node 0 to the node's image crosses the floor
    g = make_geometry(w=10.0, gap_radius=1.0, x0=50.6, y0=49.8)
    node0, disc, depth, tan_max = g.mc_setup()
    pts, _ = points_in_reach(g, 3, 50_000, seed=4)
    dx, dy = pts[:, 0] - g.x0, pts[:, 1] - g.y0
    c, vert = _kernels.min_reflections(node0[:2], (dx, dy), pts[:, 2], depth, g.w,
                                       range(4), disc)
    assert np.array_equal(c, count_through_disc(g, pts, 3)[0])
    assert (c >= 0).sum() > 5000
    tan_t = np.sqrt(dx * dx + dy * dy)[c >= 0] / vert[c >= 0]
    assert tan_t.max() <= tan_max
    assert tan_t.max() == pytest.approx(tan_max, rel=1e-3)
    # the analytic regions' cone at each azimuth is the disc's: a point of
    # D_0 just inside its edge is in, one just outside is not
    phi = np.linspace(0.0, 2.0 * math.pi, 9)
    edge = np.array([math.tan(g.theta(v)) for v in phi]) * (g.w + depth)
    for scale, want in ((1.0 - 1e-9, 0), (1.0 + 1e-9, -1)):
        c, _ = _kernels.min_reflections(node0[:2], (scale * edge * np.cos(phi),
                                                    scale * edge * np.sin(phi)),
                                        np.full(phi.size, g.w), depth, g.w, range(1), disc)
        assert np.all(c == want)


def test_off_axis_mass_matches_monte_carlo():
    # a wide gap and a node well off its axis, so the cone is far from round:
    # the on-axis mass of the same gap sits about 19 sigma away
    m = make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=2)
    g = make_geometry(w=10.0, gap_radius=1.0, x0=50.6)
    est, se = monte_carlo_mass(g, m, 400_000, seed=3)
    got = mass(g, m).total
    assert abs(est - got) <= 4.0 * se, (est, se, got)
    on_axis = mass(make_geometry(w=10.0, gap_radius=1.0), m).total
    assert abs(est - on_axis) > 10.0 * se
