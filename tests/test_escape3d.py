import math

import numpy as np
import pytest

from keyhole.channel import make_channel_model
from keyhole.escape3d import (Geometry3D, mass3d_closed_form, mass3d_numeric,
                              region_bounds_3d, volume_ratio_first_reflection)
from keyhole.geometry2d import y_image


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
    assert mass3d_numeric(g, model).total == pytest.approx(0.0, abs=1e-9)


def test_alpha_zero_direct_only():
    g = make_geometry()
    m = make_channel_model(K=4.0, beta=1e-3, alpha=0.0, C=6)
    br = mass3d_numeric(g, m)
    assert br.per_c[0][1] > 0.0
    assert all(v == 0.0 for c, v in br.per_c if c >= 1)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
def test_closed_form_matches_quadrature(alpha):
    g = make_geometry()
    m = make_channel_model(K=4.0, beta=1e-3, alpha=alpha, C=6)
    quad = mass3d_numeric(g, m).total
    closed = mass3d_closed_form(g, m).total
    assert abs(closed - quad) / quad <= 0.10


def test_closed_form_direct_region_converges(model):
    # the c = 0 relative expansion error falls as theta^4, about 16x per
    # halving of the gap; a wrong second-order coefficient leaves theta^2,
    # about 4x
    gaps = []
    for radius in (0.4, 0.2, 0.1, 0.05, 0.025):
        g = make_geometry(gap_radius=radius)
        closed = mass3d_closed_form(g, model).per_c[0][1]
        gaps.append(abs(closed / mass3d_numeric(g, model).per_c[0][1] - 1.0))
    assert all(a >= 10.0 * b for a, b in zip(gaps, gaps[1:])), gaps


def test_closed_form_reflected_term_pinned():
    # fig9 geometry at alpha = 1: the c = 1 term against a 40-digit mpmath
    # evaluation of the same expansion; sin-weighted moments integrated by
    # hand, such as (2 - theta^2) cos(theta) + 2 theta sin(theta) - 2, lose
    # six digits to cancellation here
    m = make_channel_model(K=4.0, beta=1e-3, alpha=1.0, C=6)
    got = mass3d_closed_form(make_geometry(), m).per_c[1][1]
    assert got == pytest.approx(42.856626045923274897, rel=1e-13, abs=0.0)


def test_closed_form_direct_term_positive(model):
    # the direct term must stay positive across escape angles
    for eps in (0.05, 0.2, 0.8, 2.0):
        g = make_geometry(gap_radius=eps)
        assert mass3d_closed_form(g, model).per_c[0][1] > 0.0


def test_truncation_at_zero_reflections(model):
    g = make_geometry()
    m0 = make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=0)
    only_direct = mass3d_closed_form(g, m0)
    full = mass3d_closed_form(g, model)
    assert only_direct.total == pytest.approx(full.per_c[0][1], rel=1e-12)


def test_axisymmetric_shortcut(model):
    g = make_geometry()
    fast = mass3d_numeric(g, model)
    nested = mass3d_numeric(g, model, azimuthal=True)
    assert nested.total == pytest.approx(fast.total, abs=1e-8 * max(1.0, fast.total))


def test_mass_monotone_in_gap_and_height(model):
    totals_eps = [mass3d_numeric(make_geometry(gap_radius=e), model).total
                  for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(a < b for a, b in zip(totals_eps, totals_eps[1:]))
    totals_w = [mass3d_numeric(make_geometry(w=w), model).total
                for w in (10.0, 15.0, 20.0)]
    assert all(a < b for a, b in zip(totals_w, totals_w[1:]))


def test_per_c_decay(model):
    g = make_geometry()
    br = mass3d_numeric(g, make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=6))
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
        mass3d_closed_form(g, make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=6))


def monte_carlo_mass(g, model, n, seed):
    """Volume integral of the surrogate link over the reachable slab, by
    uniform sampling of a box that bounds the unfolded cones.

    Each point takes the smallest c whose unfolded image is seen through the
    gap disc, judged by where the segment from node 0 crosses z = 0.
    Returns (estimate, standard error).
    """
    rng = np.random.default_rng(seed)
    gx, gy = g.gap_center
    reach = ((model.C + 1) * g.w + g.abs_z0) * (g.gap_radius + g.node_offset()) / g.abs_z0
    lo = np.array([g.x0 - reach, g.y0 - reach, 0.0])
    hi = np.array([g.x0 + reach, g.y0 + reach, g.w])
    pts = lo + (hi - lo) * rng.random((n, 3))
    dx, dy = pts[:, 0] - g.x0, pts[:, 1] - g.y0
    h = np.zeros(n)
    todo = np.ones(n, dtype=bool)
    for c in range(model.C + 1):
        vert = y_image(c, pts[:, 2], g.w) + g.abs_z0
        t = g.abs_z0 / vert
        seen = todo & ((g.x0 + t * dx - gx) ** 2 + (g.y0 + t * dy - gy) ** 2
                       <= g.gap_radius ** 2)
        r = np.sqrt(dx[seen] ** 2 + dy[seen] ** 2 + vert[seen] ** 2)
        h[seen] = np.exp(-model.lambda_coeff(c) * r ** model.radial_exponent())
        todo &= ~seen
    volume = float(np.prod(hi - lo))
    return volume * h.mean(), volume * h.std() / math.sqrt(n)


def test_off_axis_mass_matches_monte_carlo():
    # a wide gap and a node well off its axis, so the cone is far from round:
    # the on-axis mass of the same gap sits about 19 sigma away
    m = make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=2)
    g = make_geometry(w=10.0, gap_radius=1.0, x0=50.6)
    est, se = monte_carlo_mass(g, m, 400_000, seed=3)
    mass = mass3d_numeric(g, m, azimuthal=True).total
    assert abs(est - mass) <= 4.0 * se, (est, se, mass)
    on_axis = mass3d_numeric(make_geometry(w=10.0, gap_radius=1.0), m).total
    assert abs(est - on_axis) > 10.0 * se
