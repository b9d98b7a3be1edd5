import math

import numpy as np
import pytest
from scipy import integrate

from keyhole._kernels import y_image
from keyhole.geometry2d import (Geometry2D, area_ratio_first_reflection,
                                classify_point, region_bounds)
from keyhole.montecarlo import trace_ray


def make_geometry(**kw):
    base = dict(w=20.0, L=100.0, eps=0.3, gap_center_x=50.0, x0=50.0, y0=-2.0)
    base.update(kw)
    return Geometry2D(**base)


def test_max_escape_angle_reference():
    g = make_geometry()
    assert g.theta() == pytest.approx(0.0749, abs=1e-4)


def test_max_escape_angle_small_gap_limit():
    g = make_geometry(eps=1e-6)
    assert g.theta() == pytest.approx(0.0, abs=1e-6)


def test_max_escape_angle_wide_gap():
    g = make_geometry(eps=4.0)
    assert g.theta() == pytest.approx(math.atan(1.0))


def test_region_bounds_direct():
    g = make_geometry()
    reg = region_bounds(g, 0)
    assert reg.phi_min == 0.0
    assert reg.phi_max == pytest.approx(g.theta())
    assert float(reg.r_min(0.0)) == pytest.approx(2.0)
    assert float(reg.r_max(0.0)) == pytest.approx(22.0)


def test_region_bounds_first_reflection():
    g = make_geometry()
    th = g.theta()
    reg = region_bounds(g, 1)
    assert reg.phi_min == pytest.approx(math.atan(2.0 * math.tan(th) / 42.0))
    assert reg.phi_min == pytest.approx(0.00357, abs=5e-6)
    assert float(reg.r_min(th)) == pytest.approx(22.0 / math.cos(th))
    assert float(reg.r_min(th)) == pytest.approx(22.06, abs=5e-3)
    assert float(reg.r_max(th)) == pytest.approx(42.12, abs=5e-3)


def test_phi_min_nesting():
    g = make_geometry()
    th = g.theta()
    mins = [region_bounds(g, c).phi_min for c in range(8)]
    assert all(a <= b for a, b in zip(mins, mins[1:]))
    assert all(m < th for m in mins)


def polar_image(g, c, x, y):
    """Angle from vertical and unfolded distance from node 0 of the c-th
    image of the point (x, y), which lies left of node 0."""
    vert = y_image(c, y, g.w) + g.abs_y0
    return math.atan2(g.x0 - x, vert), math.hypot(g.x0 - x, vert)


def test_cartesian_contains_point_above_gap():
    g = make_geometry()
    assert region_bounds(g, 0).contains(*polar_image(g, 0, g.x0, g.w / 2.0))


def test_region_tiling_unique_membership():
    g = make_geometry()
    rng = np.random.default_rng(3)
    c_max = 8
    span = (g.w * (c_max + 1) + g.abs_y0) * math.tan(g.theta())
    hits_seen = 0
    for _ in range(10_000):
        x = rng.uniform(g.x0 - span, g.x0)
        y = rng.uniform(0.0, g.w)
        members = [c for c in range(c_max + 1)
                   if region_bounds(g, c).contains(*polar_image(g, c, x, y))]
        res = classify_point(g, (x, y), c_max=c_max)
        if res is None:
            assert members == []
            continue
        hits_seen += 1
        assert len(members) == 1
        assert members[0] == res[0]
    assert hits_seen > 100


def test_classify_vertical_point():
    g = make_geometry()
    assert classify_point(g, (g.x0, 10.0)) == (0, 12.0)


def test_classify_outside_rectangle():
    g = make_geometry()
    with pytest.raises(ValueError):
        classify_point(g, (g.x0, -1.0))
    with pytest.raises(ValueError):
        classify_point(g, (200.0, 5.0))


def test_classify_unreachable_beyond_budget():
    g = make_geometry()
    # a point far to the side needs many reflections; tight budget rejects it
    p = (g.x0 - 10.0, 1.0)
    res = classify_point(g, p, c_max=64)
    assert res is not None and res[0] > 2
    assert classify_point(g, p, c_max=res[0] - 1) is None


def test_classify_matches_ray_trace():
    g = make_geometry()
    rng = np.random.default_rng(99)
    for _ in range(2000):
        x = rng.uniform(38.0, 62.0)
        y = rng.uniform(0.0, g.w)
        res = classify_point(g, (x, y), c_max=16)
        if res is None:
            continue
        c, r = res
        yim = y_image(c, y, g.w)
        direction = np.array([x - g.x0, yim + g.abs_y0])
        direction /= np.linalg.norm(direction)
        path = trace_ray(g, (g.x0, g.y0), direction, max_reflections=c)
        assert path.reflections == c
        px, py = path.point_at(r)
        assert math.hypot(px - x, py - y) <= 1e-9


def test_left_only_rejects_right_side():
    g = make_geometry(sides="left_only")
    assert classify_point(g, (g.x0 + 5.0, 10.0)) is None
    both = make_geometry()
    assert classify_point(both, (both.x0 + 5.0, 10.0)) is not None


def test_area_ratio_values():
    assert area_ratio_first_reflection(make_geometry(y0=-20.0)) == pytest.approx(5.0 / 3.0)
    assert area_ratio_first_reflection(make_geometry(y0=-1e-9)) == pytest.approx(3.0, abs=1e-6)
    assert area_ratio_first_reflection(make_geometry(y0=-1e9, eps=0.3)) \
        == pytest.approx(1.0, abs=1e-6)


def test_area_ratio_matches_polygon_areas():
    g = make_geometry(y0=-3.7)

    def area(reg):
        return integrate.quad(lambda phi: 0.5 * float(reg.r_max(phi) ** 2 - reg.r_min(phi) ** 2),
                              reg.phi_min, reg.phi_max, epsabs=0.0, epsrel=1e-12)[0]

    a0, a1 = (area(region_bounds(g, c)) for c in (0, 1))
    assert (a0 + a1) / a0 == pytest.approx(area_ratio_first_reflection(g), abs=1e-9)


def test_geometry_validation():
    with pytest.raises(ValueError):
        make_geometry(y0=1.0)
    with pytest.raises(ValueError):
        make_geometry(eps=25.0)
    with pytest.raises(ValueError):
        make_geometry(x0=51.0)   # outside the gap span
    with pytest.raises(ValueError):
        make_geometry(sides="right_only")
