import math
import sys

import numpy as np
import pytest
from scipy import integrate

from keyhole import _kernels, mass2d, specfun
from keyhole._kernels import y_image
from keyhole.channel import make_channel_model
from keyhole.escape3d import Geometry3D, region_bounds_3d
from keyhole.geometry2d import Geometry2D, ReflectionRegion, region_bounds
from keyhole.mass2d import (ClusterInputs,
                            exterior_isolation_prob,
                            full_connectivity_first_order,
                            internal_isolation_bridge_term,
                            internal_isolation_first_term, mass,
                            region_mass)
from keyhole.specfun import integrate_adaptive, lower_inc_gamma
from keyhole.transport import TransportGeometry, receiving_region


def make_geometry(**kw):
    base = dict(w=20.0, L=100.0, eps=0.3, gap_center_x=50.0, x0=50.0, y0=-2.0)
    base.update(kw)
    return Geometry2D(**base)


@pytest.fixture(scope="module")
def model():
    return make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=6)


def test_mass_vanishes_with_gap(model):
    g = make_geometry(eps=1e-9)
    assert mass(g, model).total == pytest.approx(0.0, abs=1e-6)


def test_alpha_zero_leaves_direct_term_only():
    g = make_geometry()
    m = make_channel_model(K=4.0, beta=1e-3, alpha=0.0, C=6)
    br = mass(g, m)
    assert br.per_c[0][1] > 0.0
    assert all(v == 0.0 for c, v in br.per_c if c >= 1)


def test_breakdown_total_consistency(model):
    br = mass(make_geometry(), model)
    assert br.total == pytest.approx(sum(v for _, v in br.per_c), rel=1e-12)
    assert all(v >= 0.0 for _, v in br.per_c)


def test_left_only_is_half_of_both(model):
    g2 = make_geometry()
    g1 = make_geometry(sides="left_only")
    assert mass(g1, model).total == pytest.approx(
        0.5 * mass(g2, model).total, rel=1e-9)
    # the bridge term halves too, on the small box where it is not negligible
    both, left = (make_geometry(**SMALL_BOX, sides=sides) for sides in ("both", "left_only"))
    inputs = ClusterInputs(rho=0.05, V=both.w * both.L)
    assert internal_isolation_bridge_term(left, model, inputs) == pytest.approx(
        0.5 * internal_isolation_bridge_term(both, model, inputs), rel=1e-14, abs=0.0)


def test_closed_form_direct_term_structure(model):
    g = make_geometry(sides="left_only")
    theta = g.theta()
    lam = model.lambda_coeff(0)
    mu = model.fit.mu
    s = 2.0 / mu
    leading = theta * (lower_inc_gamma(s, lam * 22.0 ** mu)
                       - lower_inc_gamma(s, lam * 2.0 ** mu)) / (mu * lam ** s)
    cubic = (theta ** 3 / 6.0) * (22.0 ** 2 * math.exp(-lam * 22.0 ** mu)
                                  - 2.0 ** 2 * math.exp(-lam * 2.0 ** mu))
    got = mass(g, model, "closed_form").per_c[0][1]
    assert got == pytest.approx(leading + cubic, rel=1e-12)


def test_closed_form_direct_region_converges(model):
    # the c = 0 relative expansion error falls as theta^4, about 16x per
    # halving of the gap; a wrong second-order coefficient leaves theta^2,
    # about 4x
    gaps = []
    for eps in (0.8, 0.4, 0.2, 0.1, 0.05):
        g = make_geometry(eps=eps, sides="left_only")
        closed = mass(g, model, "closed_form").per_c[0][1]
        gaps.append(abs(closed / mass(g, model).per_c[0][1] - 1.0))
    assert all(a >= 10.0 * b for a, b in zip(gaps, gaps[1:])), gaps


def test_truncation_drops_reflected_mass():
    g = make_geometry()
    m6 = make_channel_model(K=4.0, beta=1e-3, alpha=1.0, C=6)
    m0 = make_channel_model(K=4.0, beta=1e-3, alpha=1.0, C=0)
    full = mass(g, m6)
    direct = mass(g, m0)
    assert direct.total == pytest.approx(full.per_c[0][1], rel=1e-9)
    assert full.total > direct.total


@pytest.mark.parametrize("alpha", [0.5, 0.65, 0.8, 0.95, 1.0])
def test_closed_form_matches_quadrature(alpha):
    g = make_geometry()
    m = make_channel_model(K=4.0, beta=1e-3, alpha=alpha, C=6)
    quad = mass(g, m).total
    closed = mass(g, m, "closed_form").total
    assert abs(closed - quad) / quad <= 0.05


def test_mass_rejects_unknown_method(model):
    with pytest.raises(ValueError, match="unknown method"):
        mass(make_geometry(), model, "expansion")


def test_closed_form_warns_at_large_theta(model):
    g = make_geometry(eps=15.0, y0=-0.5, gap_center_x=50.0)
    with pytest.warns(UserWarning):
        mass(g, model, "closed_form")


def test_mass_monotonicity_in_parameters(model):
    totals_eps = [mass(make_geometry(eps=e), model).total
                  for e in (0.1, 0.2, 0.3, 0.4, 0.5)]
    assert all(a < b for a, b in zip(totals_eps, totals_eps[1:]))

    totals_alpha = [mass(make_geometry(),
                                 make_channel_model(K=4.0, beta=1e-3, alpha=a, C=6)).total
                    for a in (0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(totals_alpha, totals_alpha[1:]))

    totals_w = [mass(make_geometry(w=w), model).total
                for w in (10.0, 15.0, 20.0)]
    assert all(a < b for a, b in zip(totals_w, totals_w[1:]))

    totals_y0 = [mass(make_geometry(y0=y), model).total
                 for y in (-4.0, -2.0, -1.0, -0.5)]
    assert all(a < b for a, b in zip(totals_y0, totals_y0[1:]))


def test_reflection_contributions_decay(model):
    g = make_geometry(w=15.0)
    br = mass(g, model)   # alpha = 0.75
    values = [v for _, v in br.per_c if v > 1e-12 * br.total]
    assert all(a > b for a, b in zip(values, values[1:]))
    # the tail stays below 1% across the whole reflectivity sweep
    for alpha in (0.5, 0.75, 1.0):
        m = make_channel_model(K=4.0, beta=1e-3, alpha=alpha, C=6)
        br = mass(g, m)
        tail = sum(v for c, v in br.per_c if c >= 3)
        assert tail / br.total < 0.01


def test_isolation_probability_basics():
    inputs = ClusterInputs(rho=0.1, V=2000.0)
    assert exterior_isolation_prob(0.0, inputs) == 1.0
    assert exterior_isolation_prob(12.0, ClusterInputs(rho=0.0, V=10.0)) == 1.0
    assert exterior_isolation_prob(12.0, inputs) == pytest.approx(math.exp(-1.2))


def test_isolation_log_linear_in_gap(model):
    rho = 0.1
    eps_grid = np.linspace(0.1, 0.5, 9)
    logs = [math.log(exterior_isolation_prob(
        mass(make_geometry(eps=e), model).total,
        ClusterInputs(rho=rho, V=2000.0))) for e in eps_grid]
    slope, intercept = np.polyfit(eps_grid, logs, 1)
    pred = slope * eps_grid + intercept
    ss_res = float(np.sum((np.array(logs) - pred) ** 2))
    ss_tot = float(np.sum((np.array(logs) - np.mean(logs)) ** 2))
    assert slope < 0.0
    assert 1.0 - ss_res / ss_tot > 0.99


def test_cluster_inputs_validation():
    assert ClusterInputs(rho=0.0, V=10.0).rho == 0.0
    with pytest.raises(ValueError, match="V"):
        ClusterInputs(rho=0.1, V=0.0)
    with pytest.raises(ValueError, match="rho"):
        ClusterInputs(rho=-0.1, V=2000.0)
    with pytest.raises(TypeError):
        ClusterInputs(N=100.0, V=2000.0)          # the node count is rho V


def test_internal_first_term_trivial_limits(model):
    g = make_geometry()
    assert internal_isolation_first_term(
        g, model, ClusterInputs(rho=0.0, V=2000.0)) == 0.0
    big = internal_isolation_first_term(
        g, model, ClusterInputs(rho=0.2, V=2000.0))
    huge = internal_isolation_first_term(
        g, model, ClusterInputs(rho=2.0, V=2000.0))
    assert huge < big


def test_internal_first_term_oracles_agree_small_domain(model):
    # oracle: SciPy quadrature of the inner surrogate integral (a product of
    # two 1-D profiles) inside a SciPy double integral over the box; the box
    # is small to keep it fast
    g = make_geometry(w=8.0, L=14.0, gap_center_x=7.0, x0=7.0)
    rho = 0.05
    lam_hat = model.gaussian_coeff(0)

    def profile(t, length):
        return integrate.quad(lambda u: math.exp(-lam_hat * (u - t) ** 2), 0.0, length,
                              epsabs=0.0, epsrel=1e-13)[0]

    want = rho * integrate.dblquad(
        lambda y, x: math.exp(-rho * profile(x, g.L) * profile(y, g.w)),
        0.0, g.L, 0.0, g.w, epsabs=0.0, epsrel=1e-13)[0]
    got = internal_isolation_first_term(g, model, ClusterInputs(rho=rho, V=g.w * g.L))
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_internal_bridge_trivial_limits(model):
    g = make_geometry()
    assert internal_isolation_bridge_term(
        g, model, ClusterInputs(rho=0.0, V=2000.0)) == 0.0
    strong = make_channel_model(K=4.0, beta=50.0, alpha=0.75, C=6)
    assert internal_isolation_bridge_term(
        g, strong, ClusterInputs(rho=0.1, V=2000.0)) == pytest.approx(0.0, abs=1e-30)


def test_internal_terms_negligible_at_reference(model):
    g = make_geometry()
    inputs = ClusterInputs(rho=0.1, V=2000.0)
    ext = exterior_isolation_prob(mass(g, model).total, inputs)
    first = internal_isolation_first_term(g, model, inputs)
    bridge = internal_isolation_bridge_term(g, model, inputs)
    assert first <= ext / 10.0
    assert bridge <= ext / 10.0


def test_full_connectivity_assembly(model):
    g = make_geometry()
    res = full_connectivity_first_order(g, model, ClusterInputs(rho=0.1, V=2000.0))
    assert 0.0 <= res.p_fc <= 1.0
    assert res.p_fc == pytest.approx(1.0 - res.exterior_isolation, abs=1e-6)
    assert not res.clamped

    sparse = full_connectivity_first_order(
        make_geometry(eps=1e-8), model, ClusterInputs(rho=0.1, V=2000.0))
    assert sparse.p_fc == pytest.approx(0.0, abs=1e-4)


def test_full_connectivity_dense_limit(model):
    g = make_geometry()
    res = full_connectivity_first_order(g, model, ClusterInputs(rho=5.0, V=2000.0))
    assert res.p_fc == pytest.approx(1.0, abs=1e-6)


def test_full_connectivity_rejects_non_finite_term():
    # a wide cone runs D_2 far past the strip ends (to x = -146), where the
    # bridge integrand overflows; a clamp would report p_fc = 1
    g = make_geometry(eps=2.0, gap_center_x=40.0, x0=40.5, y0=-0.5)
    m = make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=6)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="bridge term is inf"):
        full_connectivity_first_order(g, m, ClusterInputs(rho=0.3, V=g.w * g.L))


def opposite_gaps():
    return TransportGeometry(w=10.0, L=100.0, case="opposite", x_l1=15.0,
                             x_l2=15.3, x_u1=14.5, x_u2=14.8,
                             node0=(15.15, -2.0), node1=(14.65, 12.0))


def same_side_gaps():
    return TransportGeometry(w=10.0, L=100.0, case="same_side", x_l1=14.0,
                             x_l2=16.0, x_l3=23.0, x_l4=26.0,
                             node0=(15.0, -2.0), node1=(25.0, -2.0))


def axis_geometry_3d():
    return Geometry3D(w=20.0, L=100.0, gap_radius=0.1, gap_center=(50.0, 50.0),
                      x0=50.0, y0=50.0, z0=-2.0)


def adaptive_region_mass(region, model, dim, floor):
    """Reference for region_mass: the adaptive rule over the same integrand,
    to 1e-12 relative but no finer than the absolute ``floor``."""
    lam = model.lambda_coeff(region.c)
    p = model.radial_exponent()
    s = dim / p

    def f(phi):
        r_hi = float(region.r_max(phi))
        r_lo = min(float(region.r_min(phi)), r_hi)
        radial = lam ** (-s) / p * (lower_inc_gamma(s, lam * r_hi ** p)
                                    - lower_inc_gamma(s, lam * r_lo ** p))
        return radial * math.sin(phi) if dim == 3 else radial

    width = region.phi_max - region.phi_min
    scale = width * max(abs(f(region.phi_min + t * width)) for t in np.linspace(0.05, 0.95, 10))
    if scale == 0.0:
        # the gamma difference underflows (far regions at strong loss)
        return 0.0
    return integrate_adaptive(f, region.phi_min, region.phi_max, max(1e-12 * scale, floor))


REGION_CASES = {
    # x0 off the gap centre, so the two sides have different escape angles
    "2d_both_sides": (lambda: [region_bounds(make_geometry(x0=50.1), c, th)
                               for c in range(7)
                               for th in make_geometry(x0=50.1).side_thetas()], 2),
    "3d_on_axis": (lambda: [region_bounds_3d(axis_geometry_3d(), c) for c in range(7)], 3),
    "case1": (lambda: [receiving_region(opposite_gaps(), c) for c in range(7)], 2),
    "case2": (lambda: [receiving_region(same_side_gaps(), c) for c in range(7)], 2),
}


@pytest.mark.parametrize("beta", [1e-3, 1e-4])
@pytest.mark.parametrize("name", sorted(REGION_CASES))
def test_region_mass_matches_adaptive_rule(name, beta):
    m = make_channel_model(K=4.0, beta=beta, alpha=0.75, C=6)
    build, dim = REGION_CASES[name]
    regions = build()
    got = region_mass(regions, m, dim)
    assert got.shape == (len(regions),)
    # far regions are gamma(s, hi) - gamma(s, lo) with both near Gamma(s), so
    # both rules carry rounding of about 1e-16 of the total there
    total = got.sum()
    compared = 0
    for region, value in zip(regions, got):
        want = 0.0 if region.empty else adaptive_region_mass(region, m, dim, 1e-15 * total)
        assert value == pytest.approx(want, rel=1e-10, abs=1e-14 * total), (region.c, value, want)
        compared += want > 1e-10 * total
    assert compared >= 2


def test_region_mass_inverted_bounds_add_nothing(model):
    # angles where r_min > r_max hold no points, so they must not subtract
    inverted = ReflectionRegion(c=1, phi_min=0.1, phi_max=0.2,
                                inner=(5.0, 1.0, 0.0), outer=(4.0, 1.0, 0.0))
    assert region_mass([inverted], model)[0] == 0.0


def test_far_region_masses_keep_relative_accuracy():
    # at beta=1e-4 the c=6 mass is 1e-16 of Gamma(s) lambda^-s / p, where a
    # difference of two lower gamma values is rounding noise (15% off)
    m = make_channel_model(K=4.0, beta=1e-4, alpha=0.75, C=6)
    regions = [region_bounds_3d(axis_geometry_3d(), c) for c in range(7)]
    p = m.radial_exponent()
    for region, value in zip(regions, region_mass(regions, m, dim=3)):
        lam = m.lambda_coeff(region.c)
        want = integrate.dblquad(
            lambda r, phi: math.exp(-lam * r ** p) * r * r * math.sin(phi),
            region.phi_min, region.phi_max,
            lambda phi: min(float(region.r_min(phi)), float(region.r_max(phi))),
            lambda phi: float(region.r_max(phi)), epsabs=0.0, epsrel=1e-13)[0]
        assert value == pytest.approx(want, rel=1e-9, abs=0.0), region.c


FIG4 = dict(w=20.0, L=100.0, gap_center_x=50.0, x0=50.0)
SMALL_BOX = dict(w=8.0, L=14.0, gap_center_x=7.0, x0=7.0)


# values of the nested adaptive rule these terms used before Gauss-Legendre,
# except where noted
@pytest.mark.parametrize("term, box, rho, beta, want", [
    ("first", FIG4, 0.02, 1e-3, 2.7737513263514168e-05),
    ("first", SMALL_BOX, 0.05, 1e-3, 0.025504874930475787),
    # corner-dominated: nested scipy.integrate.quad at epsrel 1e-13 (the
    # adaptive rule was 1.7e-6 high here)
    ("first", FIG4, 0.3, 1e-3, 1.873408507385519e-71),
    ("bridge", FIG4, 0.01, 1e-3, 8.33690294807153e-06),
    ("bridge", SMALL_BOX, 0.05, 1e-3, 0.0038558761971446234),
    # a node-0 peak a few thousandths wide at the wall: needs the graded rule;
    # nested scipy.integrate.quad in polar form at epsrel 1e-13
    ("bridge", FIG4, 0.1, 50.0, 6.104875159146211e-81),
], ids=["first-fig4-rho0.02", "first-smallbox-rho0.05", "first-fig4-rho0.3",
        "bridge-fig4-rho0.01", "bridge-smallbox-rho0.05", "bridge-fig4-beta50"])
def test_internal_terms_pinned(term, box, rho, beta, want):
    g = make_geometry(**box)
    m = make_channel_model(K=4.0, beta=beta, alpha=0.75, C=6)
    inputs = ClusterInputs(rho=rho, V=g.w * g.L)
    if term == "first":
        got = internal_isolation_first_term(g, m, inputs)
    else:
        got = internal_isolation_bridge_term(g, m, inputs)
    assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def bridge_monte_carlo(g, model, rho, n, seed, c_limit=2):
    """The bridge term as a volume integral over the strip by uniform
    sampling: each point takes its minimal reflection count and unfolded
    offsets from the kernels' classifier. Returns (estimate, standard error).
    """
    lam_hat, sigma_x, sigma_y, log_pref = mass2d._interior_setup(g, model, rho)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, g.L, n)
    y = rng.uniform(0.0, g.w, n)
    dx = x - g.x0
    node0, entry, depth, _ = g.mc_setup()
    c, vert = _kernels.min_reflections(node0[:1], (dx,), y, depth, g.w,
                                       range(c_limit + 1), entry)
    hit = c >= 0
    lam_bar = lam_hat * model.alpha ** -c[hit].astype(float)
    f = np.zeros(n)
    f[hit] = np.exp(log_pref - lam_bar * (dx[hit] ** 2 + vert[hit] ** 2)
                    + sigma_y * (y[hit] - 0.5 * g.w) ** 2
                    + sigma_x * (x[hit] - 0.5 * g.L) ** 2)
    scale = rho * g.L * g.w
    return scale * f.mean(), scale * f.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("layout", [{}, {"sides": "left_only"}, {"x0": 7.1}],
                         ids=["centred", "left_only", "off_centre"])
def test_internal_bridge_matches_monte_carlo(layout):
    # one side only, or node 0 off the gap centre, so the two sides differ
    g = make_geometry(**{**SMALL_BOX, **layout})
    m = make_channel_model(K=4.0, beta=1e-3, alpha=0.75, C=6)
    got = internal_isolation_bridge_term(g, m, ClusterInputs(rho=0.05, V=g.w * g.L))
    want, se = bridge_monte_carlo(g, m, 0.05, 400_000, seed=8)
    assert abs(got - want) <= 4.0 * se, (got, want, se)


def bridge_nested_quadrature(g, model, rho, c_limit=2):
    """The bridge term by nested ``scipy.integrate.quad`` over each region in
    Cartesian form: at each height y, D_c spans the offsets from x0 between
    the images of the cone edge after c - 1 and after c reflections."""
    lam_hat, sigma_x, sigma_y, log_pref = mass2d._interior_setup(g, model, rho)
    edges = np.linspace(0.0, g.w, 41)
    total = 0.0
    for c in range(c_limit + 1):
        lam_bar = lam_hat * model.alpha ** -c
        for sign, th in zip((-1.0, 1.0), g.side_thetas()):
            def f(dx, y):
                vert = y_image(c, y, g.w) + g.abs_y0
                return math.exp(log_pref - lam_bar * (dx * dx + vert * vert)
                                + sigma_y * (y - 0.5 * g.w) ** 2
                                + sigma_x * (g.x0 + sign * dx - 0.5 * g.L) ** 2)

            def row(y):
                near = 0.0 if c == 0 else (y_image(c - 1, y, g.w) + g.abs_y0) * math.tan(th)
                far = (y_image(c, y, g.w) + g.abs_y0) * math.tan(th)
                return integrate.quad(f, near, far, args=(y,), epsabs=0.0,
                                      epsrel=1e-13, limit=200)[0]

            total += sum(integrate.quad(row, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for a, b in zip(edges[:-1], edges[1:]))
    return rho * total


@pytest.mark.parametrize("box, beta, rho", [
    (FIG4, 1e-3, 0.1),
    (dict(w=20.0, L=100.0, eps=1.0, gap_center_x=40.0, x0=39.7), 1e-4, 0.3),
])
def test_internal_bridge_matches_nested_quadrature(box, beta, rho):
    # at these densities the wall layers are a few percent of w thick, and
    # where a wall meets the slanted side of a reflected region they are
    # layers in angle as well; 16-point Gauss-Legendre in angle is 1e-7 off
    g = make_geometry(**box)
    m = make_channel_model(K=4.0, beta=beta, alpha=0.75, C=6)
    got = internal_isolation_bridge_term(g, m, ClusterInputs(rho=rho, V=g.w * g.L))
    assert got == pytest.approx(bridge_nested_quadrature(g, m, rho), rel=1e-10, abs=0.0)


def test_mass_paths_do_not_use_adaptive_rule(monkeypatch, model):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature on a mass path")

    original = specfun.integrate_adaptive
    for name, module in list(sys.modules.items()):
        if name.startswith("keyhole") and \
                getattr(module, "integrate_adaptive", None) is original:
            monkeypatch.setattr(module, "integrate_adaptive", refuse)
    assert specfun.integrate_adaptive is refuse
    on_axis = axis_geometry_3d()
    off_axis = Geometry3D(w=20.0, L=100.0, gap_radius=0.1, gap_center=(50.0, 50.0),
                          x0=50.05, y0=50.0, z0=-2.0)
    assert mass(make_geometry(), model).total > 0.0
    assert mass(on_axis, model).total > 0.0
    assert mass(off_axis, model).total > 0.0
    assert mass(opposite_gaps(), model).total > 0.0
    assert mass(same_side_gaps(), model).total > 0.0
    fc = full_connectivity_first_order(make_geometry(), model,
                                       ClusterInputs(rho=0.1, V=2000.0))
    assert 0.0 < fc.p_fc < 1.0
