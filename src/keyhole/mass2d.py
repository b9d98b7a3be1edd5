"""Planar connectivity mass and first-order full-connectivity assembly.

The connectivity mass integrates the pair-connection surrogate over the
reflection regions D_c, each a ``geometry2d.ReflectionRegion`` (an angle
window between two bounding lines). Two routes take lists of regions, in
2-D, in 3-D and for transport: :func:`region_mass`, the quadrature
(authoritative; exact in r, Gauss-Legendre in angle), and
:func:`region_expansion`, its small-angle closed form. :func:`mass` runs
either one over the ``RegionSet`` of any layout. The isolation probability
of the external node is exp(-rho * mass).

:func:`full_connectivity_first_order` corrects it with two interior-isolation
terms, each with one route on the Gaussian surrogate: the first term, whose
exact erf-product inner integral is integrated on a graded tensor rule over
the box, and the bridge term, integrated over each polar reflection region
up to c = 2 on a rule graded in angle and in r.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import special

from .channel import ChannelModel
from .geometry2d import Geometry2D, line_radius, region_bounds
# integrate_adaptive is unused here but stays bound: perfbench's tracer test
# checks that it is patched as mass2d.integrate_adaptive
from .specfun import integrate_adaptive, lower_inc_gamma  # noqa: F401


@dataclass(frozen=True)
class MassBreakdown:
    """Per-reflection-count contributions to the connectivity mass."""

    per_c: Tuple[Tuple[int, float], ...]
    total: float
    method: str                # "closed_form" or "quadrature"

    @staticmethod
    def from_contributions(per_c, method) -> "MassBreakdown":
        per_c = tuple((int(c), float(v)) for c, v in per_c)
        return MassBreakdown(per_c=per_c, total=float(sum(v for _, v in per_c)),
                             method=method)


@dataclass
class ClusterInputs:
    """Node density ``rho`` of the interior and its domain measure ``V``."""

    rho: float
    V: float

    def __post_init__(self):
        if self.V is None or self.V <= 0.0:
            raise ValueError("domain measure V must be given and positive")
        if self.rho is None or self.rho < 0.0:
            raise ValueError("rho must be given and non-negative")


_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _bound_lines(regions):
    """Inner and outer bounding lines of the regions, each as the columns
    (p, cn, sn) of :func:`geometry2d.line_radius`, one entry per region."""
    return np.array([(reg.inner, reg.outer) for reg in regions]).transpose(1, 2, 0)


def _angle_nodes(regions, nodes):
    """Angles at a rule's ``nodes`` on [-1, 1], one row per region, half of
    each angular width, and the radial bounds there, r_lo clamped to r_hi."""
    lo = np.array([reg.phi_min for reg in regions])
    hi = np.array([reg.phi_max for reg in regions])
    half = 0.5 * (hi - lo)
    phi = (0.5 * (hi + lo) + half * nodes[:, None]).T
    inner, outer = _bound_lines(regions)[..., None]
    r_hi = line_radius(outer, phi)
    r_lo = np.minimum(line_radius(inner, phi), r_hi)
    return phi, half, r_lo, r_hi


def _live(regions, model: ChannelModel):
    """Indices and decay coefficients of the regions that can carry mass: non-empty,
    of positive width and linked (reflected links vanish at alpha = 0)."""
    lam = model.lambda_coeff(np.array([reg.c for reg in regions], dtype=np.int64))
    live = [i for i, reg in enumerate(regions)
            if not reg.empty and reg.phi_max > reg.phi_min and lam[i] < math.inf]
    return live, lam[live]


def region_mass(regions, model: ChannelModel, dim: int = 2) -> np.ndarray:
    """Surrogate mass of each reflection region, one array entry per region.

    The mass of D_c is the integral of exp(-lambda_c r^p) r^(dim-1) over
    r in [r_min(phi), r_max(phi)] and phi in [phi_min, phi_max], with an
    extra sin(phi) in 3-D, where phi is the inclination and the azimuth is
    left to the caller. The radial integral is exact through the
    incomplete gamma functions, the upper one where lambda_c r_min^p >
    max(s, 1.1) with s = dim/p; the angular one is 16-point
    Gauss-Legendre, done for all regions in one array pass. Angles where
    r_min exceeds r_max add nothing. Empty or zero-width regions, and
    reflected regions at alpha = 0, have mass 0.
    """
    out = np.zeros(len(regions))
    live, lam = _live(regions, model)
    if not live:
        return out
    p = model.radial_exponent()
    s = dim / p
    phi, half, r_lo, r_hi = _angle_nodes([regions[i] for i in live], _GL16_NODES)
    x = lam[:, None] * np.stack([r_hi, r_lo]) ** p
    # far out both lower gamma values sit near Gamma(s) and their
    # difference is rounding noise; the upper function keeps it accurate.
    # Not below x = 1.1: SciPy's upper function takes a series there that is
    # about 70 times slower, and the lower difference loses at most a digit
    upper = x[1] > max(s, 1.1)
    radial = np.empty(upper.shape)
    gam = lower_inc_gamma(s, x[:, ~upper])
    radial[~upper] = gam[0] - gam[1]
    q = special.gammaincc(s, x[:, upper])
    radial[upper] = special.gamma(s) * (q[1] - q[0])
    if dim == 3:
        radial *= np.sin(phi)
    out[live] = lam ** (-s) / p * half * (radial @ _GL16_WEIGHTS)
    return out


def region_expansion(regions, model: ChannelModel, dim: int, about) -> np.ndarray:
    """Small-angle closed form of :func:`region_mass` (eta = 2 only), one
    entry per region.

    ``about`` holds one pair (phi_in, phi_out) per region, the angles about
    which the inner and the outer bound are expanded. A bound line at
    distance p_l with normal angle phi_n has r(phi) = p_l / cos(phi - phi_n);
    its gamma(s, lam r^p), s = dim/p, is expanded to second order about its
    angle phi_c. With r_c = r(phi_c), x = lam r_c^p, t = tan(phi_c - phi_n)
    and a = p lam^s r_c^dim e^-x the bound's term is

        M0 gamma(s, x) + a t M1 + a/2 ((dim - p x) t^2 + 1 + t^2) M2,

    with M_k the integral of (phi - phi_c)^k, times sin(phi) in 3-D, over
    the region's angles, on the Gauss-Legendre nodes of :func:`region_mass`.
    The mass is lam^-s / p (outer term - inner term), clamped at 0.

    The series is accurate where the bound's r varies little over the
    window. The inner bound of a reflected escape region (c >= 1) does not:
    it runs from about 2 (c w + d) / (1 + k) to c w + d, with d the node's
    depth and k = tan(phi_min) / tan(theta) = ((c-1) w + d) / ((c+1) w + d),
    however small theta is. So those per-c values do not converge as the gap
    closes (w = 20, d = 2, gaps 0.8 to 0.05: c = 1 stays 1.5e-3 to 1.9e-3
    off the quadrature in 2-D and 2.3e-2 in 3-D, c = 2 99% off). The direct
    region converges as theta^4, and c <= 1 dominates the totals.
    """
    if model.eta != 2.0:
        raise ValueError("the closed form is derived for eta = 2")
    out = np.zeros(len(regions))
    live, lam = _live(regions, model)
    if not live:
        return out
    p = model.radial_exponent()
    s = dim / p
    regs = [regions[i] for i in live]
    # rows (inner, outer) of each bound's expansion angle and line
    phi_c = np.asarray(about, dtype=float)[live].T
    pl, cn, sn = _bound_lines(regs).transpose(1, 0, 2)
    den = cn * np.cos(phi_c) + sn * np.sin(phi_c)
    t = (cn * np.sin(phi_c) - sn * np.cos(phi_c)) / den
    r_c = pl / den
    x = lam * r_c ** p
    a = p * lam ** s * r_c ** dim * np.exp(-x)
    phi, half, _, _ = _angle_nodes(regs, _GL16_NODES)
    d = phi - phi_c[:, :, None]
    weight = np.sin(phi) if dim == 3 else 1.0
    m0, m1, m2 = (half * ((d ** k * weight) @ _GL16_WEIGHTS) for k in range(3))
    term = (m0 * lower_inc_gamma(s, x) + a * t * m1
            + 0.5 * a * ((dim - p * x) * t * t + 1.0 + t * t) * m2)
    out[live] = np.maximum(lam ** (-s) / p * (term[1] - term[0]), 0.0)
    return out


def mass(geometry, model: ChannelModel, method: str = "quadrature") -> MassBreakdown:
    """Connectivity mass of any layout, per reflection count.

    ``geometry.regions(model)`` says what to integrate and ``method`` how:
    ``quadrature`` (authoritative; :func:`region_mass`) or ``closed_form``
    (:func:`region_expansion`, eta = 2 only). Each count's regions are
    summed, then scaled. The closed form raises where the layout derives
    none and warns where the layout's caveat says so. Only its total is held
    to the quadrature; see :func:`region_expansion` on per-c values.
    """
    rs = geometry.regions(model)
    if method == "quadrature":
        values = region_mass(rs.regions, model, rs.dim)
    elif method == "closed_form":
        if rs.about is None:
            raise ValueError(rs.caveat)
        if rs.caveat:
            warnings.warn(rs.caveat, stacklevel=2)
        values = region_expansion(rs.regions, model, rs.dim, rs.about)
    else:
        raise ValueError(f"unknown method: {method!r}")
    if rs.counts:
        values = rs.scale * values.reshape(len(rs.counts), -1).sum(axis=1)
    return MassBreakdown.from_contributions(zip(rs.counts, values), method)


def exterior_isolation_prob(mass_total: float, inputs: ClusterInputs) -> float:
    """Probability that the external node links to no interior node."""
    if mass_total < 0.0:
        raise ValueError("mass must be non-negative")
    return math.exp(-inputs.rho * mass_total)


def multi_external_bridge_prob(p_single: float, M: int) -> float:
    """Chance that at least one of M independent external nodes bridges in."""
    if not (0.0 <= p_single <= 1.0):
        raise ValueError("p_single must be a probability")
    if M < 1:
        raise ValueError("M must be at least 1")
    return 1.0 - (1.0 - p_single) ** M


# ---------------------------------------------------------------------------
# Interior-node isolation terms (first-order correction to full connectivity)
# ---------------------------------------------------------------------------

def _erf_box_factor(t, length: float, lam_hat: float):
    rt = math.sqrt(lam_hat)
    return special.erf((length - t) * rt) + special.erf(t * rt)


def _graded_unit_rule(order: int = 8, levels: int = 24):
    """Composite Gauss-Legendre nodes and weights on [0, 1].

    Panels halve toward both ends (each half is cut at 2^-k / 2 for
    k = 1..levels), so a boundary layer or a narrow peak at either end is
    resolved down to a width of 2^-(levels+1).
    """
    x, wt = np.polynomial.legendre.leggauss(order)
    edges = np.concatenate(([0.0], 0.5 ** np.arange(levels + 1, 0, -1)))
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = (mid + half * x).ravel()
    weights = (half * wt).ravel()
    return (np.concatenate((nodes, 1.0 - nodes[::-1])),
            np.concatenate((weights, weights[::-1])))


_GRADED_NODES, _GRADED_WEIGHTS = _graded_unit_rule()
# the bridge term's polar rule: in angle the graded rule with 4 levels (80
# nodes) on [-1, 1]; in r the default one as the powers 1, t, t^2 of its
# nodes and its weights w and w t
_t, _w = _graded_unit_rule(levels=4)
_BRIDGE_ANGLE_NODES, _BRIDGE_ANGLE_WEIGHTS = 2.0 * _t - 1.0, 2.0 * _w
_BRIDGE_R_POWERS = np.stack((np.ones_like(_GRADED_NODES), _GRADED_NODES, _GRADED_NODES ** 2))
_BRIDGE_R_MOMENTS = np.stack((_GRADED_WEIGHTS, _GRADED_WEIGHTS * _GRADED_NODES), axis=1)
# highest reflection count in the bridge term: each reflection moves a region
# one strip width farther from node 0 and divides the surrogate's decay by
# alpha, so the regions beyond c = 2 add a negligible share
_BRIDGE_C_MAX = 2


def _graded_rule(lo: float, hi: float):
    """The graded rule of :func:`_graded_unit_rule` mapped to [lo, hi]."""
    return lo + (hi - lo) * _GRADED_NODES, (hi - lo) * _GRADED_WEIGHTS


def _interior_setup(g: Geometry2D, model: ChannelModel, rho: float):
    """Constants of the bridge term's exponent.

    Returns (lam_hat, sigma_x, sigma_y, log_pref): the Gaussian-surrogate
    decay, the curvatures of the exponent rho * pi/(4 lam_hat) Ex(x) Ey(y)
    about the domain centre along x and y, and minus its value there.
    """
    lam_hat = model.gaussian_coeff(0)
    L, w = g.L, g.w
    rt = math.sqrt(lam_hat)
    erf_l = math.erf(0.5 * L * rt)
    erf_w = math.erf(0.5 * w * rt)
    tau1 = 2.0 / math.sqrt(math.pi) * L * lam_hat ** 1.5 * math.exp(-lam_hat * L * L / 4.0)
    tau2 = 2.0 / math.sqrt(math.pi) * w * lam_hat ** 1.5 * math.exp(-lam_hat * w * w / 4.0)
    # curvature of the x-profile (tau1) pairs with the transverse erf factor
    sigma_x = rho * math.pi * tau1 * erf_w / (2.0 * lam_hat)
    sigma_y = rho * math.pi * tau2 * erf_l / (2.0 * lam_hat)
    log_pref = -rho * math.pi / lam_hat * erf_l * erf_w
    return lam_hat, sigma_x, sigma_y, log_pref


def internal_isolation_first_term(g: Geometry2D, model: ChannelModel,
                                  inputs: ClusterInputs) -> float:
    """First interior-isolation term rho * int exp(-rho * int H1N) d r_N.

    Interior links ignore reflections and use the Gaussian surrogate with
    exponent pinned to 2, so the inner integral is the exact erf product
    pi/(4 lam_hat) Ex(x) Ey(y). The outer one is a graded Gauss-Legendre
    tensor rule over the box, which resolves the wall and corner layers
    that dominate at high density.
    """
    rho = inputs.rho
    lam_hat = model.gaussian_coeff(0)
    if rho == 0.0:
        return 0.0
    # the outer integral is a matrix product on the graded tensor rule
    # (built in place: the grid is 400 x 400)
    x, wx = _graded_rule(0.0, g.L)
    y, wy = _graded_rule(0.0, g.w)
    grid = np.outer(_erf_box_factor(x, g.L, lam_hat), _erf_box_factor(y, g.w, lam_hat))
    grid *= -rho * math.pi / (4.0 * lam_hat)
    return rho * float(wx @ np.exp(grid, out=grid) @ wy)


def internal_isolation_bridge_term(g: Geometry2D, model: ChannelModel,
                                   inputs: ClusterInputs) -> float:
    """Interior-isolation correction that couples node 0 to the lone node.

    Evaluates rho * int H0N (1 - (1/V) int H1N)^(N-1) d r_N with Gaussian
    surrogates for both link factors, summed over reflection regions up to
    c = 2 on each side of node 0 in ``g.side_thetas()``, the polar regions
    of :func:`geometry2d.region_bounds`. Each region is integrated in polar
    form, with the Jacobian r, on a tensor rule graded toward both ends in
    angle and in r: where a wall meets the slanted side of a reflected
    region, its boundary layer is a layer in angle too.
    """
    rho = inputs.rho
    _, sigma_x, sigma_y, log_pref = _interior_setup(g, model, rho)
    # the Gaussian decay of each count; reflected links vanish at alpha = 0
    decay = model.gaussian_coeff(np.arange(min(_BRIDGE_C_MAX, model.C) + 1))
    # (side sign, region) for each linked count and each side with an escape
    # cone: the left side runs toward -x, the right toward +x
    parts = [(sign, region_bounds(g, c, th))
             for c in range(decay.size) if decay[c] < math.inf
             for sign, th in zip((-1.0, 1.0), g.side_thetas()) if th > 0.0]
    if rho == 0.0 or not parts:
        return 0.0
    signs, regions = zip(*parts)
    c = np.array([reg.c for reg in regions])
    # in unfolded offsets (u, v) from node 0 the integrand is exp(log_pref
    # - lam (u^2 + v^2) + sigma_x (u - cx)^2 + sigma_y (v - cy)^2): the
    # domain centre sits at cx across and, as unfolding maps y = w/2 to
    # height (c + 1/2) w, at cy up
    cx = np.array(signs) * (0.5 * g.L - g.x0)
    cy = g.abs_y0 + (c + 0.5) * g.w
    phi, half, r_lo, r_hi = _angle_nodes(regions, _BRIDGE_ANGLE_NODES)
    cos, sin, lam = np.cos(phi), np.sin(phi), decay[c][:, None]
    # along each ray r = r_lo + width t the exponent is e0 + e1 t + e2 t^2,
    # with log_pref inside so it stays representable at high density
    width = r_hi - r_lo
    du, dv = r_lo * sin - cx[:, None], r_lo * cos - cy[:, None]
    e0 = log_pref - lam * r_lo * r_lo + sigma_x * du * du + sigma_y * dv * dv
    e1 = 2.0 * width * (sigma_x * du * sin + sigma_y * dv * cos - lam * r_lo)
    e2 = width * width * (sigma_x * sin * sin + sigma_y * cos * cos - lam)
    expo = np.stack((e0, e1, e2), axis=-1) @ _BRIDGE_R_POWERS
    # the Jacobian r = r_lo + width t splits into the two moments
    moments = np.exp(expo, out=expo) @ _BRIDGE_R_MOMENTS
    inner = width * (r_lo * moments[..., 0] + width * moments[..., 1])
    return rho * float(half @ (inner @ _BRIDGE_ANGLE_WEIGHTS))


@dataclass(frozen=True)
class FullConnectivity:
    p_fc: float
    clamped: bool
    exterior_isolation: float
    internal_first: float
    internal_bridge: float


def full_connectivity_first_order(g: Geometry2D, model: ChannelModel,
                                  inputs: ClusterInputs) -> FullConnectivity:
    """First-order estimate of the probability that all nodes connect.

    One minus the external-node isolation probability, minus the interior
    lone-node term (:func:`internal_isolation_first_term`), plus the bridge
    term (:func:`internal_isolation_bridge_term`); clamped to [0, 1] with a
    flag because the first-order expansion can leave the unit interval at
    low density. A term that is not finite raises ``ValueError`` instead:
    clamping it would report a probability the terms do not support.

    An empty interior (N = 0, probability exp(-rho V)) counts as node 0
    isolated, since the exterior isolation exp(-rho m) includes it. The
    Monte Carlo ``event="full"`` of :func:`montecarlo.run_escape_isolation`
    counts it as connected instead, so it reads exp(-rho V) higher: 0.1065
    on the 8 x 14 box at rho = 0.02, negligible at every preset.
    """
    ext = exterior_isolation_prob(mass(g, model).total, inputs)
    first = internal_isolation_first_term(g, model, inputs)
    bridge = internal_isolation_bridge_term(g, model, inputs)
    for name, term in (("exterior isolation", ext), ("first interior term", first),
                       ("bridge term", bridge)):
        if not math.isfinite(term):
            raise ValueError(f"full connectivity: the {name} is {term}")
    raw = 1.0 - ext - first + bridge
    clamped = not (0.0 <= raw <= 1.0)
    return FullConnectivity(p_fc=min(1.0, max(0.0, raw)), clamped=clamped,
                            exterior_isolation=ext, internal_first=first,
                            internal_bridge=bridge)
