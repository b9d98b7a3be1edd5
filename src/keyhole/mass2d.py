"""Planar connectivity mass and first-order full-connectivity assembly.

The connectivity mass is the integral of the pair-connection probability H
over the reachable interior, summed over reflection regions. Two evaluation
routes are kept side by side: a quadrature route (authoritative; the radial
integral exact, fixed-order Gauss-Legendre in angle, see region_mass) and
the small-angle closed form with quadratic correction terms. The isolation
probability of the external node is exp(-rho * mass).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import special

from .channel import ChannelModel
from .geometry2d import Geometry2D, cartesian_bounds, region_bounds, y_image
from .specfun import fit_exponential_approx, integrate_adaptive, lower_inc_gamma


@dataclass(frozen=True)
class MassBreakdown:
    """Per-reflection-count contributions to the connectivity mass."""

    per_c: Tuple[Tuple[int, float], ...]
    total: float
    method: str                # "closed_form" or "quadrature"
    side_convention: str

    @staticmethod
    def from_contributions(per_c, method, side_convention) -> "MassBreakdown":
        per_c = tuple((int(c), float(v)) for c, v in per_c)
        return MassBreakdown(per_c=per_c, total=float(sum(v for _, v in per_c)),
                             method=method, side_convention=side_convention)


@dataclass
class ClusterInputs:
    """Node density, count and domain measure; any missing one is derived."""

    rho: Optional[float] = None
    N: Optional[float] = None
    V: Optional[float] = None

    def __post_init__(self):
        if self.V is None or self.V <= 0.0:
            raise ValueError("domain measure V must be given and positive")
        if self.rho is None and self.N is None:
            raise ValueError("give at least one of rho and N")
        if self.rho is None:
            self.rho = self.N / self.V
        elif self.N is None:
            self.N = self.rho * self.V
        elif abs(self.rho - self.N / self.V) > 1e-12 * max(1.0, abs(self.rho)):
            raise ValueError("inconsistent rho, N, V")
        if self.rho < 0.0:
            raise ValueError("rho must be non-negative")


_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


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
    live = [i for i, reg in enumerate(regions)
            if not reg.empty and reg.phi_max > reg.phi_min
            and math.isfinite(model.lambda_coeff(reg.c))]
    if not live:
        return out
    p = model.radial_exponent()
    s = dim / p
    lam = np.array([model.lambda_coeff(regions[i].c) for i in live])
    lo = np.array([regions[i].phi_min for i in live])
    hi = np.array([regions[i].phi_max for i in live])
    half = 0.5 * (hi - lo)
    phi = (0.5 * (hi + lo) + half * _GL16_NODES[:, None]).T
    r_hi = np.stack([regions[i].r_max(row) for i, row in zip(live, phi)])
    r_lo = np.minimum(np.stack([regions[i].r_min(row) for i, row in zip(live, phi)]),
                      r_hi)
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


def mass_numeric(g: Geometry2D, model: ChannelModel) -> MassBreakdown:
    """Connectivity mass by quadrature over the escape angle.

    The radial integral is done exactly through the incomplete-gamma
    antiderivative; only the angular integral is numerical (fixed-order
    Gauss-Legendre, see :func:`region_mass`), so this serves as the oracle
    for :func:`mass_closed_form`.
    """
    thetas = g.side_thetas()
    regions = [region_bounds(g, c, th) for c in range(model.C + 1) for th in thetas]
    per_c = region_mass(regions, model).reshape(model.C + 1, len(thetas)).sum(axis=1)
    return MassBreakdown.from_contributions(enumerate(per_c), "quadrature", g.sides)


def _per_c_closed_form(theta: float, w: float, ay0: float,
                       model: ChannelModel, c: int) -> float:
    lam = model.lambda_coeff(c)
    if math.isinf(lam):
        return 0.0
    mu = model.fit.mu
    s = 2.0 / mu
    pref = lam ** (-s) / mu

    if c == 0:
        r_lo = ay0
        r_hi = w + ay0
        leading = theta * (lower_inc_gamma(s, lam * r_hi ** mu)
                           - lower_inc_gamma(s, lam * r_lo ** mu))
        quad = (mu * theta ** 3 / 6.0) * lam ** s * (
            r_hi ** 2 * math.exp(-lam * r_hi ** mu)
            - r_lo ** 2 * math.exp(-lam * r_lo ** mu))
        return max(pref * (leading + quad), 0.0)

    phi_min = math.atan(((c - 1) * w + ay0) * math.tan(theta) / ((c + 1) * w + ay0))
    r_hi = (c + 1) * w + ay0
    u = 1.5 * theta
    # inner radial bound evaluated at the expansion point theta/2
    r0 = 2.0 * (c * w + ay0) * math.sin(theta) / math.sin(u)

    leading = (theta - phi_min) * (lower_inc_gamma(s, lam * r_hi ** mu)
                                   - lower_inc_gamma(s, lam * r0 ** mu))

    # Taylor coefficients of the inner-bound gamma term about theta/2
    a_coef = mu * lam ** s * r0 ** 2 * math.exp(-lam * r0 ** mu)
    cot_u = 1.0 / math.tan(u)
    csc2_u = 1.0 / math.sin(u) ** 2
    b_coef = 0.5 * (cot_u ** 2 * (mu * lam * r0 ** mu - 2.0) - csc2_u)

    linear = 0.5 * a_coef * cot_u * (theta * phi_min - phi_min ** 2)
    quad_inner = (a_coef * b_coef / 3.0) * (theta ** 3 / 8.0 - (phi_min - 0.5 * theta) ** 3)
    quad_outer = (mu / 6.0) * (theta ** 3 - phi_min ** 3) * lam ** s \
        * r_hi ** 2 * math.exp(-lam * r_hi ** mu)
    return max(pref * (leading + linear + quad_inner + quad_outer), 0.0)


def mass_closed_form(g: Geometry2D, model: ChannelModel) -> MassBreakdown:
    """Small-angle closed form of the connectivity mass (eta = 2 only).

    The direct region uses an expansion about phi = 0; reflected regions
    expand the inner radial bound about theta/2 and keep terms through
    second order. Quality degrades as theta grows; a warning is emitted
    beyond 0.3 rad.
    """
    if model.eta != 2.0:
        raise ValueError("the closed form is derived for eta = 2")
    per_c = []
    for th in g.side_thetas():
        if th > 0.3:
            warnings.warn(f"escape angle {th:.3f} rad is large; "
                          "closed-form accuracy degrades", stacklevel=2)
    for c in range(model.C + 1):
        total_c = 0.0
        for th in g.side_thetas():
            total_c += _per_c_closed_form(th, g.w, g.abs_y0, model, c)
        per_c.append((c, total_c))
    return MassBreakdown.from_contributions(per_c, "closed_form", g.sides)


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

def _fixed_two_lambda(model: ChannelModel) -> float:
    """Decay coefficient of the Gaussian link surrogate (exponent pinned to 2)."""
    fit2 = fit_exponential_approx(model.K, "fixed_two")
    return math.exp(fit2.nu2) * 2.0 * (model.K + 1.0) * model.beta


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
_GL24_NODES, _GL24_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _graded_rule(lo: float, hi: float):
    """The graded rule of :func:`_graded_unit_rule` mapped to [lo, hi]."""
    return lo + (hi - lo) * _GRADED_NODES, (hi - lo) * _GRADED_WEIGHTS


def _interior_setup(g: Geometry2D, model: ChannelModel, rho: float):
    """Constants shared by the two interior-isolation terms.

    Returns (lam_hat, sigma_x, sigma_y, log_pref): the Gaussian-surrogate
    decay, the curvatures of the exponent rho * pi/(4 lam_hat) Ex(x) Ey(y)
    about the domain centre along x and y, and minus its value there.
    """
    if model.eta != 2.0:
        raise ValueError("interior isolation terms are derived for eta = 2")
    lam_hat = _fixed_two_lambda(model)
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
                                  inputs: ClusterInputs,
                                  method: str = "expansion") -> float:
    """First interior-isolation term rho * int exp(-rho * int H1N) d r_N.

    Interior links ignore reflections and use the Gaussian surrogate with
    exponent pinned to 2. Two routes:

    - ``erf_quadrature``: the inner integral uses its exact erf product and
      the outer one a graded Gauss-Legendre tensor rule.
    - ``expansion``: closed form built from a quadratic expansion of the erf
      product about the domain centre followed by a polar-coordinate
      expansion. Only trustworthy while sigma_x L^2 / 4 and
      sigma_y w^2 / 4 stay small.
    """
    rho = inputs.rho
    lam_hat, sigma_x, sigma_y, log_pref = _interior_setup(g, model, rho)
    L, w = g.L, g.w
    if rho == 0.0:
        return 0.0

    if method == "erf_quadrature":
        # the inner integral is pi/(4 lam_hat) Ex(x) Ey(y), so the outer one
        # is a matrix product on the graded tensor rule (built in place: the
        # grid is 400 x 400)
        x, wx = _graded_rule(0.0, L)
        y, wy = _graded_rule(0.0, w)
        grid = np.outer(_erf_box_factor(x, L, lam_hat), _erf_box_factor(y, w, lam_hat))
        grid *= -rho * math.pi / (4.0 * lam_hat)
        return rho * float(wx @ np.exp(grid, out=grid) @ wy)

    if method != "expansion":
        raise ValueError(f"unknown method: {method!r}")
    if sigma_x <= 0.0 or sigma_y <= 0.0:
        return 0.0

    vartheta = math.atan(w * math.sqrt(sigma_y) / (L * math.sqrt(sigma_x)))
    a_x = sigma_x * L * L / 4.0
    b_y = sigma_y * w * w / 4.0
    csc2 = 1.0 / math.sin(vartheta) ** 2
    cot_v = 1.0 / math.tan(vartheta)
    e_big = math.exp(b_y * csc2)
    a2 = 2.0 * b_y * e_big * cot_v * csc2
    b2 = b_y * e_big * csc2 * (1.0 + 3.0 * cot_v ** 2 + 2.0 * b_y * cot_v ** 2 * csc2)

    bracket = (vartheta * (math.exp(a_x) - 1.0)
               + (sigma_x * L * L / 12.0) * math.exp(a_x) * vartheta ** 3
               + (0.5 * math.pi - vartheta) * (e_big + a2 * vartheta - 1.0)
               - 0.5 * a2 * (math.pi ** 2 / 4.0 - vartheta ** 2)
               + (b2 / 3.0) * (0.5 * math.pi - vartheta) ** 3)
    prefactor = 2.0 / math.sqrt(sigma_x * sigma_y) * math.exp(log_pref)
    return rho * prefactor * bracket


def _gaussian_segment_integral(k: float, m: float, lo: float, hi: float) -> float:
    """Integral of exp(k (t - m)^2) over [lo, hi] for any sign of k."""
    if k == 0.0:
        return hi - lo
    r = math.sqrt(abs(k))
    if k < 0.0:
        return 0.5 * math.sqrt(math.pi) / r * (math.erf(r * (hi - m)) - math.erf(r * (lo - m)))
    return 0.5 * math.sqrt(math.pi) / r * float(special.erfi(r * (hi - m)) - special.erfi(r * (lo - m)))


def internal_isolation_bridge_term(g: Geometry2D, model: ChannelModel,
                                   inputs: ClusterInputs, c_limit: int = 2,
                                   method: str = "quadrature") -> float:
    """Interior-isolation correction that couples node 0 to the lone node.

    Evaluates rho * int H0N (1 - (1/V) int H1N)^(N-1) d r_N with Gaussian
    surrogates for both link factors, summed over reflection regions up to
    ``c_limit`` (default 2; higher orders are negligible). The node is
    assumed centred in the gap, so one side is integrated and doubled.

    ``method="quadrature"`` integrates over the exact region polylines,
    graded Gauss-Legendre in y and 24-point Gauss-Legendre across each row;
    ``method="rect_closed_form"`` replaces each region with its bounding
    box, for which the x and y integrals separate into erf/erfi factors.
    """
    rho = inputs.rho
    lam_hat, sigma_x, sigma_y, log_pref = _interior_setup(g, model, rho)
    if rho == 0.0:
        return 0.0
    L, w, ay0, x0 = g.L, g.w, g.abs_y0, g.x0
    prefactor = 2.0 * rho

    y, wy = _graded_rule(0.0, w)
    u, wu = 0.5 * (_GL24_NODES + 1.0), 0.5 * _GL24_WEIGHTS
    total = 0.0
    for c in range(min(c_limit, model.C) + 1):
        if model.alpha == 0.0 and c > 0:
            continue
        lam_bar = lam_hat * model.alpha ** (-c)
        region = cartesian_bounds(g, c)

        if method == "quadrature":
            # y on the graded rule, x mapped from [0, 1] across the region at
            # each height; the exponential prefactor is folded into the
            # exponent so the integrand stays representable at high density
            xl = region.x_left(y)
            width = np.maximum(region.x_right(y) - xl, 0.0)
            x = xl[:, None] + width[:, None] * u
            vert = y_image(c, y, w) + ay0
            expo = (log_pref - lam_bar * ((x - x0) ** 2 + vert[:, None] ** 2)
                    + sigma_y * (y[:, None] - 0.5 * w) ** 2
                    + sigma_x * (x - 0.5 * L) ** 2)
            contribution = float(wy @ (width * (np.exp(expo) @ wu)))
        elif method == "rect_closed_form":
            # bounding box of the region, widest extent of each polyline
            ys = (0.0, w)
            lb = min(float(region.x_left(y)) for y in ys)
            ub = max(float(region.x_right(y)) for y in ys)
            kx = sigma_x - lam_bar
            mx = (sigma_x * 0.5 * L - lam_bar * x0) / kx if kx != 0.0 else 0.0
            qx = sigma_x * (0.5 * L) ** 2 - lam_bar * x0 ** 2 - kx * mx * mx
            seg_x = _gaussian_segment_integral(kx, mx, lb, ub)

            # vertical factor: the image height is linear in y with slope +-1
            sgn = 1.0 if c % 2 == 0 else -1.0
            off = y_image(c, 0.0, w) + ay0
            ky = sigma_y - lam_bar
            if ky != 0.0:
                my = (sigma_y * 0.5 * w + sgn * lam_bar * off) / ky
                qy = sigma_y * (0.5 * w) ** 2 - lam_bar * off * off - ky * my * my
                seg_y = _gaussian_segment_integral(ky, my, 0.0, w)
                contribution = math.exp(log_pref + qx + qy) * seg_x * seg_y
            else:
                y_raw = integrate_adaptive(
                    lambda y: math.exp(-lam_bar * (sgn * y + off) ** 2
                                       + sigma_y * (y - 0.5 * w) ** 2),
                    0.0, w, 1e-12)
                contribution = math.exp(log_pref + qx) * seg_x * y_raw
        else:
            raise ValueError(f"unknown method: {method!r}")
        total += contribution
    return prefactor * total


@dataclass(frozen=True)
class FullConnectivity:
    p_fc: float
    clamped: bool
    exterior_isolation: float
    internal_first: float
    internal_bridge: float


def full_connectivity_first_order(g: Geometry2D, model: ChannelModel,
                                  inputs: ClusterInputs,
                                  mass: Optional[MassBreakdown] = None) -> FullConnectivity:
    """First-order estimate of the probability that all nodes connect.

    One minus the external-node isolation probability minus the interior
    lone-node terms; clamped to [0, 1] with a flag because the first-order
    expansion can leave the unit interval at low density.
    """
    if mass is None:
        mass = mass_numeric(g, model)
    ext = exterior_isolation_prob(mass.total, inputs)
    first = internal_isolation_first_term(g, model, inputs, method="erf_quadrature")
    bridge = internal_isolation_bridge_term(g, model, inputs)
    raw = 1.0 - ext - first + bridge
    clamped = not (0.0 <= raw <= 1.0)
    return FullConnectivity(p_fc=min(1.0, max(0.0, raw)), clamped=clamped,
                            exterior_isolation=ext, internal_first=first,
                            internal_bridge=bridge)
