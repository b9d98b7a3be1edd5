"""Three-dimensional escape problem: a slab with a circular gap in the floor.

The slab is [0, L] x [0, L] x [0, w] with the external node below the floor
at z0 < 0. For a node on the gap axis the escape cone has half-angle
theta = atan(gap_radius / |z0|), and the reflection regions take the same
form as in the plane with |z0| in place of |y0|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .channel import ChannelModel
from .geometry2d import ReflectionRegion, cone_region
from .mass2d import MassBreakdown, region_mass
# integrate_adaptive is unused here but stays bound: perfbench's tracer test
# checks that it patches every module-level binding of it
from .specfun import integrate_adaptive, lower_inc_gamma  # noqa: F401

# azimuths of the periodic trapezoid rule in mass3d_numeric off axis; 128
# keeps it to 1e-13 relative even for a node 0.05 inside the rim of a gap
# of radius 5 (64 nodes: 5e-8)
AZIMUTH_NODES = 128


@dataclass(frozen=True)
class Geometry3D:
    w: float
    L: float
    gap_radius: float
    gap_center: Tuple[float, float]
    x0: float
    y0: float
    z0: float

    def __post_init__(self):
        if not (self.w > 0.0 and self.L > 0.0):
            raise ValueError("w and L must be positive")
        if not (0.0 < self.gap_radius < self.w):
            raise ValueError("gap radius must satisfy 0 < radius < w")
        if self.z0 >= 0.0:
            raise ValueError("the external node must sit below the floor (z0 < 0)")
        gx, gy = self.gap_center
        r = self.gap_radius
        if not (r <= gx <= self.L - r and r <= gy <= self.L - r):
            raise ValueError("gap disc must lie on the floor within [0, L]^2")
        if self.node_offset() > self.gap_radius + 1e-12:
            raise ValueError("node 0 must sit over the gap disc")

    @property
    def abs_z0(self) -> float:
        return -self.z0

    def node_offset(self) -> float:
        gx, gy = self.gap_center
        return math.hypot(self.x0 - gx, self.y0 - gy)

    def is_on_axis(self, tol: float = 1e-9) -> bool:
        return self.node_offset() <= tol

    def theta(self, varphi: float = 0.0) -> float:
        """Escape-cone half-angle along azimuth ``varphi``.

        Constant for a node on the gap axis; otherwise set by the distance
        to the gap rim along that azimuth.
        """
        gx, gy = self.gap_center
        ux = self.x0 - gx
        uy = self.y0 - gy
        ue = ux * math.cos(varphi) + uy * math.sin(varphi)
        d2 = ux * ux + uy * uy
        reach = -ue + math.sqrt(self.gap_radius ** 2 - d2 + ue * ue)
        return math.atan(reach / self.abs_z0)


def region_bounds_3d(g: Geometry3D, c: int, varphi: float = 0.0) -> ReflectionRegion:
    """Inclination and radial bounds of the 3-D region D_c at one azimuth."""
    return cone_region(c, g.theta(varphi), g.abs_z0, g.w)


def mass3d_numeric(g: Geometry3D, model: ChannelModel,
                   azimuthal: bool = False) -> MassBreakdown:
    """3-D connectivity mass by quadrature over inclination (and azimuth).

    The inclination integral is :func:`mass2d.region_mass` (exact radial
    integral, fixed-order Gauss-Legendre in inclination). For an on-axis
    node the azimuthal integral is the factor 2*pi; off axis, or when
    ``azimuthal`` forces it (used to verify the axisymmetric shortcut), it
    is a periodic trapezoid rule over ``AZIMUTH_NODES`` azimuths.
    """
    cs = range(model.C + 1)
    if g.is_on_axis() and not azimuthal:
        per_c = 2.0 * math.pi * region_mass([region_bounds_3d(g, c) for c in cs],
                                            model, dim=3)
    else:
        varphis = 2.0 * math.pi / AZIMUTH_NODES * np.arange(AZIMUTH_NODES)
        regions = [region_bounds_3d(g, c, v) for c in cs for v in varphis]
        per_c = 2.0 * math.pi / AZIMUTH_NODES * region_mass(
            regions, model, dim=3).reshape(len(cs), AZIMUTH_NODES).sum(axis=1)
    return MassBreakdown.from_contributions(enumerate(per_c), "quadrature", "full")


def _per_c_closed_form_3d(theta: float, w: float, az0: float,
                          model: ChannelModel, c: int) -> float:
    lam = model.lambda_coeff(c)
    if math.isinf(lam):
        return 0.0
    mu = model.fit.mu
    s = 3.0 / mu
    pref = lam ** (-s) / mu

    if c == 0:
        r_lo = az0
        r_hi = w + az0
        lead = (1.0 - math.cos(theta)) * (lower_inc_gamma(s, lam * r_hi ** mu)
                                          - lower_inc_gamma(s, lam * r_lo ** mu))
        # integral of phi^2 sin(phi) over [0, theta]
        i2 = (2.0 - theta ** 2) * math.cos(theta) + 2.0 * theta * math.sin(theta) - 2.0
        quad = i2 * 0.5 * mu * lam ** s * (
            r_hi ** 3 * math.exp(-lam * r_hi ** mu)
            - r_lo ** 3 * math.exp(-lam * r_lo ** mu))
        return max(pref * (lead + quad), 0.0)

    phi_min = math.atan(((c - 1) * w + az0) * math.tan(theta) / ((c + 1) * w + az0))
    r_hi = (c + 1) * w + az0
    u = 1.5 * theta
    r0 = 2.0 * (c * w + az0) * math.sin(theta) / math.sin(u)

    lead = (math.cos(phi_min) - math.cos(theta)) * (
        lower_inc_gamma(s, lam * r_hi ** mu) - lower_inc_gamma(s, lam * r0 ** mu))

    a_coef = mu * lam ** s * r0 ** 3 * math.exp(-lam * r0 ** mu)
    cot_u = 1.0 / math.tan(u)
    b_coef = 0.5 * (cot_u ** 2 * (mu * lam * r0 ** mu - 4.0) - 1.0)

    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi_min), math.sin(phi_min)
    # angular moments against sin(phi) over [phi_min, theta]
    c3 = (2.0 - theta ** 2) * ct + (phi_min ** 2 - 2.0) * cp \
        + 2.0 * theta * st - 2.0 * phi_min * sp
    d3 = st - 0.5 * theta * ct - sp + (phi_min - 0.5 * theta) * cp
    e3 = (2.0 - 0.25 * theta ** 2) * ct + theta * st \
        + ((phi_min - 0.5 * theta) ** 2 - 2.0) * cp + (theta - 2.0 * phi_min) * sp

    quad_outer = 0.5 * mu * lam ** s * r_hi ** 3 * math.exp(-lam * r_hi ** mu) * c3
    linear_inner = cot_u * a_coef * d3
    quad_inner = a_coef * b_coef * e3
    return max(pref * (lead + quad_outer + linear_inner + quad_inner), 0.0)


def mass3d_closed_form(g: Geometry3D, model: ChannelModel) -> MassBreakdown:
    """Small-angle closed form of the 3-D connectivity mass (on-axis node).

    Only the total is checked against :func:`mass3d_numeric`; per-c values
    for c >= 2 are far off (fig9 geometry, alpha = 1: c = 2 gives 1.369
    against 2.217 by quadrature), but c <= 1 dominates the total.
    """
    if model.eta != 2.0:
        raise ValueError("the closed form is derived for eta = 2")
    if not g.is_on_axis():
        raise ValueError("the closed form assumes a node on the gap axis")
    theta = g.theta()
    per_c = []
    for c in range(model.C + 1):
        value = 2.0 * math.pi * _per_c_closed_form_3d(theta, g.w, g.abs_z0, model, c)
        per_c.append((c, value))
    return MassBreakdown.from_contributions(per_c, "closed_form", "full")


def volume_ratio_first_reflection(g: Geometry3D) -> float:
    """Coverage gained by the first reflection relative to the direct cone.

    Closed form 1 + 6(1 + |z0|/w) / (1 + 3|z0|/w + 3(|z0|/w)^2); tends to 7
    as the node approaches the floor (additive term tends to 6) and to 1 as
    it recedes.
    """
    u = g.abs_z0 / g.w
    return 1.0 + 6.0 * (1.0 + u) / (1.0 + 3.0 * u + 3.0 * u * u)
