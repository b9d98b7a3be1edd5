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
from .mass2d import MassBreakdown, escape_about, region_expansion, region_mass
# integrate_adaptive is unused here but stays bound: perfbench's tracer test
# checks that it patches every module-level binding of it
from .specfun import integrate_adaptive  # noqa: F401

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


def mass3d_closed_form(g: Geometry3D, model: ChannelModel) -> MassBreakdown:
    """Small-angle closed form of the 3-D connectivity mass (on-axis node):
    :func:`mass2d.region_expansion` over the regions of :func:`mass3d_numeric`.
    Only the total is held to :func:`mass3d_numeric`; see
    :func:`mass2d.region_expansion` on per-c values.
    """
    if not g.is_on_axis():
        raise ValueError("the closed form assumes a node on the gap axis")
    regions = [region_bounds_3d(g, c) for c in range(model.C + 1)]
    per_c = 2.0 * math.pi * region_expansion(regions, model, 3, escape_about(regions))
    return MassBreakdown.from_contributions(enumerate(per_c), "closed_form", "full")


def volume_ratio_first_reflection(g: Geometry3D) -> float:
    """Coverage gained by the first reflection relative to the direct cone.

    Closed form 1 + 6(1 + |z0|/w) / (1 + 3|z0|/w + 3(|z0|/w)^2); tends to 7
    as the node approaches the floor (additive term tends to 6) and to 1 as
    it recedes.
    """
    u = g.abs_z0 / g.w
    return 1.0 + 6.0 * (1.0 + u) / (1.0 + 3.0 * u + 3.0 * u * u)
