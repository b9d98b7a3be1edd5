"""Three-dimensional escape problem: a slab with a circular gap in the floor.

The slab is [0, L] x [0, L] x [0, w] with the external node below the floor
at z0 < 0. For a node on the gap axis the escape cone has half-angle
theta = atan(gap_radius / |z0|), and the reflection regions take the same
form as in the plane with |z0| in place of |y0|. ``Geometry3D`` answers the
layout questions of ``geometry2d`` (regions, domain, trial set-up, sweep,
tracing).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np

from .geometry2d import ReflectionRegion, RegionSet, cone_region, escape_about
# integrate_adaptive is unused here but stays bound: perfbench's tracer test
# checks that it patches every module-level binding of it
from .specfun import integrate_adaptive  # noqa: F401

# azimuths of the periodic trapezoid rule of an off-axis node's regions; 128
# keeps the mass to 1e-13 relative even for a node 0.05 inside the rim of a
# gap of radius 5 (64 nodes: 5e-8)
AZIMUTH_NODES = 128


@dataclass(frozen=True)
class Geometry3D:
    scenario: ClassVar[str] = "escape3d"
    sweep_parameters: ClassVar[Tuple[str, ...]] = ("gap_radius", "w", "y0", "z0")
    axis: ClassVar[int] = 2                 # the wall-normal coordinate

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

    def rim_distance(self, cos_phi, sin_phi):
        """Horizontal distance from node 0's foot to the gap rim along the
        azimuth with cosine ``cos_phi`` and sine ``sin_phi`` (scalars or
        arrays)."""
        gx, gy = self.gap_center
        ux = self.x0 - gx
        uy = self.y0 - gy
        ue = ux * cos_phi + uy * sin_phi
        d2 = ux * ux + uy * uy
        return -ue + np.sqrt(self.gap_radius ** 2 - d2 + ue * ue)

    def theta(self, varphi: float = 0.0) -> float:
        """Escape-cone half-angle along azimuth ``varphi``.

        Constant for a node on the gap axis; otherwise set by the distance
        to the gap rim along that azimuth.
        """
        reach = self.rim_distance(math.cos(varphi), math.sin(varphi))
        return math.atan(reach / self.abs_z0)

    def regions(self, model) -> RegionSet:
        """D_0 .. D_C in inclination. On the gap axis the azimuthal integral
        is the factor 2 pi. Off axis it is a periodic trapezoid rule over
        ``AZIMUTH_NODES`` azimuths, azimuth fastest, and no closed form is
        derived."""
        counts = tuple(range(model.C + 1))
        if self.is_on_axis():
            regions = tuple(region_bounds_3d(self, c) for c in counts)
            return RegionSet(regions, 3, counts, 2.0 * math.pi, escape_about(regions))
        varphis = 2.0 * math.pi / AZIMUTH_NODES * np.arange(AZIMUTH_NODES)
        regions = tuple(region_bounds_3d(self, c, v) for c in counts for v in varphis)
        return RegionSet(regions, 3, counts, 2.0 * math.pi / AZIMUTH_NODES, None,
                         "the closed form assumes a node on the gap axis")

    def domain_measure(self) -> float:
        return self.w * self.L * self.L

    def mc_setup(self):
        """Node 0, the gap disc (centre x, centre y, radius), node 0's depth
        below the floor and the largest cone tangent, for the trial kernel.
        Off the gap axis the widest cone opens opposite node 0's offset."""
        if self.is_on_axis():
            tan_max = math.tan(self.theta())
        else:
            tan_max = (self.gap_radius + self.node_offset()) / self.abs_z0
        return ((self.x0, self.y0, self.z0), (*self.gap_center, self.gap_radius),
                self.abs_z0, tan_max)

    def swept(self, param: str, value: float) -> "Geometry3D":
        """This layout with ``param``, one of ``sweep_parameters``, set to ``value``."""
        if param not in self.sweep_parameters:
            raise ValueError(f"a {self.scenario} layout has no sweep parameter {param!r}")
        return dataclasses.replace(self, **{param: value})

    def wall_gaps(self, k: int) -> Tuple[Tuple[float, float, float], ...]:
        """Gaps on wall k (even k the floor): the gap disc on the floor."""
        return ((*self.gap_center, self.gap_radius),) if k % 2 == 0 else ()


def region_bounds_3d(g: Geometry3D, c: int, varphi: float = 0.0) -> ReflectionRegion:
    """Inclination and radial bounds of the 3-D region D_c at one azimuth."""
    return cone_region(c, g.theta(varphi), g.abs_z0, g.w)


def volume_ratio_first_reflection(g: Geometry3D) -> float:
    """Coverage gained by the first reflection relative to the direct cone.

    Closed form 1 + 6(1 + |z0|/w) / (1 + 3|z0|/w + 3(|z0|/w)^2); tends to 7
    as the node approaches the floor (additive term tends to 6) and to 1 as
    it recedes.
    """
    u = g.abs_z0 / g.w
    return 1.0 + 6.0 * (1.0 + u) / (1.0 + 3.0 * u + 3.0 * u * u)
