"""Planar escape geometry: a rectangular strip with a small gap in the lower
wall and one node below the gap.

Interior points are grouped into regions D_c by the minimum number of wall
reflections a signal needs to reach them. Reflections are handled by
unfolding: mirror images of the strip are stacked above the real one and a
reflected path becomes a straight segment to the image of its endpoint.

Each D_c has one description, the polar ``ReflectionRegion`` of
:func:`region_bounds` (angle from the wall normal and unfolded distance from
node 0, per side of node 0), which the mass and the bridge term integrate.

Every layout class (``Geometry2D``, ``escape3d.Geometry3D``,
``transport.TransportGeometry``) answers the same questions, so no caller
needs to know which one it holds: ``regions(model)`` (what ``mass2d.mass``
integrates), ``domain_measure()``, ``swept(param, value)``, and ``axis``
and ``wall_gaps(k)``, the gaps of wall k, for ``montecarlo.trace_ray``; the
escape layouts also give ``mc_setup()``, node 0 and the gap that
``_kernels.min_reflections`` takes. Its ``scenario`` names it in configs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from ._kernels import min_reflections


@dataclass(frozen=True)
class Geometry2D:
    """Strip of width ``w`` (vertical) and length ``L`` with a lower-wall gap.

    The lower wall sits at y = 0, the upper wall at y = w. The gap spans
    ``gap_center_x +- eps/2`` and the external node sits at (x0, y0) with
    y0 < 0, horizontally inside the gap span.
    """

    scenario: ClassVar[str] = "escape2d"
    sweep_parameters: ClassVar[Tuple[str, ...]] = ("eps", "w", "y0")
    axis: ClassVar[int] = 1                 # the wall-normal coordinate

    w: float
    L: float
    eps: float
    gap_center_x: float
    x0: float
    y0: float
    sides: str = "both"

    def __post_init__(self):
        if not (self.w > 0.0 and self.L > 0.0):
            raise ValueError("w and L must be positive")
        if not (0.0 < self.eps < self.w):
            raise ValueError("gap length eps must satisfy 0 < eps < w")
        if self.y0 >= 0.0:
            raise ValueError("the external node must sit below the wall (y0 < 0)")
        if not (self.gap_left >= 0.0 and self.gap_right <= self.L):
            raise ValueError("gap must lie on the lower wall within [0, L]")
        if abs(self.x0 - self.gap_center_x) > 0.5 * self.eps + 1e-12:
            raise ValueError("node 0 must sit horizontally within the gap span")
        if self.sides not in ("both", "left_only"):
            raise ValueError("sides must be 'both' or 'left_only'")

    @property
    def gap_left(self) -> float:
        return self.gap_center_x - 0.5 * self.eps

    @property
    def gap_right(self) -> float:
        return self.gap_center_x + 0.5 * self.eps

    @property
    def abs_y0(self) -> float:
        return -self.y0

    def theta(self) -> float:
        """Maximum escape angle toward the left gap edge."""
        return math.atan((self.x0 - self.gap_left) / self.abs_y0)

    def theta_right(self) -> float:
        """Maximum escape angle toward the right gap edge."""
        return math.atan((self.gap_right - self.x0) / self.abs_y0)

    def side_thetas(self) -> Tuple[float, ...]:
        if self.sides == "left_only":
            return (self.theta(),)
        return (self.theta(), self.theta_right())

    def regions(self, model) -> RegionSet:
        """D_0 .. D_C on each side of node 0, side fastest; a count's sides
        add up. The closed form warns beyond an escape angle of 0.3 rad."""
        thetas = self.side_thetas()
        counts = tuple(range(model.C + 1))
        regions = tuple(cone_region(c, th, self.abs_y0, self.w) for c in counts for th in thetas)
        widest = max(thetas)
        caveat = (f"escape angle {widest:.3f} rad is large; closed-form accuracy degrades"
                  if widest > 0.3 else "")
        return RegionSet(regions, 2, counts, 1.0, escape_about(regions), caveat)

    def domain_measure(self) -> float:
        return self.w * self.L

    def mc_setup(self):
        """Node 0, the entry gap [gap_left, gap_right] ([gap_left, x0] with
        ``sides="left_only"``), node 0's depth and the largest cone tangent."""
        right = self.gap_right if self.sides == "both" else self.x0
        return ((self.x0, self.y0), (self.gap_left, right), self.abs_y0,
                max(math.tan(th) for th in self.side_thetas()))

    def swept(self, param: str, value: float) -> "Geometry2D":
        """This layout with ``param``, one of ``sweep_parameters``, set to ``value``."""
        if param not in self.sweep_parameters:
            raise ValueError(f"a {self.scenario} layout has no sweep parameter {param!r}")
        return dataclasses.replace(self, **{param: value})

    def wall_gaps(self, k: int) -> Tuple[Tuple[float, float], ...]:
        """Gaps on wall k (even k the lower wall): the gap on the lower wall."""
        return ((self.gap_left, self.gap_right),) if k % 2 == 0 else ()


def line_radius(line, phi):
    """Polar radius from node 0, at angle ``phi`` (scalar or ndarray), of the
    line ``(p, cn, sn)`` at distance p whose unit normal is (cn, sn)."""
    p, cn, sn = line
    return p / (cn * np.cos(phi) + sn * np.sin(phi))


@dataclass(frozen=True)
class ReflectionRegion:
    """One region D_c in polar form: angles in [phi_min, phi_max] and radii
    between the ``inner`` and ``outer`` bounding lines, measured from the
    external node. Every side of a D_c is straight: a wall image or a ray
    through a gap edge."""

    c: int
    phi_min: float
    phi_max: float
    inner: Tuple[float, float, float]     # see line_radius
    outer: Tuple[float, float, float]
    empty: bool = False

    @classmethod
    def empty_for(cls, c: int) -> "ReflectionRegion":
        """Region for count c that no point reaches."""
        return cls(c=c, phi_min=0.0, phi_max=0.0, inner=(0.0, 1.0, 0.0),
                   outer=(0.0, 1.0, 0.0), empty=True)

    def r_min(self, phi):
        return line_radius(self.inner, phi)

    def r_max(self, phi):
        return line_radius(self.outer, phi)

    def contains(self, phi: float, r: float) -> bool:
        if self.empty:
            return False
        if not (self.phi_min <= phi <= self.phi_max):
            return False
        return self.r_min(phi) <= r <= self.r_max(phi)


def region_bounds(g: Geometry2D, c: int, theta: Optional[float] = None) -> ReflectionRegion:
    """Polar bounds of D_c on the side of node 0 whose escape angle is
    ``theta``, one of ``g.side_thetas()`` (by default the left one)."""
    return cone_region(c, g.theta() if theta is None else theta, g.abs_y0, g.w)


def cone_region(c: int, th: float, depth: float, w: float) -> ReflectionRegion:
    """Polar bounds of D_c in a cone of half-angle ``th`` whose apex sits
    ``depth`` below a strip or slab of width ``w``; the angle is measured
    from the wall normal. The outer line is the wall image at height
    (c+1) w; the inner one the real wall (c = 0) or the ray through the gap
    edge that reflects c times.
    """
    if c < 0:
        raise ValueError("reflection count must be non-negative")
    if c == 0:
        phi_min, inner = 0.0, (depth, 1.0, 0.0)
    else:
        phi_min = math.atan(((c - 1) * w + depth) * math.tan(th) / ((c + 1) * w + depth))
        inner = (2.0 * (c * w + depth) * math.sin(th), math.sin(th), math.cos(th))
    return ReflectionRegion(c=c, phi_min=phi_min, phi_max=th, inner=inner,
                            outer=((c + 1) * w + depth, 1.0, 0.0))


def escape_about(regions):
    """Expansion angles (inner, outer) of escape regions for
    :func:`mass2d.region_expansion`: the outer bound about 0, the inner about
    0 for the direct region and about theta/2 for a reflected one."""
    return tuple((0.5 * reg.phi_max if reg.c else 0.0, 0.0) for reg in regions)


@dataclass(frozen=True)
class RegionSet:
    """A layout's reflection regions in ``dim`` dimensions: one equal-sized
    group per entry of ``counts``, group after group. A count's mass is its
    group's sum times ``scale``. ``about`` holds the expansion angles of
    :func:`mass2d.region_expansion`, or None where no closed form is derived;
    ``caveat`` then says why, and otherwise is the closed form's warning."""

    regions: Tuple[ReflectionRegion, ...]
    dim: int
    counts: Tuple[int, ...]
    scale: float
    about: Optional[Tuple[Tuple[float, float], ...]]
    caveat: str = ""


def classify_point(g: Geometry2D, p, c_max: int = 64) -> Optional[Tuple[int, float]]:
    """Minimum reflection count and unfolded distance from node 0 to ``p``.

    Returns ``None`` when no image with at most ``c_max`` reflections is
    seen through the gap. Points exactly on a region boundary classify to
    the lower count. A one-point call of ``_kernels.min_reflections``.
    """
    x, y = float(p[0]), float(p[1])
    if not (0.0 <= x <= g.L and 0.0 <= y <= g.w):
        raise ValueError("point lies outside the rectangle")
    (x0, _), entry, depth, _ = g.mc_setup()
    dx = x - x0
    c, vert = min_reflections((x0,), (np.array([dx]),), np.array([y]), depth, g.w,
                              range(c_max + 1), entry)
    if c[0] < 0:
        return None
    return int(c[0]), math.sqrt(dx * dx + vert[0] * vert[0])


def area_ratio_first_reflection(g: Geometry2D) -> float:
    """Coverage gained by the first reflection relative to the direct region.

    Closed form 1 + 2 / (1 + 2|y0|/w); tends to 3 as the node approaches the
    wall (the additive term tends to 2) and to 1 as it recedes.
    """
    return 1.0 + 2.0 / (1.0 + 2.0 * g.abs_y0 / g.w)
