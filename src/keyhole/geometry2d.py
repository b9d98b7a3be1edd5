"""Planar escape geometry: a rectangular strip with a small gap in the lower
wall and one node below the gap.

Interior points are grouped into regions D_c by the minimum number of wall
reflections a signal needs to reach them. Reflections are handled by
unfolding: mirror images of the strip are stacked above the real one and a
reflected path becomes a straight segment to the image of its endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from ._kernels import _classify_np


@dataclass(frozen=True)
class Geometry2D:
    """Strip of width ``w`` (vertical) and length ``L`` with a lower-wall gap.

    The lower wall sits at y = 0, the upper wall at y = w. The gap spans
    ``gap_center_x +- eps/2`` and the external node sits at (x0, y0) with
    y0 < 0, horizontally inside the gap span.
    """

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

    def cone_tan(self, dx):
        """Escape-cone half-angle tangent on the side of each offset ``dx``.

        ``dx`` is a point's x minus x0; the right cone serves dx > 0 and the
        left one the rest. With ``sides="left_only"`` the right tangent is
        -inf, which no point satisfies.
        """
        tan_r = math.tan(self.theta_right()) if self.sides == "both" else -math.inf
        return np.where(dx > 0.0, tan_r, math.tan(self.theta()))


def max_escape_angle(g: Geometry2D) -> float:
    """Widest angle from vertical at which a ray from node 0 clears the gap."""
    return g.theta()


def y_image(c: int, y, w: float):
    """Height of the unfolded image of an interior point after c reflections.

    ``y`` may be a scalar or an ndarray.
    """
    if c % 2 == 0:
        return c * w + y
    return (c + 1) * w - y


@dataclass(frozen=True)
class ReflectionRegion:
    """One region D_c in polar form: angles in [phi_min, phi_max] and radii
    in [r_min(phi), r_max(phi)] measured from the external node."""

    c: int
    phi_min: float
    phi_max: float
    r_min: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    r_max: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    empty: bool = False

    @classmethod
    def empty_for(cls, c: int) -> "ReflectionRegion":
        """Region for count c that no point reaches."""
        return cls(c=c, phi_min=0.0, phi_max=0.0, r_min=np.zeros_like,
                   r_max=np.zeros_like, empty=True)

    def contains(self, phi: float, r: float) -> bool:
        if self.empty:
            return False
        if not (self.phi_min <= phi <= self.phi_max):
            return False
        return self.r_min(phi) <= r <= self.r_max(phi)


def region_bounds(g: Geometry2D, c: int, theta: Optional[float] = None) -> ReflectionRegion:
    """Polar bounds of D_c for the region on one side of node 0."""
    return cone_region(c, g.theta() if theta is None else theta, g.abs_y0, g.w)


def cone_region(c: int, th: float, depth: float, w: float) -> ReflectionRegion:
    """Polar bounds of D_c in a cone of half-angle ``th`` whose apex sits
    ``depth`` below a strip or slab of width ``w``; the angle is measured
    from the wall normal."""
    if c < 0:
        raise ValueError("reflection count must be non-negative")

    if c == 0:
        phi_min = 0.0

        def r_min(phi):
            return depth / np.cos(phi)
    else:
        phi_min = math.atan(((c - 1) * w + depth) * math.tan(th) / ((c + 1) * w + depth))
        sin_th = math.sin(th)

        def r_min(phi):
            return 2.0 * (c * w + depth) * sin_th / np.sin(th + phi)

    def r_max(phi):
        return ((c + 1) * w + depth) / np.cos(phi)

    return ReflectionRegion(c=c, phi_min=phi_min, phi_max=th, r_min=r_min, r_max=r_max)


@dataclass(frozen=True)
class CartesianRegion:
    """Cartesian description of D_c on the left of node 0.

    The region is bounded between two polylines built from images of the
    escape-cone edge: x_left(y) <= x <= x_right(y) for y in [0, w].
    """

    c: int
    x0: float
    abs_y0: float
    w: float
    tan_theta: float

    def x_left(self, y):
        yim = y_image(self.c, np.asarray(y, dtype=float), self.w)
        return self.x0 - (yim + self.abs_y0) * self.tan_theta

    def x_right(self, y):
        if self.c == 0:
            return np.full_like(np.asarray(y, dtype=float), self.x0)
        yim = y_image(self.c - 1, np.asarray(y, dtype=float), self.w)
        return self.x0 - (yim + self.abs_y0) * self.tan_theta

    def impact_point(self, i: int) -> float:
        """x coordinate where the limiting ray meets a wall after i-1 bounces."""
        return self.x0 - (i * self.w + self.abs_y0) * self.tan_theta

    def contains(self, x: float, y: float) -> bool:
        if not (0.0 <= y <= self.w):
            return False
        return bool(self.x_left(y) <= x <= self.x_right(y))

    def polygon(self):
        """Corner vertices (degenerate corners collapsed)."""
        pts = [
            (float(self.x_right(0.0)), 0.0),
            (float(self.x_right(self.w)), self.w),
            (float(self.x_left(self.w)), self.w),
            (float(self.x_left(0.0)), 0.0),
        ]
        out = []
        for p in pts:
            if not out or abs(p[0] - out[-1][0]) > 1e-15 or abs(p[1] - out[-1][1]) > 1e-15:
                out.append(p)
        return out

    def area(self) -> float:
        poly = self.polygon()
        s = 0.0
        for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
            s += x1 * y2 - x2 * y1
        return abs(s) / 2.0


def cartesian_bounds(g: Geometry2D, c: int) -> CartesianRegion:
    if c < 0:
        raise ValueError("reflection count must be non-negative")
    return CartesianRegion(c=c, x0=g.x0, abs_y0=g.abs_y0, w=g.w,
                           tan_theta=math.tan(g.theta()))


def classify_point(g: Geometry2D, p, c_max: int = 64) -> Optional[Tuple[int, float]]:
    """Minimum reflection count and unfolded distance from node 0 to ``p``.

    Returns ``None`` when no image with at most ``c_max`` reflections falls
    inside the escape cone. Points exactly on a region boundary classify to
    the lower count. A one-point call of ``_kernels._classify_np``.
    """
    x, y = float(p[0]), float(p[1])
    if not (0.0 <= x <= g.L and 0.0 <= y <= g.w):
        raise ValueError("point lies outside the rectangle")
    dx = np.array([x - g.x0])
    c, adx, vert = _classify_np(np.abs(dx), np.array([y]), g.abs_y0, g.w,
                                g.cone_tan(dx), c_max)
    if c[0] < 0:
        return None
    return int(c[0]), math.sqrt(adx[0] * adx[0] + vert[0] * vert[0])


def area_ratio_first_reflection(g: Geometry2D) -> float:
    """Coverage gained by the first reflection relative to the direct region.

    Closed form 1 + 2 / (1 + 2|y0|/w); tends to 3 as the node approaches the
    wall (the additive term tends to 2) and to 1 as it recedes.
    """
    return 1.0 + 2.0 / (1.0 + 2.0 * g.abs_y0 / g.w)
