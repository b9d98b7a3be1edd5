"""Transport problem: two external nodes coupled through separate wall gaps.

With gaps on opposite walls a signal needs an even number of reflections to
cross; with both gaps on the same wall it needs an odd number. Masses are
integrals of the pair-connection surrogate over the reachable region beyond
the receiving gap, per reflection count of the admissible parity; the link
law of each count, its reflection loss included, comes from ``channel``.
``TransportGeometry`` answers the layout questions of ``geometry2d`` but has
no node population, escape trials or tracer.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from ._kernels import min_reflections
from .channel import ChannelModel, pair_connect_prob_exact
from .geometry2d import ReflectionRegion, RegionSet


@dataclass(frozen=True)
class TransportGeometry:
    """Two gaps and two external nodes.

    Case ``opposite``: transmitter gap [x_l1, x_l2] on the lower wall, node 0
    below it; receiver gap [x_u1, x_u2] on the upper wall, node 1 above it,
    offset to the left of node 0. Case ``same_side``: both gaps on the lower
    wall, receiver gap [x_l3, x_l4] to the right, node 1 below it.
    """

    scenario: ClassVar[str] = "transport"
    sweep_parameters: ClassVar[Tuple[str, ...]] = ("eps", "w", "y0")

    w: float
    L: float
    case: str
    x_l1: float
    x_l2: float
    node0: Tuple[float, float]
    node1: Tuple[float, float]
    x_u1: Optional[float] = None
    x_u2: Optional[float] = None
    x_l3: Optional[float] = None
    x_l4: Optional[float] = None

    def __post_init__(self):
        if self.case not in ("opposite", "same_side"):
            raise ValueError("case must be 'opposite' or 'same_side'")
        if not (self.w > 0.0 and self.L > 0.0):
            raise ValueError("w and L must be positive")
        if not (self.x_l1 < self.x_l2):
            raise ValueError("transmitter gap is degenerate")
        x0, y0 = self.node0
        if y0 >= 0.0:
            raise ValueError("node 0 must sit below the lower wall")
        if not (self.x_l1 <= x0 <= self.x_l2):
            raise ValueError("node 0 must sit under its gap")
        x1, y1 = self.node1
        if self.case == "opposite":
            if self.x_u1 is None or self.x_u2 is None or not (self.x_u1 < self.x_u2):
                raise ValueError("receiver gap [x_u1, x_u2] is missing or degenerate")
            if y1 <= self.w:
                raise ValueError("node 1 must sit above the upper wall")
            if not (self.x_u1 <= x1 <= self.x_u2):
                raise ValueError("node 1 must sit over its gap")
        else:
            if self.x_l3 is None or self.x_l4 is None or not (self.x_l3 < self.x_l4):
                raise ValueError("receiver gap [x_l3, x_l4] is missing or degenerate")
            if not (self.x_l2 < self.x_l3):
                raise ValueError("same-side gaps must be disjoint, receiver to the right")
            if y1 >= 0.0:
                raise ValueError("node 1 must sit below the lower wall")
            if not (self.x_l3 <= x1 <= self.x_l4):
                raise ValueError("node 1 must sit under its gap")

    @property
    def abs_y0(self) -> float:
        return -self.node0[1]

    @property
    def receiving_gap(self) -> Tuple[float, float]:
        """The gap node 1 sits beyond: [x_u1, x_u2] or [x_l3, x_l4]."""
        if self.case == "opposite":
            return self.x_u1, self.x_u2
        return self.x_l3, self.x_l4

    def counts(self, c_max: int) -> range:
        """Reflection counts up to c_max that can cross between the gaps:
        even across opposite walls, odd along the same wall."""
        return range(0 if self.case == "opposite" else 1, c_max + 1, 2)

    def toward_receiver(self, x: float) -> float:
        """Offset of x from node 0, positive toward the receiver: leftward
        across opposite walls, rightward along the same wall."""
        dx = x - self.node0[0]
        return -dx if self.case == "opposite" else dx

    def theta(self) -> float:
        """Maximum escape angle from the transmitter gap toward the receiver."""
        edge = max(self.toward_receiver(self.x_l1), self.toward_receiver(self.x_l2))
        return math.atan(edge / self.abs_y0)

    def wall_gaps(self, k: int) -> Tuple[Tuple[float, float], ...]:
        """Gaps on the wall that an unfolded ray meets at height k*w.

        Even k is the lower wall and odd k the upper wall; a ray that meets
        a wall inside one of these spans passes through instead of
        reflecting.
        """
        if k % 2 == 1:
            return ((self.x_u1, self.x_u2),) if self.case == "opposite" else ()
        if self.case == "opposite":
            return ((self.x_l1, self.x_l2),)
        return ((self.x_l1, self.x_l2), (self.x_l3, self.x_l4))

    def gaps_straddle(self) -> bool:
        """True when node 0 sits directly under the receiving gap, which only
        opposite gaps allow."""
        lo, hi = self.receiving_gap
        return lo <= self.node0[0] <= hi

    def regions(self, model) -> RegionSet:
        """The receiving region of each count of ``counts(model.C)``; the
        closed form expands both bounds about the midpoint of the window."""
        counts = tuple(self.counts(model.C))
        regions = tuple(receiving_region(self, c) for c in counts)
        mids = (0.5 * (reg.phi_min + reg.phi_max) for reg in regions)
        return RegionSet(regions, 2, counts, 1.0, tuple((m, m) for m in mids))

    def domain_measure(self) -> None:
        """None: a transport run places its two nodes and draws no population."""
        return None

    def swept(self, param: str, value: float) -> "TransportGeometry":
        """This layout at one sweep point. ``eps`` resizes both gaps from
        their left edges and recentres the nodes on them, ``y0`` moves node 0,
        and ``w`` keeps a node above the upper wall at its height above it."""
        x0, y0 = self.node0
        x1, y1 = self.node1
        if param == "eps":
            lo = self.receiving_gap[0]
            far_edge = "x_u2" if self.case == "opposite" else "x_l4"
            return dataclasses.replace(
                self, x_l2=self.x_l1 + value, node0=(self.x_l1 + value / 2.0, y0),
                node1=(lo + value / 2.0, y1), **{far_edge: lo + value})
        if param == "y0":
            return dataclasses.replace(self, node0=(x0, value))
        if param == "w":
            if self.case == "opposite":
                y1 = value + (y1 - self.w)
            return dataclasses.replace(self, w=value, node1=(x1, y1))
        raise ValueError(f"a {self.scenario} layout has no sweep parameter {param!r}")


def receiving_region(tg: TransportGeometry, c: int) -> ReflectionRegion:
    """Points beyond the receiving gap that rays from node 0 reach through
    it after c reflections.

    Angles are measured from vertical, positive toward the receiver. A count
    outside ``tg.counts`` exits through the wrong wall and comes back empty;
    when node 0 sits directly under the receiving gap only direct rays
    survive.
    """
    if c < 0:
        raise ValueError("reflection count must be non-negative")
    if c not in tg.counts(c) or (tg.gaps_straddle() and c != 0):
        return ReflectionRegion.empty_for(c)
    near, far = sorted(tg.toward_receiver(x) for x in tg.receiving_gap)
    depth = (c + 1) * tg.w + tg.abs_y0
    # a negative near edge (node 0 under the receiving gap) starts at vertical
    phi_min = max(math.atan(near / depth), 0.0)
    phi_max = min(tg.theta(), math.atan(far / depth))
    if phi_max <= phi_min or phi_max <= 0.0:
        return ReflectionRegion.empty_for(c)
    # inner: the receiving wall's image; outer: the vertical through the far edge
    return ReflectionRegion(c=c, phi_min=phi_min, phi_max=phi_max,
                            inner=(depth, 1.0, 0.0), outer=(far, 0.0, 1.0))


def min_paths(tg: TransportGeometry, x0, y0, x1, y1,
              c_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Minimal reflection count and unfolded distance for node pairs.

    Takes broadcastable arrays of node 0 (x0, y0) and node 1 (x1, y1)
    coordinates, and classifies each pair by ``_kernels.min_reflections``
    over ``tg.counts(c_max)``: the unfolded straight segment enters through
    the transmitter gap [x_l1, x_l2], leaves through the receiving gap at
    its unfolded height, and meets every wall in between outside its
    ``wall_gaps``, where it would leave instead of reflecting. Returns
    arrays (c, r) of the broadcast shape; c is -1 and r is 0 where no count
    works.
    """
    x0, y0, x1, y1 = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                           for v in (x0, y0, x1, y1)))
    # node 1's distance beyond the receiving wall: the upper wall when it
    # sits above the strip, the lower wall when below
    beyond = np.maximum(y1 - tg.w, -y1)
    dx = x1 - x0
    c_vals, vert = min_reflections((x0,), (dx,), beyond, -y0, tg.w, tg.counts(c_max),
                                   (tg.x_l1, tg.x_l2), tg.wall_gaps, tg.receiving_gap)
    return c_vals, np.where(c_vals >= 0, np.hypot(dx, vert), 0.0)


def averaged_connect_prob(tg: TransportGeometry, model: ChannelModel,
                          region0: Tuple[float, float, float, float],
                          region1: Tuple[float, float, float, float],
                          n_outer: int = 12, n_inner: int = 24) -> float:
    """Pair connection probability averaged over both node regions.

    Regions are axis-aligned boxes (x_lo, x_hi, y_lo, y_hi). The average is
    a Gauss-Legendre double quadrature, of order ``n_outer`` per axis over
    region0 and ``n_inner`` over region1, of the exact Marcum link
    probability at the minimal feasible count. All node pairs go through one
    ``min_paths`` call, and the pairs with a path through one
    ``pair_connect_prob_exact`` call.

    The integrand jumps where a count becomes feasible, so Gauss-Legendre
    converges slowly: on the opposite-gap boxes of the tests the default
    12x24 order gives 0.63959, 24x48 gives 0.64165 and 64x64 gives 0.64191,
    against 0.64200 +- 0.00048 from 1M ``run_transport`` trials (seed 2024).
    """
    for name, box in (("region0", region0), ("region1", region1)):
        if not (box[1] > box[0] and box[3] > box[2]):
            raise ValueError(f"{name} must have positive area")

    def grid(box, order):
        # tensor Gauss-Legendre nodes over a box, x-major, with their weights
        nodes, weights = np.polynomial.legendre.leggauss(order)
        jx, jy = 0.5 * (box[1] - box[0]), 0.5 * (box[3] - box[2])
        gx = jx * nodes + 0.5 * (box[1] + box[0])
        gy = jy * nodes + 0.5 * (box[3] + box[2])
        return (np.repeat(gx, order), np.tile(gy, order),
                np.outer(weights, weights).ravel(), jx * jy)

    px, py, wp, jac0 = grid(region0, n_outer)
    qx, qy, wq, jac1 = grid(region1, n_inner)
    c_vals, r_vals = min_paths(tg, px[:, None], py[:, None], qx, qy, model.C)
    h = np.zeros(c_vals.shape)
    path = c_vals >= 0
    h[path] = pair_connect_prob_exact(r_vals[path], c_vals[path], model)
    total = wp @ (h @ wq) * (jac0 * jac1)
    v0 = (region0[1] - region0[0]) * (region0[3] - region0[2])
    v1 = (region1[1] - region1[0]) * (region1[3] - region1[2])
    return float(total / (v0 * v1))
