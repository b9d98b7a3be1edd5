"""Transport problem: two external nodes coupled through separate wall gaps.

With gaps on opposite walls a signal needs an even number of reflections to
cross; with both gaps on the same wall it needs an odd number. Masses are
integrals of the pair-connection surrogate over the reachable region beyond
the receiving gap, per reflection count of the admissible parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .channel import ChannelModel, pair_connect_prob_exact
from .geometry2d import ReflectionRegion
from .mass2d import MassBreakdown, region_expansion, region_mass


@dataclass(frozen=True)
class TransportGeometry:
    """Two gaps and two external nodes.

    Case ``opposite``: transmitter gap [x_l1, x_l2] on the lower wall, node 0
    below it; receiver gap [x_u1, x_u2] on the upper wall, node 1 above it,
    offset to the left of node 0. Case ``same_side``: both gaps on the lower
    wall, receiver gap [x_l3, x_l4] to the right, node 1 below it.
    """

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

    def theta(self) -> float:
        """Maximum escape angle from the transmitter gap toward the receiver."""
        x0 = self.node0[0]
        if self.case == "opposite":
            return math.atan((x0 - self.x_l1) / self.abs_y0)
        return math.atan((self.x_l2 - x0) / self.abs_y0)

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
        """True when node 0 sits directly under the receiving gap (case 1)."""
        if self.case != "opposite":
            return False
        return self.x_u1 <= self.node0[0] <= self.x_u2


def case1_bounds(tg: TransportGeometry, c: int) -> ReflectionRegion:
    """Region beyond the opposite-wall gap reachable after c reflections.

    Angles are measured from vertical, positive toward the receiver gap.
    Odd counts exit through the wrong wall and come back empty; when node 0
    sits directly under the receiving gap only direct rays survive.
    """
    if tg.case != "opposite":
        raise ValueError("case1_bounds applies to the opposite-gaps layout")
    if c < 0:
        raise ValueError("reflection count must be non-negative")
    if c % 2 == 1 or (tg.gaps_straddle() and c != 0):
        return ReflectionRegion.empty_for(c)
    x0 = tg.node0[0]
    return _receiving_region(tg, c, x0 - tg.x_u2, x0 - tg.x_u1)


def case1_min_reflections(tg: TransportGeometry, c_max: int) -> Optional[int]:
    """Smallest even reflection count with a non-empty receiving region."""
    for c in range(0, c_max + 1, 2):
        if not case1_bounds(tg, c).empty:
            return c
    return None


def case2_bounds(tg: TransportGeometry, c: int) -> ReflectionRegion:
    """Region beyond the same-wall receiving gap after c (odd) reflections."""
    if tg.case != "same_side":
        raise ValueError("case2_bounds applies to the same-side layout")
    if c < 0:
        raise ValueError("reflection count must be non-negative")
    if c % 2 == 0:
        return ReflectionRegion.empty_for(c)
    x0 = tg.node0[0]
    return _receiving_region(tg, c, tg.x_l3 - x0, tg.x_l4 - x0)


def _receiving_region(tg: TransportGeometry, c: int, near: float,
                      far: float) -> ReflectionRegion:
    """Points beyond the receiving gap that rays from node 0 reach through
    it after c reflections; ``near`` and ``far`` are the gap edges as
    offsets from node 0 toward the receiver."""
    depth = (c + 1) * tg.w + tg.abs_y0
    # a negative near edge (node 0 under the receiving gap) starts at vertical
    phi_min = max(math.atan(near / depth), 0.0)
    phi_max = min(tg.theta(), math.atan(far / depth))
    if phi_max <= phi_min or phi_max <= 0.0:
        return ReflectionRegion.empty_for(c)
    # inner: the receiving wall's image; outer: the vertical through the far edge
    return ReflectionRegion(c=c, phi_min=phi_min, phi_max=phi_max,
                            inner=(depth, 1.0, 0.0), outer=(far, 0.0, 1.0))


def transport_mass_case1(tg: TransportGeometry, model: ChannelModel,
                         method: str = "quadrature") -> MassBreakdown:
    """Mass of the receiving region for opposite gaps, over even counts.

    ``method`` selects the evaluation route: ``quadrature`` (authoritative;
    :func:`mass2d.region_mass`, exact in r and Gauss-Legendre in angle) or
    ``expansion`` (:func:`mass2d.region_expansion`, both bounds about the
    midpoint of each window).
    """
    return _transport_mass(tg, model, method, range(0, model.C + 1, 2), case1_bounds)


def transport_mass_case2(tg: TransportGeometry, model: ChannelModel,
                         method: str = "quadrature") -> MassBreakdown:
    """Mass of the receiving region for same-side gaps, over odd counts."""
    return _transport_mass(tg, model, method, range(1, model.C + 1, 2), case2_bounds)


def _transport_mass(tg: TransportGeometry, model: ChannelModel, method: str,
                    cs: range, bounds: Callable) -> MassBreakdown:
    if method not in ("quadrature", "expansion"):
        raise ValueError(f"unknown method: {method!r}")
    regions = [bounds(tg, c) for c in cs]
    if method == "quadrature":
        values = region_mass(regions, model)
    else:
        # both bounds about the midpoint of the receiving window
        mids = [0.5 * (reg.phi_min + reg.phi_max) for reg in regions]
        values = region_expansion(regions, model, 2, [(m, m) for m in mids])
    tag = "quadrature" if method == "quadrature" else "closed_form"
    return MassBreakdown.from_contributions(zip(cs, values), tag, "directed")


def min_paths(tg: TransportGeometry, x0, y0, x1, y1,
              c_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Minimal reflection count and unfolded distance for node pairs.

    Takes broadcastable arrays of node 0 (x0, y0) and node 1 (x1, y1)
    coordinates. Both gap crossings of the unfolded straight segment must fall
    inside their gaps, and every one of the c reflection points in between
    must land on a wall: a ray that meets a wall inside a gap (``wall_gaps``)
    leaves there, so that count has no path. Returns arrays (c, r) of the
    broadcast shape; c is -1 and r is 0 where no count of the admissible
    parity up to ``c_max`` works.
    """
    x0, y0, x1, y1 = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                           for v in (x0, y0, x1, y1)))
    ay0 = -y0
    if tg.case == "opposite":
        start, beyond, rx_lo, rx_hi = 0, y1 - tg.w, tg.x_u1, tg.x_u2
    else:
        start, beyond, rx_lo, rx_hi = 1, -y1, tg.x_l3, tg.x_l4
    dx = x1 - x0
    c_vals = np.full(dx.shape, -1, dtype=np.int64)
    r_vals = np.zeros(dx.shape)
    todo = np.ones(dx.shape, dtype=bool)
    for c in range(start, c_max + 1, 2):
        exit_h = (c + 1) * tg.w
        vert = exit_h + ay0 + beyond
        # crossings of the transmitter gap at the lower wall and of the
        # receiver gap at its unfolded height
        x_at0 = x0 + dx * (ay0 / vert)
        x_at1 = x0 + dx * ((exit_h + ay0) / vert)
        ok = (todo & (x_at0 >= tg.x_l1) & (x_at0 <= tg.x_l2)
              & (x_at1 >= rx_lo) & (x_at1 <= rx_hi))
        # a reflection point inside a gap is where the ray leaves instead
        for k in range(1, c + 1):
            x_k = x0 + dx * ((k * tg.w + ay0) / vert)
            for lo, hi in tg.wall_gaps(k):
                ok &= (x_k < lo) | (x_k > hi)
        c_vals[ok] = c
        r_vals[ok] = np.hypot(dx[ok], vert[ok])
        todo &= ~ok
    return c_vals, r_vals


def transport_min_path(tg: TransportGeometry, p0, p1, c_max: int) -> Optional[Tuple[int, float]]:
    """``min_paths`` for one pair: (c, r), or None when no count works."""
    c, r = min_paths(tg, p0[0], p0[1], p1[0], p1[1], c_max)
    return None if c < 0 else (int(c), float(r))


def link_probs_by_count(c_vals: np.ndarray, r_vals: np.ndarray,
                        link_prob: Callable) -> np.ndarray:
    """``link_prob(r, c)`` at each pair's minimal path, 0 where there is none.

    ``link_prob`` is called once per distinct count with the array of that
    count's distances; a scalar return broadcasts over them.
    """
    h = np.zeros(c_vals.shape)
    for c in np.unique(c_vals[c_vals >= 0]):
        sel = c_vals == c
        h[sel] = link_prob(r_vals[sel], int(c))
    return h


def averaged_connect_prob(tg: TransportGeometry, model: ChannelModel,
                          region0: Tuple[float, float, float, float],
                          region1: Tuple[float, float, float, float],
                          n_outer: int = 12, n_inner: int = 24,
                          link_prob: Optional[Callable] = None) -> float:
    """Pair connection probability averaged over both node regions.

    Regions are axis-aligned boxes (x_lo, x_hi, y_lo, y_hi). The average is
    a Gauss-Legendre double quadrature, of order ``n_outer`` per axis over
    region0 and ``n_inner`` over region1, of the minimal-path link
    probability: by default the exact Marcum form at the minimal feasible
    count. All node pairs go through one ``min_paths`` call, and
    ``link_prob(r, c)`` is called once per distinct count c with the array
    of that count's distances r; a scalar return broadcasts over them.

    The integrand jumps where a count becomes feasible, so Gauss-Legendre
    converges slowly: on the opposite-gap boxes of the tests the default
    12x24 order gives 0.63959, 24x48 gives 0.64165 and 64x64 gives 0.64191,
    against 0.64200 +- 0.00048 from 1M ``run_transport`` trials (seed 2024).
    """
    for name, box in (("region0", region0), ("region1", region1)):
        if not (box[1] > box[0] and box[3] > box[2]):
            raise ValueError(f"{name} must have positive area")

    if link_prob is None:
        def link_prob(r, c):
            return pair_connect_prob_exact(r, c, model)

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
    h = link_probs_by_count(c_vals, r_vals, link_prob)
    total = wp @ (h @ wq) * (jac0 * jac1)
    v0 = (region0[1] - region0[0]) * (region0[3] - region0[2])
    v1 = (region1[1] - region1[0]) * (region1[3] - region1[2])
    return float(total / (v0 * v1))
