"""Stochastic oracle: random node placement, link sampling and connectivity
event estimation for the escape and transport layouts.

Links are Bernoulli draws with the exact Marcum-Q connection probability
(tabulated densely enough that interpolation error is far below Monte Carlo
noise; the exponential surrogate is never used here). Draws are counter
based, so estimates are reproducible bit for bit for a given seed,
regardless of execution order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .channel import ChannelModel, pair_connect_prob_exact
from .geometry2d import Geometry2D
from .escape3d import Geometry3D
from .specfun import marcum_q1
from .transport import TransportGeometry, link_probs_by_count, min_paths

LINK_TABLE_POINTS = 1 << 17


@dataclass(frozen=True)
class McEstimate:
    event_count: int
    trials: int
    p_hat: float
    std_err: float
    seed: int

    @staticmethod
    def from_counts(event_count: int, trials: int, seed: int) -> "McEstimate":
        p = event_count / trials
        return McEstimate(event_count=event_count, trials=trials, p_hat=p,
                          std_err=math.sqrt(p * (1.0 - p) / trials), seed=seed)


@dataclass
class McConfig:
    scenario: str                      # "escape2d" | "escape3d" | "transport"
    geometry: object
    channel: ChannelModel
    trials: int
    seed: int
    rho: Optional[float] = None
    n: Optional[int] = None
    event: str = "joint"               # one of _kernels.EVENTS
    c_max: Optional[int] = None
    region0: Optional[Tuple[float, float, float, float]] = None
    region1: Optional[Tuple[float, float, float, float]] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.scenario not in ("escape2d", "escape3d", "transport"):
            raise ValueError(f"unknown scenario: {self.scenario!r}")
        if self.event not in _kernels.EVENTS:
            raise ValueError(f"unknown event: {self.event!r}")
        if self.scenario != "transport":
            if (self.rho is None) == (self.n is None):
                raise ValueError("give exactly one of rho and n")

    def node_count(self) -> int:
        if self.n is not None:
            return self.n
        return int(round(self.rho * self.domain_measure()))

    def domain_measure(self) -> float:
        g = self.geometry
        if self.scenario == "escape2d":
            return g.w * g.L
        if self.scenario == "escape3d":
            return g.w * g.L * g.L
        raise ValueError("transport runs have no single domain measure")


def link_probability_table(model: ChannelModel) -> Tuple[np.ndarray, float]:
    """Dense tabulation of Q1(a, b) against b for kernel-side interpolation.

    The table depends on the model only through ``a_parameter`` (set by K),
    so models that differ in alpha or beta share one cached, read-only table.
    """
    return _link_table(model.a_parameter)


@functools.lru_cache(maxsize=8)
def _link_table(a: float) -> Tuple[np.ndarray, float]:
    b_hi = a + 14.0
    tab = np.asarray(marcum_q1(a, np.linspace(0.0, b_hi, LINK_TABLE_POINTS)))
    tab.flags.writeable = False
    return tab, (LINK_TABLE_POINTS - 1) / b_hi


def _escape_counts(cfg: McConfig, event: str) -> int:
    """Trials of ``cfg`` in which ``event`` ("isolated_only", "joint" or
    "full") holds."""
    model = cfg.channel
    g = cfg.geometry
    c_max = cfg.c_max if cfg.c_max is not None else model.C
    c_max = min(c_max, model.C)
    n = cfg.node_count()
    tab, inv_step = link_probability_table(model)
    b_coeffs = np.array([model.b_coefficient(c) for c in range(c_max + 1)])
    if cfg.scenario == "escape2d":
        node0 = (g.x0, g.y0)
        cone_tan = g.cone_tan
        depth = g.abs_y0
        tan_max = max(math.tan(th) for th in g.side_thetas())
    else:
        if not g.is_on_axis():
            raise NotImplementedError("3-D trials assume a node on the gap axis")
        node0 = (g.x0, g.y0, g.z0)
        depth = g.abs_z0
        tan_max = math.tan(g.theta())

        def cone_tan(rad):
            return tan_max
    reach = _kernels.cone_reach(g.w, depth, tan_max, c_max)
    # infinite coefficients (alpha = 0) map far beyond the table, giving H = 0
    b_coeffs = np.where(np.isinf(b_coeffs), 1e9, b_coeffs)
    return _kernels.escape_trials(cfg.seed, cfg.trials, n, (g.L, g.w), node0,
                                  cone_tan, b_coeffs, tab, inv_step, event, reach,
                                  0.5 * model.eta)


def run_escape_isolation(cfg: McConfig) -> McEstimate:
    """Estimate the external-node isolation event.

    ``event="joint"`` counts trials where node 0 reaches nobody while the
    interior graph is fully connected; ``event="isolated_only"`` drops the
    interior condition (the two coincide in dense regimes); ``event="full"``
    counts trials where all nodes form one component, as
    :func:`run_full_connectivity` does. The kernel skips the draws the event
    does not need: the interior pair graph for ``"isolated_only"`` and, for
    ``"joint"``, in every trial where node 0 links, and the cross-wall
    coordinates of nodes beyond the cones' reach.
    Every draw is keyed by its trial, stream and index, so the counts are
    those of a run that draws everything.
    """
    count = _escape_counts(cfg, cfg.event)
    return McEstimate.from_counts(count, cfg.trials, cfg.seed)


def run_full_connectivity(cfg: McConfig) -> McEstimate:
    """Estimate the probability that all nodes form a single component."""
    return McEstimate.from_counts(_escape_counts(cfg, "full"), cfg.trials, cfg.seed)


@dataclass(frozen=True)
class TransportEstimate:
    estimate: McEstimate
    per_c_attempts: Tuple[int, ...]
    per_c_connects: Tuple[int, ...]


def run_transport(cfg: McConfig) -> TransportEstimate:
    """Estimate the pair connection probability for the transport layout.

    Node positions are drawn uniformly from ``region0``/``region1`` boxes
    (degenerate boxes pin a node). The link fires with the exact Marcum
    probability of the minimal feasible path. The path comes from
    ``transport.min_paths`` and the link probability from
    ``transport.link_probs_by_count``, the code ``averaged_connect_prob``
    runs, so the two estimates differ only by sampling and quadrature error.
    Trials are also stratified by that minimal reflection count.
    """
    tg: TransportGeometry = cfg.geometry
    model = cfg.channel
    c_max = cfg.c_max if cfg.c_max is not None else model.C
    c_max = min(c_max, model.C)

    region0 = cfg.region0 or (tg.node0[0], tg.node0[0], tg.node0[1], tg.node0[1])
    region1 = cfg.region1 or (tg.node1[0], tg.node1[0], tg.node1[1], tg.node1[1])

    trials = np.arange(cfg.trials, dtype=np.uint64)
    base = _kernels.trial_bases_np(cfg.seed, trials)

    def sample_box(stream, box):
        xs = _kernels.draws_np(base, stream, np.zeros(cfg.trials, dtype=np.uint64))
        ys = _kernels.draws_np(base, stream, np.ones(cfg.trials, dtype=np.uint64))
        x = box[0] + (box[1] - box[0]) * xs
        y = box[2] + (box[3] - box[2]) * ys
        return x, y

    x0s, y0s = sample_box(_kernels.STREAM_POSITION, region0)
    x1s, y1s = sample_box(_kernels.STREAM_NODE1, region1)

    c_vals, r_vals = min_paths(tg, x0s, y0s, x1s, y1s, c_max)
    h = link_probs_by_count(c_vals, r_vals,
                            lambda r, c: pair_connect_prob_exact(r, c, model))
    u = _kernels.draws_np(base, _kernels.STREAM_LINK,
                          np.zeros(cfg.trials, dtype=np.uint64))
    connected = u < h

    attempts = []
    connects = []
    for c in range(0, c_max + 1):
        sel = c_vals == c
        attempts.append(int(sel.sum()))
        connects.append(int((sel & connected).sum()))
    est = McEstimate.from_counts(int(connected.sum()), cfg.trials, cfg.seed)
    return TransportEstimate(estimate=est, per_c_attempts=tuple(attempts),
                             per_c_connects=tuple(connects))


@dataclass(frozen=True)
class RayPath:
    points: Tuple[Tuple[float, ...], ...]
    reflections: int
    length: float
    stopped: str        # "budget" | "escaped" | "blocked" | "free"

    def point_at(self, distance: float) -> Tuple[float, ...]:
        """Point at the given arc length along the polyline."""
        remaining = distance
        pts = [np.asarray(p) for p in self.points]
        for a, b in zip(pts, pts[1:]):
            seg = float(np.linalg.norm(b - a))
            if remaining <= seg or seg == 0.0:
                if seg == 0.0:
                    continue
                return tuple(a + (remaining / seg) * (b - a))
            remaining -= seg
        raise ValueError("distance exceeds traced path length")


def trace_ray(geometry, origin: Sequence[float], direction: Sequence[float],
              max_reflections: int) -> RayPath:
    """Trace a ray with specular bounces off the horizontal walls.

    The wall holding the gap is transparent over the gap span (disc in 3-D).
    Tracing stops when the reflection budget would be exceeded (``budget``),
    the ray escapes downward through the gap (``escaped``), it hits the
    gapped wall outside the gap from below (``blocked``), or it never meets
    a wall (``free``).
    """
    origin = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        raise ValueError("direction must be non-zero")
    d = d / norm

    if isinstance(geometry, Geometry2D):
        axis = 1

        def in_gap(p):
            return geometry.gap_left <= p[0] <= geometry.gap_right
    elif isinstance(geometry, Geometry3D):
        axis = 2

        def in_gap(p):
            gx, gy = geometry.gap_center
            return math.hypot(p[0] - gx, p[1] - gy) <= geometry.gap_radius
    else:
        raise TypeError("trace_ray needs a Geometry2D or Geometry3D")
    if origin.shape != (axis + 1,) or d.shape != (axis + 1,):
        raise ValueError(f"origin and direction need {axis + 1} coordinates each")

    w = geometry.w
    pos = origin.copy()
    points = [tuple(pos)]
    reflections = 0
    length = 0.0
    for _ in range(max_reflections + 8):
        dv = d[axis]
        if dv == 0.0:
            return RayPath(tuple(points), reflections, length, "free")
        if dv > 0.0:
            plane = 0.0 if pos[axis] < -1e-15 else w
        else:
            plane = w if pos[axis] > w + 1e-15 else 0.0
        t = (plane - pos[axis]) / dv
        if t <= 0.0:
            return RayPath(tuple(points), reflections, length, "free")
        hit = pos + t * d
        length += float(t)
        points.append(tuple(hit))
        pos = hit
        if plane == 0.0:
            if in_gap(hit):
                if dv > 0.0:
                    continue                 # entering through the gap
                return RayPath(tuple(points), reflections, length, "escaped")
            if dv > 0.0:
                # hit the gapped wall from below, outside the gap
                return RayPath(tuple(points), reflections, length, "blocked")
        if reflections >= max_reflections:
            return RayPath(tuple(points), reflections, length, "budget")
        d = d.copy()
        d[axis] = -d[axis]
        reflections += 1
    return RayPath(tuple(points), reflections, length, "budget")
