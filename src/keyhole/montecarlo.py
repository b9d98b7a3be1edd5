"""Stochastic oracle: random node placement, link sampling and connectivity
event estimation for the escape and transport layouts.

Interior nodes of the escape layouts form a Poisson process of intensity
``rho``, the law behind the analytic isolation exp(-rho m). Every
reflection count up to the channel's ``C`` is simulated. Links are
Bernoulli draws with the exact Marcum-Q connection probability (tabulated
densely enough that interpolation error is far below Monte Carlo noise;
the exponential surrogate is never used here) at the Marcum coefficients of
``channel``, which owns the per-count link law. Draws are counter based, so
estimates are reproducible bit for bit for a given seed, regardless of
execution order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .channel import ChannelModel
from .specfun import marcum_q1
from .transport import min_paths

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
    """One Monte Carlo run. A layout with a node population (a domain
    measure) needs ``rho``, the intensity of its Poisson process of interior
    nodes, a finite number >= 0; a layout without one (transport) takes no
    ``rho``. Reflection counts run up to ``channel.C``. ``scenario`` is
    optional and, if given, must be ``geometry.scenario``."""

    geometry: object
    channel: ChannelModel
    trials: int
    seed: int
    rho: Optional[float] = None
    event: str = "joint"               # one of _kernels.EVENTS
    region0: Optional[Tuple[float, float, float, float]] = None
    region1: Optional[Tuple[float, float, float, float]] = None
    scenario: Optional[str] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.scenario is not None and self.scenario != self.geometry.scenario:
            raise ValueError(f"scenario {self.scenario!r} disagrees with its geometry, "
                             f"a {self.geometry.scenario} layout")
        if self.event not in _kernels.EVENTS:
            raise ValueError(f"unknown event: {self.event!r}")
        if self.geometry.domain_measure() is None:
            if self.rho is not None:
                raise ValueError(f"a {self.geometry.scenario} layout has no interior "
                                 f"nodes, so it takes no rho")
        elif not (isinstance(self.rho, (int, float)) and 0.0 <= self.rho < math.inf):
            raise ValueError(f"rho must be a finite number >= 0, got {self.rho!r}")


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


def _escape_counts(cfg: McConfig) -> int:
    """Trials of ``cfg`` in which ``cfg.event`` ("isolated_only", "joint" or
    "full") holds."""
    model, g = cfg.channel, cfg.geometry
    tab, inv_step = link_probability_table(model)
    node0, entry, depth, tan_max = g.mc_setup()
    reach = _kernels.cone_reach(g.w, depth, tan_max, model.C)
    return _kernels.escape_trials(cfg.seed, cfg.trials, (g.L, g.w), node0, entry,
                                  model.b_coefficient(np.arange(model.C + 1)), tab, inv_step,
                                  cfg.event, reach, 0.5 * model.eta, cfg.rho)


def run_escape_isolation(cfg: McConfig) -> McEstimate:
    """Estimate the external-node isolation event.

    ``event="joint"`` counts trials where node 0 reaches nobody while the
    interior graph is fully connected; ``event="isolated_only"`` drops the
    interior condition (the two coincide in dense regimes); ``event="full"``
    counts trials where all nodes form one component. The interior is a
    Poisson process of intensity ``rho``, so ``"isolated_only"`` estimates
    exp(-rho m), the analytic isolation. A trial with an empty interior
    (N = 0, probability exp(-rho V)) satisfies every event:
    node 0 is isolated, and alone it is one component. So ``"full"`` counts
    it as connected, where :func:`mass2d.full_connectivity_first_order`
    counts it as node 0 isolated, and reads exp(-rho V) above that
    convention: 0.1065 on the 8 x 14 box at rho = 0.02, negligible at every
    preset. The kernel
    (:func:`_kernels.escape_trials`) runs the trials in blocks of whole
    trials, draws Poisson nodes straight into the box the cones can reach,
    and builds the interior pair graph only in trials whose event needs it.
    Every draw is keyed by its trial, stream and index, so the counts are
    those of a run that draws everything, one trial at a time.
    """
    return McEstimate.from_counts(_escape_counts(cfg), cfg.trials, cfg.seed)


@dataclass(frozen=True)
class TransportEstimate:
    estimate: McEstimate
    per_c_attempts: Tuple[int, ...]
    per_c_connects: Tuple[int, ...]


def run_transport(cfg: McConfig) -> TransportEstimate:
    """Estimate the pair connection probability for the transport layout.

    Node positions are drawn uniformly from ``region0``/``region1`` boxes
    (degenerate boxes pin a node). The link fires with the Marcum
    probability of the minimal feasible path (``transport.min_paths``, the
    escape kernel's classifier), read from the escape kernel's
    :func:`link_probability_table`. ``averaged_connect_prob`` runs the exact
    series on the same paths, so the two estimates differ by sampling,
    quadrature and table error, the last far below the others. Trials are
    stratified by that minimal reflection count and run in blocks of
    ``_kernels.NODE_BUDGET``; every draw is keyed by its trial, stream and
    index, so the counts do not depend on the blocking.
    """
    tg, model, c_max = cfg.geometry, cfg.channel, cfg.channel.C
    tab, inv_step = link_probability_table(model)
    b_coeffs = model.b_coefficient(np.arange(c_max + 1))

    region0 = cfg.region0 or (tg.node0[0], tg.node0[0], tg.node0[1], tg.node0[1])
    region1 = cfg.region1 or (tg.node1[0], tg.node1[0], tg.node1[1], tg.node1[1])

    # tallies indexed by count + 1, so slot 0 holds the pairs with no path
    attempts = np.zeros(c_max + 2, dtype=np.int64)
    connects = np.zeros(c_max + 2, dtype=np.int64)
    for start in range(0, cfg.trials, _kernels.NODE_BUDGET):
        trials = np.arange(start, min(start + _kernels.NODE_BUDGET, cfg.trials),
                           dtype=np.uint64)
        base = _kernels.trial_bases_np(cfg.seed, trials)
        index0 = np.zeros(trials.size, dtype=np.uint64)
        index1 = np.ones(trials.size, dtype=np.uint64)

        def sample_box(stream, box):
            x = box[0] + (box[1] - box[0]) * _kernels.draws_np(base, stream, index0)
            y = box[2] + (box[3] - box[2]) * _kernels.draws_np(base, stream, index1)
            return x, y

        x0s, y0s = sample_box(_kernels.STREAM_POSITION, region0)
        x1s, y1s = sample_box(_kernels.STREAM_NODE1, region1)
        c_vals, r_vals = min_paths(tg, x0s, y0s, x1s, y1s, c_max)
        h = np.zeros(trials.size)
        path = c_vals >= 0
        h[path] = _kernels.table_lookup_np(tab, inv_step, _kernels._table_arg(
            b_coeffs[c_vals[path]], r_vals[path], 0.5 * model.eta))
        connected = _kernels.draws_np(base, _kernels.STREAM_LINK, index0) < h
        attempts += np.bincount(c_vals + 1, minlength=c_max + 2)
        connects += np.bincount(c_vals[connected] + 1, minlength=c_max + 2)
    est = McEstimate.from_counts(int(connects.sum()), cfg.trials, cfg.seed)
    return TransportEstimate(estimate=est, per_c_attempts=tuple(map(int, attempts[1:])),
                             per_c_connects=tuple(map(int, connects[1:])))


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


def _in_gap(gap, p) -> bool:
    """Whether wall point ``p`` is in ``gap``, edges included: an interval
    (lo, hi) of its first coordinate or a disc (cx, cy, r) of its first two."""
    if len(gap) == 2:
        return gap[0] <= p[0] <= gap[1]
    return math.hypot(p[0] - gap[0], p[1] - gap[1]) <= gap[2]


def trace_ray(geometry, origin: Sequence[float], direction: Sequence[float],
              max_reflections: int) -> RayPath:
    """Trace a ray with specular bounces off the horizontal walls.

    Wall k (0 lower, 1 upper) is transparent over ``geometry.wall_gaps(k)``.
    A ray entering the strip or slab through a gap passes on, and one
    leaving through a gap stops (``escaped``); outside every gap a ray from
    outside stops (``blocked``) and one from inside reflects. Tracing also
    stops when the reflection budget would be exceeded (``budget``) or the
    ray never meets a wall (``free``).
    """
    pos = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        raise ValueError("direction must be non-zero")
    d = d / norm

    axis = geometry.axis
    if pos.shape != (axis + 1,) or d.shape != (axis + 1,):
        raise ValueError(f"origin and direction need {axis + 1} coordinates each")

    w = geometry.w
    points = [tuple(pos)]
    reflections, length, stopped = 0, 0.0, "budget"
    for _ in range(max_reflections + 8):
        dv = d[axis]
        if dv > 0.0:
            plane = 0.0 if pos[axis] < -1e-15 else w
        else:
            plane = w if pos[axis] > w + 1e-15 else 0.0
        t = (plane - pos[axis]) / dv if dv != 0.0 else 0.0
        if t <= 0.0:
            stopped = "free"
            break
        pos = pos + t * d
        length += float(t)
        points.append(tuple(pos))
        # upward through the lower wall or downward through the upper one
        entering = (dv > 0.0) == (plane == 0.0)
        in_gap = any(_in_gap(gap, pos) for gap in geometry.wall_gaps(int(plane != 0.0)))
        if in_gap and entering:
            continue
        if in_gap or entering:
            stopped = "escaped" if in_gap else "blocked"
            break
        if reflections >= max_reflections:
            break
        d[axis] = -d[axis]
        reflections += 1
    return RayPath(tuple(points), reflections, length, stopped)
