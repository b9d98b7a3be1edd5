"""Trial kernel for the stochastic escape runs.

Counter-based uniform draws (a splitmix-style integer hash of seed, trial
and draw index) make every trial a pure function of the configuration, so
counts do not depend on execution order: a draw is identified by its
(trial, stream, index), and a kernel that skips a draw it does not need
leaves every other draw unchanged.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def backend() -> str:
    return "numpy"


_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)
_KEY_MULT = np.uint64(0xD1B54A32D192ED03)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_S56 = np.uint64(56)
_INV53 = float(2.0 ** -53)

STREAM_POSITION = 0
STREAM_EXTERNAL = 1
STREAM_PAIRS = 2
STREAM_NODE1 = 3
STREAM_LINK = 4


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z + _M1) & np.uint64(0xFFFFFFFFFFFFFFFF)
    z = (z ^ (z >> _S30)) * _M2
    z = (z ^ (z >> _S27)) * _M3
    return z ^ (z >> _S31)


def trial_bases_np(seed: int, trials: np.ndarray) -> np.ndarray:
    seed_u = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return _mix64_np(seed_u ^ _mix64_np(trials.astype(np.uint64)))


def draws_np(base: np.ndarray, stream: int, index: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) for (base, stream, index); vectorised."""
    key = (np.uint64(stream) << _S56) + index.astype(np.uint64)
    bits = _mix64_np(base ^ (key * _KEY_MULT))
    return (bits >> _S11).astype(np.float64) * _INV53


def table_lookup_np(tab: np.ndarray, inv_step: float, b: np.ndarray) -> np.ndarray:
    """Linear interpolation of the link-probability table; 0 beyond range."""
    pos = b * inv_step
    idx = pos.astype(np.int64)
    idx_c = np.minimum(idx, tab.shape[0] - 2)
    frac = pos - idx_c
    val = tab[idx_c] + frac * (tab[idx_c + 1] - tab[idx_c])
    return np.where(idx >= tab.shape[0] - 1, 0.0, val)


def _classify_np(adx, v, av0, w, tan_t, c_max):
    """Minimal-reflection classification; c = -1 is unreachable.

    ``adx`` is each node's distance from node 0 along the walls, ``v`` its
    coordinate across the strip or slab, ``av0`` node 0's depth below the
    gapped wall and ``tan_t`` the cone half-angle tangent (scalar or per
    node). Returns (c, adx, vertical offset of the c-th image).
    """
    c_out = np.full(adx.shape, -1, dtype=np.int64)
    vert_out = np.zeros_like(adx)
    todo = np.ones(adx.shape, dtype=bool)
    for c in range(c_max + 1):
        vim = c * w + v if c % 2 == 0 else (c + 1) * w - v
        vert = vim + av0
        hit = todo & (adx <= vert * tan_t)
        c_out[hit] = c
        vert_out[hit] = vert[hit]
        todo &= ~hit
        if not todo.any():
            break
    return c_out, adx, vert_out


def escape_trials(seed, trials, n, dims, node0, cone_tan, b_coeffs, tab,
                  inv_step, need_interior):
    """Event counts (isolated, joint, full_connectivity) over ``trials``.

    ``dims`` is (L, w); a third coordinate in ``node0`` selects the 3-D slab
    (L x L x w) over the 2-D strip (L x w). ``cone_tan`` maps each node's
    offset from node 0 along the walls (x - x0 in 2-D, the horizontal
    distance in 3-D) to its cone half-angle tangent. Node 0 is isolated
    when it links to none of the ``n`` interior nodes. The interior pair
    graph is drawn only when ``need_interior`` asks for the joint and full
    events.
    """
    if n == 0:
        return trials, trials, trials
    three_d = len(node0) == 3
    L, w = dims
    b_coeffs = np.asarray(b_coeffs, dtype=np.float64)
    c_max = len(b_coeffs) - 1
    b0 = b_coeffs[0]
    pos_keys = np.arange(n, dtype=np.uint64) * np.uint64(4)
    if need_interior:
        iu, ju = np.triu_indices(n, 1)
        pair_keys = np.arange(iu.size, dtype=np.uint64)

    n_iso = 0
    n_joint = 0
    n_full = 0
    for t in range(trials):
        base = trial_bases_np(seed, np.array([t], dtype=np.uint64))
        xs = draws_np(base, STREAM_POSITION, pos_keys) * L
        if three_d:
            ys = draws_np(base, STREAM_POSITION, pos_keys + np.uint64(1)) * L
            zs = draws_np(base, STREAM_POSITION, pos_keys + np.uint64(2)) * w
            coords = (xs, ys, zs)
            sx = xs - node0[0]
            sy = ys - node0[1]
            rad = np.sqrt(sx * sx + sy * sy)
            c_sel, adx, vert = _classify_np(rad, zs, -node0[2], w, cone_tan(rad), c_max)
        else:
            ys = draws_np(base, STREAM_POSITION, pos_keys + np.uint64(1)) * w
            coords = (xs, ys)
            dx = xs - node0[0]
            c_sel, adx, vert = _classify_np(np.abs(dx), ys, -node0[1], w,
                                            cone_tan(dx), c_max)
        # only nodes inside a cone can link to node 0
        reach = np.flatnonzero(c_sel >= 0)
        r0 = np.sqrt(adx[reach] ** 2 + vert[reach] ** 2)
        h0 = table_lookup_np(tab, inv_step, b_coeffs[c_sel[reach]] * r0)
        u0 = draws_np(base, STREAM_EXTERNAL, reach.astype(np.uint64))
        link0 = reach[u0 < h0]
        isolated = link0.size == 0
        n_iso += isolated
        if not need_interior:
            continue

        d = np.sqrt(sum((p[iu] - p[ju]) ** 2 for p in coords))
        h = table_lookup_np(tab, inv_step, b0 * d)
        linked = draws_np(base, STREAM_PAIRS, pair_keys) < h
        graph = coo_matrix((np.ones(int(linked.sum()), dtype=bool),
                            (iu[linked], ju[linked])), shape=(n, n))
        ncomp, labels = connected_components(graph, directed=False)
        n_joint += isolated and ncomp == 1
        # node 0 joins the whole graph when it links into every component
        n_full += np.unique(labels[link0]).size == ncomp
    return n_iso, n_joint, n_full
