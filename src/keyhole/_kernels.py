"""Trial kernel for the stochastic escape runs.

Counter-based uniform draws (a splitmix-style integer hash of seed, trial
and draw index) make every trial a pure function of the configuration, so
counts do not depend on execution order: a draw is identified by its
(trial, stream, index), and a kernel that skips a draw it does not need
leaves every other draw unchanged. :func:`escape_trials` uses this to skip
the coordinates of nodes beyond the cones' reach and the pair graph in
trials whose event does not depend on it; its counts are those of a kernel
that draws everything. ``scipy.sparse`` is imported only where a pair graph
is built, so this module and the ``"isolated_only"`` event do not load it.
"""

from __future__ import annotations

import numpy as np


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


EVENTS = ("isolated_only", "joint", "full")


def cone_reach(w, depth, tan_max, c_max):
    """Farthest offset along the walls from node 0 at which
    :func:`_classify_np` can place a node in a cone: the far corner of
    D_c_max, whose image sits (c_max + 1) w + ``depth`` above node 0. The
    factor 1 + 1e-9 covers the rounding of the classifier's vert * tan."""
    return ((c_max + 1) * w + depth) * tan_max * (1.0 + 1e-9)


def _table_arg(coeff, r, power):
    """Marcum argument coeff * r^power; power 1 (eta = 2) takes no power."""
    return coeff * (r if power == 1.0 else r ** power)


def escape_trials(seed, trials, n, dims, node0, cone_tan, b_coeffs, tab,
                  inv_step, event, reach, power):
    """Number of the ``trials`` in which ``event`` holds.

    ``dims`` is (L, w); a third coordinate in ``node0`` selects the 3-D slab
    (L x L x w) over the 2-D strip (L x w). ``cone_tan`` maps each node's
    offset from node 0 along the walls (x - x0 in 2-D, the horizontal
    distance in 3-D) to its cone half-angle tangent. A link at unfolded
    distance r after c reflections fires with the table value at
    ``b_coeffs[c] * r**power``.

    Events: ``"isolated_only"``, node 0 links to none of the ``n`` interior
    nodes; ``"joint"``, node 0 is isolated and the interior pair graph is
    connected; ``"full"``, node 0 and the interior nodes form one component.

    Draws the kernel does not need are skipped; the counts do not change,
    because every draw is keyed by (trial, stream, index) and a skipped draw
    leaves the others as they were:

    - ``reach`` bounds how far along the walls from node 0 a node in a cone
      can sit. Only nodes within it draw their next coordinate across the
      strip (2-D) or along the floor (3-D, then the height only within the
      planar distance ``reach``), and only those are classified.
    - The pair graph is drawn only where the event depends on it: never for
      ``"isolated_only"``, only in trials with node 0 isolated for
      ``"joint"`` and in every trial for ``"full"``. It then draws every
      node's coordinates under their usual keys.
    """
    if event not in EVENTS:
        raise ValueError(f"unknown event: {event!r}")
    if n == 0:
        return trials
    three_d = len(node0) == 3
    L, w = dims
    b_coeffs = np.asarray(b_coeffs, dtype=np.float64)
    c_max = len(b_coeffs) - 1
    b0 = b_coeffs[0]
    pos_keys = np.arange(n, dtype=np.uint64) * np.uint64(4)
    one, two = np.uint64(1), np.uint64(2)
    span_y = L if three_d else w
    if event != "isolated_only":
        iu, ju = np.triu_indices(n, 1)
        pair_keys = np.arange(iu.size, dtype=np.uint64)

    count = 0
    for t in range(trials):
        base = trial_bases_np(seed, np.array([t], dtype=np.uint64))
        xs = draws_np(base, STREAM_POSITION, pos_keys) * L
        dx = xs - node0[0]
        near = np.flatnonzero(np.abs(dx) <= reach)
        ys = draws_np(base, STREAM_POSITION, pos_keys[near] + one) * span_y
        if three_d:
            sx = dx[near]
            sy = ys - node0[1]
            rad = np.sqrt(sx * sx + sy * sy)
            inside = rad <= reach
            near = near[inside]
            rad = rad[inside]
            zs = draws_np(base, STREAM_POSITION, pos_keys[near] + two) * w
            c_sel, adx, vert = _classify_np(rad, zs, -node0[2], w, cone_tan(rad), c_max)
        else:
            dxn = dx[near]
            c_sel, adx, vert = _classify_np(np.abs(dxn), ys, -node0[1], w,
                                            cone_tan(dxn), c_max)
        # only nodes inside a cone can link to node 0
        hit = c_sel >= 0
        reached = near[hit]
        r0 = np.sqrt(adx[hit] ** 2 + vert[hit] ** 2)
        h0 = table_lookup_np(tab, inv_step, _table_arg(b_coeffs[c_sel[hit]], r0, power))
        u0 = draws_np(base, STREAM_EXTERNAL, reached.astype(np.uint64))
        link0 = reached[u0 < h0]
        isolated = link0.size == 0
        if event == "isolated_only":
            count += isolated
            continue
        if event == "joint" and not isolated:
            continue

        from scipy.sparse import coo_matrix, csgraph

        coords = [xs, draws_np(base, STREAM_POSITION, pos_keys + one) * span_y]
        if three_d:
            coords.append(draws_np(base, STREAM_POSITION, pos_keys + two) * w)
        d = np.sqrt(sum((p[iu] - p[ju]) ** 2 for p in coords))
        h = table_lookup_np(tab, inv_step, _table_arg(b0, d, power))
        linked = draws_np(base, STREAM_PAIRS, pair_keys) < h
        graph = coo_matrix((np.ones(int(linked.sum()), dtype=bool),
                            (iu[linked], ju[linked])), shape=(n, n))
        ncomp, labels = csgraph.connected_components(graph, directed=False)
        if event == "joint":
            count += ncomp == 1
        else:
            # node 0 joins the whole graph when it links into every component
            count += np.unique(labels[link0]).size == ncomp
    return count
