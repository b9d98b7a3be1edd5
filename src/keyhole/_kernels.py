"""Trial kernel for the stochastic escape runs.

Counter-based uniform draws (a splitmix-style integer hash of seed, trial
and draw index) make every trial a pure function of the configuration, so
counts do not depend on execution order or on how trials are grouped: a
draw is identified by its (trial, stream, index), and a kernel that skips a
draw it does not need leaves every other draw unchanged.

:func:`escape_trials` runs a point's trials in blocks of whole trials under
a fixed node budget, one array pass per block, and builds a pair graph per
trial only where the event needs one. Interior nodes form a Poisson process
of intensity ``rho``. It is drawn straight into the box the cones can
reach, with the rest of the domain drawn only for a pair graph; by Poisson
restriction this is the process over the whole domain.
``scipy.sparse`` is imported only where a pair graph is built, so this
module and the ``"isolated_only"`` event do not load it.
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

STREAM_POSITION = 0    # transport node 0
STREAM_EXTERNAL = 1
STREAM_PAIRS = 2
STREAM_NODE1 = 3
STREAM_LINK = 4
STREAM_COUNTS = 5      # Poisson node counts: index 0 in the reach box, 1 in the domain
STREAM_REACH = 6       # Poisson nodes in the reach box
STREAM_DOMAIN = 7      # Poisson nodes over the domain, kept outside the reach box

# nodes one array pass holds; a block takes whole trials, at least one, so
# memory stays bounded whatever the trial count
NODE_BUDGET = 1 << 15


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
    """Linear interpolation of the link-probability table; 0 from its end on."""
    last = tab.shape[0] - 1
    pos = np.minimum(b * inv_step, last)
    idx = np.minimum(pos.astype(np.int64), last - 1)
    val = tab[idx] + (pos - idx) * (tab[idx + 1] - tab[idx])
    return np.where(pos >= last, 0.0, val)


def y_image(c: int, y, w: float):
    """Height of the unfolded image of an interior point after c reflections.

    ``y`` may be a scalar or an ndarray.
    """
    if c % 2 == 0:
        return c * w + y
    return (c + 1) * w - y


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
        vert = y_image(c, v, w) + av0
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


def poisson_counts(u, lam):
    """Poisson(``lam``) variates by inverse CDF of the uniforms ``u``: the
    least k with P(X <= k) >= u. ``pdtrik`` inverts the CDF continued to real
    k; the +-1 fix-up against ``pdtr`` corrects its rounding at the integers."""
    from scipy.special import pdtr, pdtrik

    k = np.maximum(np.ceil(pdtrik(u, lam)), 0.0)
    k -= (k > 0.0) & (pdtr(np.maximum(k - 1.0, 0.0), lam) >= u)
    k += pdtr(k, lam) < u
    return k.astype(np.int64)


def _blocks(counts):
    """(start, stop) runs of whole trials holding at most ``NODE_BUDGET``
    nodes, or one trial where it alone holds more."""
    ends = np.cumsum(counts)
    start = 0
    while start < counts.size:
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + NODE_BUDGET, side="right")))
        yield start, stop
        start = stop


def _nodes(base, stream, count, lo, span):
    """Coordinates of nodes 0 .. count - 1 of one trial, uniform in the box
    [lo, lo + span]; coordinate d of node i is draw 4 i + d."""
    keys = (np.arange(count, dtype=np.uint64)[:, None] * np.uint64(4)
            + np.arange(len(lo), dtype=np.uint64))
    return list((lo + span * draws_np(base, stream, keys)).T)


def _graph_event(base, coords, link0, event, tab, inv_step, b0, power):
    """Whether ``event`` holds in one trial, given its interior nodes'
    ``coords`` and the nodes ``link0`` that node 0 links to; an empty
    interior satisfies every event."""
    n = coords[0].size
    if n == 0:
        return True
    from scipy.sparse import csgraph, csr_matrix

    iu, ju = np.triu_indices(n, 1)
    d = np.sqrt(sum((p[iu] - p[ju]) ** 2 for p in coords))
    h = table_lookup_np(tab, inv_step, _table_arg(b0, d, power))
    linked = draws_np(base, STREAM_PAIRS, np.arange(iu.size, dtype=np.uint64)) < h
    # iu is sorted, so the links are already in row order
    rows = np.concatenate(([0], np.cumsum(np.bincount(iu[linked], minlength=n))))
    # float64 data, which csgraph would otherwise convert to
    graph = csr_matrix((np.ones(rows[-1]), ju[linked], rows), shape=(n, n))
    ncomp, labels = csgraph.connected_components(graph, directed=False)
    if event == "joint":
        return ncomp == 1
    # node 0 joins the whole graph when it links into every component
    return np.unique(labels[link0]).size == ncomp


def escape_trials(seed, trials, dims, node0, cone_tan, b_coeffs, tab, inv_step,
                  event, reach, power, rho):
    """Number of the ``trials`` in which ``event`` holds.

    ``dims`` is (L, w); a third coordinate in ``node0`` selects the 3-D slab
    (L x L x w) over the 2-D strip (L x w). The last coordinate runs across
    the strip or slab, the others along the walls. ``cone_tan`` maps each
    node's offsets from node 0 along the walls (dx in 2-D, dx and dy in 3-D)
    to its cone half-angle tangent. A link at unfolded distance r after c
    reflections fires with the table value at ``b_coeffs[c] * r**power``,
    0 where ``b_coeffs[c]`` is infinite.
    ``reach`` bounds how far along the walls from node 0 a node in a cone
    can sit (:func:`cone_reach`).

    Interior nodes form a Poisson process of intensity ``rho``. Each trial
    draws N_U ~ Poisson(rho |U|) nodes uniformly into U, the box within
    ``reach`` of node 0 along the walls, clipped to the domain, across the
    full width; every node that can sit in a cone is among them. A trial
    that needs the pair graph adds a Poisson(rho V) population over the
    whole domain, on a stream of its own, and keeps its nodes outside U.
    Poisson restriction makes this exact.

    Events: ``"isolated_only"``, node 0 links to no interior node;
    ``"joint"``, node 0 is isolated and the interior pair graph is
    connected; ``"full"``, node 0 and the interior nodes form one component.

    Trials run in blocks of at most ``NODE_BUDGET`` nodes: one array pass
    per block places and classifies the nodes and draws node 0's links, and
    ``np.bincount`` counts each trial's links. The pair graph is drawn only
    in trials whose event depends on it: never for ``"isolated_only"``,
    where node 0 is isolated for ``"joint"``, and in every trial for
    ``"full"``. Every draw is keyed by (trial, stream, index), so neither
    the blocks nor the draws skipped change a count.
    """
    if event not in EVENTS:
        raise ValueError(f"unknown event: {event!r}")
    L, w = dims
    dim = len(node0)
    extent = np.array([L] * (dim - 1) + [w], dtype=np.float64)
    c_max = len(b_coeffs) - 1
    bases = trial_bases_np(seed, np.arange(trials, dtype=np.uint64))
    along = np.asarray(node0[:-1], dtype=np.float64)
    lo = np.append(np.maximum(along - reach, 0.0), 0.0)
    span = np.append(np.minimum(along + reach, extent[:-1]), w) - lo
    u = draws_np(bases, STREAM_COUNTS, np.zeros(trials, dtype=np.uint64))
    counts = poisson_counts(u, rho * np.prod(span))

    link_trial, link_node = [], []
    for start, stop in _blocks(counts):
        k = counts[start:stop]
        trial = np.repeat(np.arange(start, stop), k)
        node = (np.arange(trial.size) - np.repeat(np.cumsum(k) - k, k)).astype(np.uint64)
        base = bases[trial]
        keys = node * np.uint64(4)
        pos = [lo[d] + span[d] * draws_np(base, STREAM_REACH, keys + np.uint64(d))
               for d in range(dim)]
        offsets = [p - p0 for p, p0 in zip(pos[:-1], node0)]
        if dim == 2:
            adx = np.abs(offsets[0])
        else:
            adx = np.sqrt(offsets[0] * offsets[0] + offsets[1] * offsets[1])
        c_sel, adx, vert = _classify_np(adx, pos[-1], -node0[-1], w,
                                        cone_tan(*offsets), c_max)
        # only nodes inside a cone can link to node 0
        hit = np.flatnonzero(c_sel >= 0)
        r0 = np.sqrt(adx[hit] ** 2 + vert[hit] ** 2)
        h0 = table_lookup_np(tab, inv_step, _table_arg(b_coeffs[c_sel[hit]], r0, power))
        linked = hit[draws_np(base[hit], STREAM_EXTERNAL, node[hit]) < h0]
        link_trial.append(trial[linked])
        link_node.append(node[linked])

    links = np.bincount(np.concatenate(link_trial), minlength=trials)
    isolated = links == 0
    if event == "isolated_only":
        return int(isolated.sum())
    link_node = np.concatenate(link_node).astype(np.int64)
    first = np.concatenate(([0], np.cumsum(links)))
    graph_trials = np.flatnonzero(isolated) if event == "joint" else np.arange(trials)
    # a pair graph also takes the nodes outside U, if any
    outside_u = np.prod(span) < np.prod(extent)
    if outside_u:
        u = draws_np(bases[graph_trials], STREAM_COUNTS,
                     np.ones(graph_trials.size, dtype=np.uint64))
        domain_counts = poisson_counts(u, rho * np.prod(extent))
    count = 0
    for i, t in enumerate(graph_trials):
        base = bases[t:t + 1]
        coords = _nodes(base, STREAM_REACH, counts[t], lo, span)
        if outside_u:
            domain = _nodes(base, STREAM_DOMAIN, domain_counts[i], np.zeros(dim), extent)
            outside = np.zeros(domain_counts[i], dtype=bool)
            for d in range(dim - 1):
                outside |= (domain[d] < lo[d]) | (domain[d] > lo[d] + span[d])
            coords = [np.concatenate((p, q[outside])) for p, q in zip(coords, domain)]
        count += _graph_event(base, coords, link_node[first[t]:first[t + 1]], event,
                              tab, inv_step, b_coeffs[0], power)
    return count
