"""Maximum flow on the bipartite transport network of two discrete measures.

The network always has one shape (Garel & Massé, *AStA* 93, 2009): the source
feeds P-atom ``i`` with capacity ``p_mass[i]``, Q-atom ``j`` drains into the
sink with capacity ``q_mass[j]``, and an allowed pair ``(i, j)`` is an edge of
unlimited capacity.  The residual graph is thus fully described by the source
residuals ``rp``, the sink residuals ``rq`` and the pair flows (a pair edge
always has room forward, and its flow back).  The solver keeps only the pairs
that some augmenting path used, in flat lists, each found from its Q-atom
(``slot[j][i]``): every read of a flow is from the Q side, a back edge or a
bottleneck along one.  Its state thus grows with the pairs that carry flow,
never with |P| x |Q|, and so does what it returns: those pairs and their
flows, not a |P| x |Q| matrix.

The solver is Dinic's algorithm (Dinic, *Soviet Math. Dokl.* 11, 1970).  A
phase first labels the atoms by their distance from the source, in layers P,
Q, P, ...: a Q layer is the unlabelled Q-atoms that the last P layer is
allowed to reach, a P layer the unlabelled P-atoms that send flow to the last
Q layer.  The search stops at the first Q layer that holds an atom with sink
residual.  The search that misses the sink is the last, and the P-atoms it
labels are the source side of a minimum cut.

The phase then walks the layers back from the sink and keeps the *live*
atoms, those with a level path to the sink: a Q-atom of the sink's layer with
sink residual, a P-atom allowed to reach a live Q-atom one level down, a
Q-atom that carries flow from a live P-atom one level down.  The blocking
flow is an iterative depth-first walk over the live atoms, each atom's edges
in ascending order; an atom's neighbour list is built when the walk first
reaches it, so only the allowed pairs of the atoms it reaches are ever
listed.  Pruning leaves every push as a walk over all labelled atoms makes
it.  A push only shrinks residuals along a level path and adds flow on pairs
that lead back up a level, so an atom that is dead when the phase starts
stays dead for the whole phase.  A walk that entered one would only find
that out and back off, pushing nothing, and then take the next edge, which
is where the pruned walk goes at once.

In the first phase no pair carries flow, so the sink sits at level 3 and a
path is a source, one Q-atom and the sink.  The walk is then the greedy it
amounts to: each live source in ascending order ships ``min(rp, rq)`` to its
open Q-atoms in ascending order, until it or they run out.

The walk is iterative, so long augmenting paths need no recursion in spaces
of a few thousand atoms.  It is hand-written because
``scipy.sparse.csgraph.maximum_flow`` takes 32-bit integer capacities, which
cannot hold a float mass's 53 bits exactly.
"""

from __future__ import annotations

import numpy as np

from .tolerances import RESIDUAL_EPS


def _levels(open_p, open_q, allowed, fi, fj):
    """The level search from the sources ``open_p``, over the allowed pairs
    and the pairs ``(fi, fj)`` that carry flow back.

    Returns ``(level_p, p_layers, q_layers)``: the P-atoms' levels (-1 where
    not reached), and the atoms of each P and Q layer, P-layer ``m`` at level
    2m + 1 and Q-layer ``m`` at level 2m + 2.  The last Q layer holds an atom
    of ``open_q`` exactly when the search reached the sink."""
    p, q = len(open_p), len(open_q)
    level_p, level_q = np.full(p, -1), np.full(q, -1)
    layer = np.flatnonzero(open_p)
    level_p[layer] = 1
    p_layers, q_layers = [], []
    while layer.size:
        depth = 2 * len(p_layers) + 1
        p_layers.append(layer)
        reach = allowed[layer].any(axis=0) & (level_q < 0)
        q_layer = np.flatnonzero(reach)
        level_q[q_layer] = depth + 1
        q_layers.append(q_layer)
        if open_q[q_layer].any():
            break
        new = np.zeros(p, dtype=bool)
        new[fi[reach[fj]]] = True
        new &= level_p < 0
        layer = np.flatnonzero(new)
        level_p[layer] = depth + 2
    return level_p, p_layers, q_layers


def _live(allowed, fi, fj, open_q, p_layers, q_layers):
    """The atoms with a level path to the sink, walking the layers back from
    it: ``(live_p, q_live)``, ``q_live[m]`` the live atoms of Q-layer ``m``,
    ascending."""
    live_p = np.zeros(len(allowed), dtype=bool)
    cols = q_layers[-1][open_q[q_layers[-1]]]
    q_live = [cols]
    for m in range(len(p_layers) - 1, -1, -1):
        rows = p_layers[m]
        live_p[rows[allowed[rows[:, None], cols].any(axis=1)]] = True
        if m:
            back = np.zeros(len(open_q), dtype=bool)
            back[fj[live_p[fi]]] = True
            cols = q_layers[m - 1][back[q_layers[m - 1]]]
            q_live.append(cols)
    return live_p, q_live[::-1]


def _greedy(rp, rq, allowed, flows, sources, open_q, total):
    """The blocking flow of the first phase, whose sink sits at level 3 and
    no pair carries flow yet; returns ``total`` plus each push in turn.

    A source's allowed pairs, and the open Q-atoms, are Python ints with bit
    ``j`` set for Q-atom ``j``, so a source finds its open Q-atoms, ascending,
    by bit operations instead of a numpy call each."""
    slot, pair_i, pair_j, flow = flows
    width = (len(rq) + 7) // 8
    rows = np.packbits(allowed, axis=1, bitorder="little").tobytes()
    open_bits = int.from_bytes(np.packbits(open_q, bitorder="little").tobytes(), "little")
    for i in sources:
        bits = int.from_bytes(rows[i * width:(i + 1) * width], "little") & open_bits
        while bits:
            low = bits & -bits
            j = low.bit_length() - 1
            f = min(rp[i], rq[j])
            rp[i] -= f
            slot[j][i] = len(flow)
            flow.append(f)
            pair_i.append(i)
            pair_j.append(j)
            rq[j] -= f
            total += f
            if rq[j] <= RESIDUAL_EPS:
                open_bits ^= low
            if rp[i] <= RESIDUAL_EPS:
                break
            bits ^= low
    return total


def _blocking(rp, rq, allowed, flows, lev_p, alive_q, q_live, total):
    """The blocking flow over the live atoms; returns ``total`` plus each
    push in turn.

    ``lev_p`` holds each live P-atom's level and -1 elsewhere, ``alive_q``
    whether a Q-atom is live.  ``path`` alternates P- and Q-atoms,
    ``path[k]`` at level k + 1.  A cursor stays on an edge that pushed; a
    dead end is pruned.  A P-atom's pair edges lead forward and never
    saturate.  A Q-atom of the sink's layer has only its sink edge; a Q-atom
    below it, only its back edges that carry flow to a live P-atom one level
    up (a push only adds flow on pairs that lead one level down).  After a
    push the walk keeps the path up to its first saturated edge, since the
    cursors would lead a walk from the source back along it.
    """
    slot, pair_i, pair_j, flow = flows
    p, q = len(rp), len(rq)
    last = 2 * len(q_live)  # path length at the sink's layer
    q_of, back_of = [None] * p, [None] * q
    it_p, it_q = [0] * p, [0] * q
    next_src, path = 0, []
    while True:
        if not path:
            while next_src < p and (lev_p[next_src] != 1 or rp[next_src] <= RESIDUAL_EPS):
                next_src += 1
            if next_src == p:
                return total
            path.append(next_src)
        k = len(path)
        u = path[-1]
        if k % 2:
            nbrs = q_of[u]
            if nbrs is None:
                cols = q_live[k >> 1]
                nbrs = q_of[u] = cols[allowed[u, cols]].tolist()
            t = it_p[u]
            while t < len(nbrs) and not alive_q[nbrs[t]]:
                t += 1
            it_p[u] = t
            if t < len(nbrs):
                path.append(nbrs[t])
            else:
                lev_p[u] = -1
                path.pop()
        elif k == last:
            if rq[u] <= RESIDUAL_EPS:
                alive_q[u] = False
                path.pop()
                continue
            f = min(rp[path[0]], rq[u])  # the bottleneck
            for m in range(2, k, 2):
                f = min(f, flow[slot[path[m - 1]][path[m]]])
            rp[path[0]] -= f
            for m in range(0, k, 2):
                i, j = path[m], path[m + 1]
                s = slot[j].get(i)
                if s is None:
                    slot[j][i] = len(flow)
                    flow.append(f)
                    pair_i.append(i)
                    pair_j.append(j)
                else:
                    flow[s] += f
            for m in range(2, k, 2):
                flow[slot[path[m - 1]][path[m]]] -= f
            rq[u] -= f
            total += f
            if rp[path[0]] <= RESIDUAL_EPS:
                path = []
                continue
            for m in range(2, k, 2):
                if flow[slot[path[m - 1]][path[m]]] <= RESIDUAL_EPS:
                    del path[m:]
                    break
        else:
            nbrs = back_of[u]
            if nbrs is None:
                nbrs = back_of[u] = sorted(i for i, s in slot[u].items()
                                           if flow[s] > RESIDUAL_EPS and lev_p[i] == k + 1)
            slots = slot[u]
            t = it_q[u]
            while t < len(nbrs) and (lev_p[nbrs[t]] < 0 or flow[slots[nbrs[t]]] <= RESIDUAL_EPS):
                t += 1
            it_q[u] = t
            if t < len(nbrs):
                path.append(nbrs[t])
            else:
                alive_q[u] = False
                path.pop()


def transport_flow(p_mass, q_mass, allowed):
    """Maximum mass shippable from P-atoms to Q-atoms along allowed pairs.

    ``allowed[i, j]`` is True where the pair (i, j) may carry flow.  Returns
    ``((i, j, f), value, reach_p)``: the pairs that carry flow, as arrays of
    P-atoms ``i``, Q-atoms ``j`` and positive flows ``f`` with no pair twice
    (``flow[i, j] = f`` on a zero (|P|, |Q|) matrix gives the flow matrix),
    the total flow, and the mask of P-atoms on the source side of a minimum
    cut (reachable in the final residual graph).  It holds per-atom vectors,
    the pairs that some augmenting path used, and in each phase the allowed
    pairs of the live P-atoms its walk reaches.
    """
    rp = np.asarray(p_mass, dtype=float).tolist()
    rq = np.asarray(q_mass, dtype=float).tolist()
    q = len(rq)
    allowed = np.asarray(allowed, dtype=bool)
    # the pairs that carry flow: pair ``s`` is (pair_i[s], pair_j[s]) with
    # flow flow[s], and slot[j][i] == s
    slot: list[dict[int, int]] = [{} for _ in range(q)]
    pair_i: list[int] = []
    pair_j: list[int] = []
    flow: list[float] = []
    flows = slot, pair_i, pair_j, flow
    total = 0.0
    while True:
        carrying = np.array(flow) > RESIDUAL_EPS
        fi = np.array(pair_i, dtype=np.intp)[carrying]
        fj = np.array(pair_j, dtype=np.intp)[carrying]
        open_q = np.array(rq) > RESIDUAL_EPS
        level_p, p_layers, q_layers = _levels(np.array(rp) > RESIDUAL_EPS, open_q,
                                              allowed, fi, fj)
        if not q_layers or not open_q[q_layers[-1]].any():
            break
        live_p, q_live = _live(allowed, fi, fj, open_q, p_layers, q_layers)
        if len(q_live) == 1:
            total = _greedy(rp, rq, allowed, flows, np.flatnonzero(live_p).tolist(),
                            open_q, total)
            continue
        lev_p = np.where(live_p, level_p, -1).tolist()
        alive_q = np.zeros(q, dtype=bool)
        for cols in q_live:
            alive_q[cols] = True
        total = _blocking(rp, rq, allowed, flows, lev_p, alive_q.tolist(), q_live, total)

    f = np.array(flow, dtype=float)
    carrying = f > 0.0
    pairs = (np.array(pair_i, dtype=np.intp)[carrying],
             np.array(pair_j, dtype=np.intp)[carrying], f[carrying])
    return pairs, total, level_p >= 0
