"""Maximum flow on the bipartite transport network of two discrete measures.

The network always has one shape (Garel & Massé, *AStA* 93, 2009): the source
feeds P-atom ``i`` with capacity ``p_mass[i]``, Q-atom ``j`` drains into the
sink with capacity ``q_mass[j]``, and an allowed pair ``(i, j)`` is an edge of
unlimited capacity.  The residual graph is thus fully described by the source
residuals ``rp``, the sink residuals ``rq`` and the pair flows (a pair edge
always has room forward, and its flow back).  The flows are kept by Q-atom:
``into[j]`` maps each P-atom ``i`` that some augmenting path sent to ``j``
to the flow on ``(i, j)``.  Every read of a flow is from the Q side (a back
edge, or a bottleneck along one), so the level search and the walk look only
at the pairs that carry flow, and the solver's state grows with the allowed
pairs and the paths, never with |P| x |Q|.  The one dense array it makes is
the flow matrix it returns.

The solver is Dinic's algorithm with an iterative depth-first walk, so long
augmenting paths need no recursion in spaces of a few thousand atoms.  It is
hand-written because ``scipy.sparse.csgraph.maximum_flow`` takes 32-bit
integer capacities, which cannot hold a float mass's 53 bits exactly.
"""

from __future__ import annotations

import numpy as np

from .tolerances import RESIDUAL_EPS


def _neighbours(adj):
    """Row r's True columns, ascending, for every row of a boolean matrix."""
    cols = np.nonzero(adj)[1].tolist()
    ends = np.cumsum(np.count_nonzero(adj, axis=1)).tolist()
    return [cols[a:b] for a, b in zip([0, *ends], ends)]


def transport_flow(p_mass, q_mass, allowed):
    """Maximum mass shippable from P-atoms to Q-atoms along allowed pairs.

    ``allowed[i, j]`` is True where the pair (i, j) may carry flow.  Returns
    ``(flow, value, reach_p)``: the (|P|, |Q|) flow matrix, the total flow,
    and the mask of P-atoms on the source side of a minimum cut (reachable
    in the final residual graph).  Besides that matrix, it holds the allowed
    pairs as adjacency lists of the P-atoms, per-atom lists, and the pairs
    that carry flow.
    """
    rp = np.asarray(p_mass, dtype=float).tolist()
    rq = np.asarray(q_mass, dtype=float).tolist()
    p, q = len(rp), len(rq)
    allowed = np.asarray(allowed, dtype=bool)
    q_of = _neighbours(allowed)
    into: list[dict[int, float]] = [{} for _ in range(q)]
    total = 0.0
    while True:
        # Level search in layers P, Q, P, ...; atoms at or past the sink's
        # level are dead ends, so it stops at the sink.  The search that misses
        # the sink is the last: the P-atoms it reaches are a minimum cut.
        level_p = [1 if r > RESIDUAL_EPS else -1 for r in rp]
        level_q = [-1] * q
        layer = [i for i in range(p) if level_p[i] == 1]
        depth, sink = 1, -1
        while layer:
            q_layer = {j for i in layer for j in q_of[i] if level_q[j] < 0}
            for j in q_layer:
                level_q[j] = depth + 1
            if any(rq[j] > RESIDUAL_EPS for j in q_layer):
                sink = depth + 2
                break
            layer = {i for j in q_layer for i, f in into[j].items()
                     if f > RESIDUAL_EPS and level_p[i] < 0}
            for i in layer:
                level_p[i] = depth + 2
            depth += 2
        if sink < 0:
            break

        # Blocking flow.  ``path`` alternates P- and Q-atoms, ``path[k]`` at
        # level k + 1.  A cursor stays on an edge that pushed; a dead end is
        # pruned to level -1.  A Q-atom's cursor -1 is its sink edge.  A
        # Q-atom's back edges that can be on a level path in this phase are
        # those carrying flow to a P-atom one level up now, ascending: a push
        # only adds flow on pairs that lead one level down.
        back_of = [
            sorted(i for i, f in into[j].items()
                   if f > RESIDUAL_EPS and level_p[i] == level_q[j] + 1)
            for j in range(q)
        ]
        next_src, it_p, it_q, path = 0, [0] * p, [-1] * q, []
        while True:
            k = len(path)
            if k == 0:
                while next_src < p and (level_p[next_src] != 1
                                        or rp[next_src] <= RESIDUAL_EPS):
                    next_src += 1
                if next_src == p:
                    break
                path.append(next_src)
                continue
            u = path[-1]
            if k % 2 == 0 and it_q[u] < 0 and k + 1 == sink and rq[u] > RESIDUAL_EPS:
                back = [into[j][i] for j, i in zip(path[1::2], path[2::2])]
                f = min([rp[path[0]], *back, rq[u]])  # the bottleneck
                rp[path[0]] -= f
                for i, j in zip(path[::2], path[1::2]):
                    into[j][i] = into[j].get(i, 0.0) + f
                for j, i in zip(path[1::2], path[2::2]):
                    into[j][i] -= f
                rq[u] -= f
                total += f
                path = []
                continue
            # a P-atom's pair edges lead forward and never saturate; a
            # Q-atom's lead back to P-atoms and carry their flow
            fwd = k % 2
            it, nbrs, nxt = (it_p, q_of[u], level_q) if fwd else (it_q, back_of[u], level_p)
            t = max(it[u], 0)
            while t < len(nbrs) and not (
                nxt[nbrs[t]] == k + 1 and (fwd or into[u][nbrs[t]] > RESIDUAL_EPS)
            ):
                t += 1
            it[u] = t
            if t < len(nbrs):
                path.append(nbrs[t])
            else:
                (level_p if fwd else level_q)[u] = -1
                path.pop()

    dense = np.zeros((p, q))
    for j, col in enumerate(into):
        if col:
            dense[list(col), j] = list(col.values())
    return dense, total, np.array(level_p) >= 0
