"""Reference implementations used to freeze expected values.

Most are deliberately brute-force and share no code with the package's
solvers: subset enumeration instead of flows, dense time grids
instead of knot analysis, exhaustive boundary-subset search instead of the
minimal-ball recursion, nonnegative least squares alone instead of the ball
certificate's numpy solve.  The others keep an earlier, simpler form of a
package routine as the reference for a faster one: ``close_pairs_two_sided``
(the closed-neighbourhood test as a product and a quotient),
``prokhorov_sweep_bisect`` (the index bisection over the quotients
``d / lam``, on the package's own flows and recheck),
``dumps_recursive`` (the report writer that formats one node at a time),
``modulus_per_knot`` (the knot pairs listed one knot at a time),
``window_balls_per_window`` (one ``chebyshev_center`` call per window),
``transport_flow_unpruned`` (Dinic's walk over every labelled atom, with
every allowed pair listed up front), and the path kernels one path at a
time: ``path_at``, ``modulus_per_path``, ``uniform_distance_per_pair``
and ``window_values_per_path``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np

from qcompact.ball import chebyshev_center
from qcompact.maxflow import transport_flow
from qcompact.tolerances import RESIDUAL_EPS
from qcompact.prokhorov import ProkhorovResult, check_alpha_block


def tv_subsets(p_mass, q_mass) -> float:
    """max over all index subsets of |P(A) - Q(A)|."""
    p = np.asarray(p_mass, dtype=float)
    q = np.asarray(q_mass, dtype=float)
    n = p.size
    best = 0.0
    for bits in range(1 << n):
        idx = [i for i in range(n) if bits >> i & 1]
        best = max(best, abs(p[idx].sum() - q[idx].sum()))
    return best


def close_pairs_two_sided(d, lam: float, alpha: float) -> np.ndarray:
    """Which distances ``d`` are within ``lam * alpha``, by two tests:
    ``d <= fl(lam * alpha)`` or ``fl(d / lam) <= alpha``."""
    d = np.asarray(d, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        return (d <= lam * alpha) | (d / lam <= alpha)


def feasible_by_subsets(p_mass, q_mass, dist, lam: float, alpha: float) -> bool:
    """Direct transcription of the defining condition: every subset A must
    satisfy P(A) <= Q(closed inflation of A by lam*alpha) + alpha."""
    p = np.asarray(p_mass, dtype=float)
    q = np.asarray(q_mass, dtype=float)
    d = np.asarray(dist, dtype=float)
    n = p.size
    reach = d <= lam * alpha
    for bits in range(1, 1 << n):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        inflated = reach[mask].any(axis=0)
        if p[mask].sum() > q[inflated].sum() + alpha + 1e-13:
            return False
    return True


def dense_modulus(knots, values, delta: float, n_grid: int = 4001) -> float:
    """Oscillation on a dense uniform time grid: over every pair of grid
    times at most ``delta`` apart, and every grid time paired with the times
    ``delta`` after and before it (a lower bound on the true sup; tight for
    PL paths up to the grid's resolution of the knots).  The grid pairs
    alone fall short of the sup by up to a slope times a grid step, since
    ``delta`` is rarely a whole number of steps."""
    t = np.linspace(0.0, 1.0, n_grid)
    v = _interp(knots, values, t)
    window = int(np.floor(delta * (n_grid - 1) + 1e-9))
    best = 0.0
    for off in range(1, window + 1):
        diff = v[off:] - v[:-off]
        best = max(best, float(np.sqrt((diff * diff).sum(axis=1)).max()))
    for shifted in (t + delta, t - delta):
        inside = (shifted >= 0.0) & (shifted <= 1.0)
        if inside.any():
            diff = _interp(knots, values, shifted[inside]) - v[inside]
            best = max(best, float(np.sqrt((diff * diff).sum(axis=1)).max()))
    return best


def dense_uniform_distance(k1, v1, k2, v2, n_grid: int = 10001) -> float:
    t = np.linspace(0.0, 1.0, n_grid)
    diff = _interp(k1, v1, t) - _interp(k2, v2, t)
    return float(np.sqrt((diff * diff).sum(axis=1)).max())


def _interp(knots, values, t):
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    seg = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, knots.size - 2)
    frac = (t - knots[seg]) / (knots[seg + 1] - knots[seg])
    return (1.0 - frac)[:, None] * values[seg] + frac[:, None] * values[seg + 1]


def path_at(x, times) -> np.ndarray:
    """``PLPath.at`` on one path: evaluate at the given times (array-like in
    [0, 1]); exact at knots."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    seg = np.clip(np.searchsorted(x.knots, t, side="right") - 1, 0, x.knots.size - 2)
    t0 = x.knots[seg]
    t1 = x.knots[seg + 1]
    frac = (t - t0) / (t1 - t0)
    return (1.0 - frac)[:, None] * x.values[seg] + frac[:, None] * x.values[seg + 1]


def uniform_distance_per_pair(x, y) -> float:
    """``paths.uniform_distance`` on one pair: sup over t of |x(t) - y(t)|,
    exact via the merged knot set."""
    t = np.union1d(x.knots, y.knots)
    diff = path_at(x, t) - path_at(y, t)
    return float(np.sqrt((diff * diff).sum(axis=1)).max())


def modulus_per_path(x, delta: float) -> float:
    """``paths.modulus`` on one path, its knot pairs ``a < b < hi[a]``
    listed by one vectorised pass, every candidate evaluated at once."""
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError("delta must be > 0")
    t = x.knots
    # the knot pairs a < b < hi[a], grouped by a
    counts = np.searchsorted(t, t + delta, side="right") - np.arange(t.size) - 1
    a = np.repeat(np.arange(t.size), counts)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(counts) - counts, counts)
    s_list = [t[a]]
    t_list = [t[b]]
    mask = t + delta <= 1.0
    s_list.append(t[mask])
    t_list.append(t[mask] + delta)
    mask = t - delta >= 0.0
    s_list.append(t[mask] - delta)
    t_list.append(t[mask])
    s_all = np.concatenate(s_list)
    t_all = np.concatenate(t_list)
    if s_all.size == 0:
        return 0.0
    diff = path_at(x, t_all) - path_at(x, s_all)
    return float(np.sqrt((diff * diff).sum(axis=1)).max(initial=0.0))


def window_values_per_path(x, lo: np.ndarray, hi: np.ndarray):
    """``paths._window_values`` on one path: its points in each window
    [lo, hi] (its value at lo, at each knot strictly inside and at hi, in
    time order) stacked window after window, with the count per window."""
    first = np.searchsorted(x.knots, lo, side="right")
    sizes = np.searchsorted(x.knots, hi, side="left") - first + 2
    ends = np.cumsum(sizes)
    starts = ends - sizes
    pos = np.arange(ends[-1]) - np.repeat(starts, sizes)
    times = x.knots[np.minimum(np.repeat(first - 1, sizes) + pos, x.knots.size - 1)]
    times[starts] = lo
    times[ends - 1] = hi
    return path_at(x, times), sizes


def modulus_per_knot(x, delta: float) -> float:
    """``paths.modulus`` with its knot pairs ``a < b < hi[a]`` listed by a
    Python loop over ``a``; the same candidate times in the same order."""
    delta = float(delta)
    t = x.knots
    hi = np.searchsorted(t, t + delta, side="right")
    s_list = []
    t_list = []
    for a in range(t.size):
        b_hi = hi[a]
        if b_hi > a + 1:
            s_list.append(np.full(b_hi - a - 1, t[a]))
            t_list.append(t[a + 1 : b_hi])
    mask = t + delta <= 1.0
    s_list.append(t[mask])
    t_list.append(t[mask] + delta)
    mask = t - delta >= 0.0
    s_list.append(t[mask] - delta)
    t_list.append(t[mask])
    s_all = np.concatenate(s_list)
    t_all = np.concatenate(t_list)
    if s_all.size == 0:
        return 0.0
    diff = path_at(x, t_all) - path_at(x, s_all)
    return float(np.sqrt((diff * diff).sum(axis=1)).max(initial=0.0))


def window_points(x, lo: float, hi: float) -> np.ndarray:
    """A path's points in the window [lo, hi]: its values at lo, at every
    knot in [lo, hi] and at hi."""
    i0 = int(np.searchsorted(x.knots, lo, side="left"))
    i1 = int(np.searchsorted(x.knots, hi, side="right"))
    times = np.concatenate([[lo], x.knots[i0:i1], [hi]])
    return path_at(x, times)


def window_balls_per_window(family, windows):
    """``paths._family_window_balls`` by one ``chebyshev_center`` call per
    window of each member: centers (member, window, coordinate) and radii
    (member, window)."""
    certs = [[chebyshev_center(window_points(x, lo, hi)) for lo, hi in windows] for x in family]
    centers = np.array([[c.center for c in row] for row in certs])
    radii = np.array([[c.radius for c in row] for row in certs])
    return centers, radii


def support_certificate_nnls(points, center, radius):
    """Support certificate by nonnegative least squares alone.

    The points within 1e-7 * max(1, radius) of the sphere are candidates;
    nnls finds nonnegative weights summing to 1 whose combination of them is
    the center, and the band widens by 100x, at most twice, until the
    residual is at most 1e-9 * max(1, radius, largest |coordinate|).
    Returns the support (the
    candidates with weight > 1e-12), the residual and the candidates.
    """
    from scipy.optimize import nnls

    points = np.asarray(points, dtype=float)
    dists = np.sqrt(((points - center) ** 2).sum(axis=1))
    scale = max(1.0, radius)
    tol = 1e-7 * scale
    for _ in range(3):
        cand = np.nonzero(dists >= radius - tol)[0]
        a = np.vstack([points[cand].T, np.ones(cand.size) * scale])
        b = np.concatenate([center, [scale]])
        weights, resid = nnls(a, b)
        if resid <= 1e-9 * max(scale, np.abs(points).max()):
            return tuple(int(i) for i in cand[weights > 1e-12]), float(resid), cand
        tol *= 100.0
    raise AssertionError(f"nnls could not certify the center (residual {resid!r})")


def meb_by_subsets(points) -> tuple[np.ndarray, float]:
    """Minimal enclosing ball by exhaustive search over boundary subsets.

    The optimum has at most N+1 points on its boundary; for each candidate
    subset the smallest sphere through it has its center in the subset's
    affine hull, recovered as the minimum-norm solution of the equidistance
    system.  Among candidate balls containing every point, take the smallest.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, dim = pts.shape
    best_r = np.inf
    best_c = pts[0]
    for size in range(1, min(n, dim + 1) + 1):
        for combo in itertools.combinations(range(n), size):
            base = pts[combo[0]]
            rows = pts[list(combo[1:])] - base
            if rows.size:
                rhs = 0.5 * (rows * rows).sum(axis=1)
                x, *_ = np.linalg.lstsq(2 * rows @ rows.T, 2 * rhs, rcond=None)
                offset = rows.T @ x
            else:
                offset = np.zeros(dim)
            center = base + offset
            radius = float(np.sqrt(((pts[list(combo)] - center) ** 2).sum(axis=1).max()))
            if radius >= best_r:
                continue
            # slack scales with the radius: an absolute one would let a
            # zero-radius ball "contain" a point 1e-7 away
            slack = radius * radius * 1e-11 + radius * 1e-13
            if (((pts - center) ** 2).sum(axis=1) <= radius * radius + slack).all():
                best_r = radius
                best_c = center
    return best_c, best_r


def meb_grid_1e6(points, span: float = 1.5, steps: int = 601) -> float:
    """Coarse-to-fine grid search for the minimal enclosing radius in R^2,
    good to about 1e-6 for unit-scale inputs."""
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0) - 0.1
    hi = pts.max(axis=0) + 0.1
    center = (lo + hi) / 2
    width = float((hi - lo).max())
    for _ in range(8):
        xs = np.linspace(center[0] - width / 2, center[0] + width / 2, 41)
        ys = np.linspace(center[1] - width / 2, center[1] + width / 2, 41)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        d = np.sqrt(((grid[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)).max(axis=1)
        center = grid[int(np.argmin(d))]
        width /= 10.0
    return float(np.sqrt(((pts - center) ** 2).sum(axis=1)).max())


def meb_welzl_recursive(points) -> tuple[np.ndarray, float]:
    """Minimal enclosing ball by Welzl's recursion over the whole input.

    The package's solver before it pivoted: same fixed-seed shuffle of the
    sorted unique points, same membership slack, but one recursion over all
    of them, so its depth is the point count and its cost grows roughly like
    (N+1)! * n.  Keep inputs to a few hundred points in low dimension and a
    few dozen at dimension 16.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    uniq = np.unique(pts, axis=0)
    work = uniq[np.random.default_rng(0x5EB).permutation(uniq.shape[0])]
    dim = pts.shape[1]

    def circumball(boundary):
        if not boundary:
            return None
        b0 = boundary[0]
        if len(boundary) == 1:
            return b0, 0.0
        v = np.stack(boundary[1:]) - b0
        gram = 2.0 * (v @ v.T)
        rhs = (v * v).sum(axis=1)
        try:
            x = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            x, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        center = b0 + x @ v
        return center, float(((center - b0) ** 2).sum())

    def inside(ball, p):
        if ball is None:
            return False
        c, r2 = ball
        return float(((p - c) ** 2).sum()) <= r2 * (1.0 + 3e-13) + 1e-30

    def welzl(i, boundary):
        if i == len(work) or len(boundary) == dim + 1:
            return circumball(boundary)
        ball = welzl(i + 1, boundary)
        if inside(ball, work[i]):
            return ball
        return welzl(i + 1, boundary + [work[i]])

    center, r2 = welzl(0, [])
    return center, float(np.sqrt(max(r2, 0.0)))


def triangle_holds_per_k(dist, tol: float) -> bool:
    """The triangle scan as one loop over the middle point: for each k, the
    full n x n matrix of sums d[i,k] + d[k,j] is built and every pair is tested
    against it, ``d[i,j] > fl(d[i,k] + d[k,j]) + tol`` rejecting."""
    d = np.asarray(dist, dtype=float)
    for k in range(d.shape[0]):
        bound = d[:, k:k + 1] + d[k:k + 1, :]
        if (d > bound + tol).any():
            return False
    return True


def path_metric_per_row(paths) -> np.ndarray:
    """Uniform-norm distance matrix of PL paths, one row at a time: every
    pair on the union of all knots, a full (n - i, T, N) difference per row,
    ``sqrt`` before the max over times, then ``dist + dist.T``.  Paths are
    evaluated with ``path_at``, as in the package, so bits can be compared."""
    times = paths[0].knots
    for x in paths[1:]:
        times = np.union1d(times, x.knots)
    vals = np.stack([path_at(x, times) for x in paths])
    n = len(paths)
    dist = np.zeros((n, n))
    for i in range(n):
        diff = vals[i + 1 :] - vals[i]
        if diff.size:
            dist[i, i + 1 :] = np.sqrt((diff * diff).sum(axis=2)).max(axis=1)
    return dist + dist.T


def euclidean_all_pairs(coords) -> np.ndarray:
    """Euclidean distance matrix from one (n, n, N) difference array, with
    the diagonal zeroed and ``min(d, d.T)`` symmetry."""
    c = np.asarray(coords, dtype=float)
    diff = c[:, None, :] - c[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    return np.minimum(d, d.T)


def prokhorov_sweep_bisect(p_mass, q_mass, dist, lambda_grid) -> list[ProkhorovResult]:
    """``prokhorov_sweep`` with a plain index bisection for ``k*``.

    Same breakpoints, same deficiency memo keyed on the allowed-pair count,
    same ``g(k*-1) < b_{k*}`` rule and recheck; only the search differs, so
    the two agree bit for bit whenever the computed deficiencies are monotone
    in k, and ``flows_solved`` compares the work of the two searches.
    """
    lambda_grid = [float(lam) for lam in lambda_grid]
    sp = np.flatnonzero(p_mass > 0.0)
    sq = np.flatnonzero(q_mass > 0.0)
    block = dist[np.ix_(sp, sq)]
    p_vec, q_vec = p_mass[sp], q_mass[sq]
    deficiency: dict[int, float] = {}
    results = []
    for lam in lambda_grid:
        d_over_lam = block / lam
        bps = np.unique(np.concatenate([[0.0], d_over_lam.ravel()]))
        known = len(deficiency)

        def g(k: int) -> float:
            allowed = d_over_lam <= bps[k]
            key = int(np.count_nonzero(allowed))
            if key not in deficiency:
                _, value, _ = transport_flow(p_vec, q_vec, allowed)
                deficiency[key] = max(0.0, 1.0 - value)
            return deficiency[key]

        lo, hi = 0, len(bps) - 1
        if g(lo) <= bps[lo]:
            hi = lo
        while lo < hi:
            mid = (lo + hi) // 2
            if g(mid) <= bps[mid]:
                hi = mid
            else:
                lo = mid + 1
        alpha_star = bps[hi]
        if hi > 0 and g(hi - 1) < bps[hi]:
            alpha_star = g(hi - 1)
        alpha_star = float(alpha_star)
        flows_solved = len(deficiency) - known
        cert = check_alpha_block(p_mass, q_mass, dist, lam, alpha_star)
        if not cert.feasible:
            raise AssertionError("bisection answer fails its recheck")
        results.append(ProkhorovResult(lam, alpha_star, cert, len(bps), flows_solved))
    return results


def dumps_recursive(obj) -> str:
    """The report writer one node at a time: arrays become nested lists that
    are reduced item by item, and every float is formatted on its own."""

    def jsonable(x):
        if x is None or isinstance(x, (bool, str)):
            return x
        if isinstance(x, (int, np.integer)):
            return int(x)
        if isinstance(x, (float, np.floating)):
            return float(x)
        if isinstance(x, np.ndarray):
            return jsonable(x.tolist())
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            return {
                f.name: jsonable(getattr(x, f.name))
                for f in dataclasses.fields(x)
                if f.metadata.get("report", True)
            }
        if hasattr(x, "to_dict"):
            return jsonable(x.to_dict())
        if isinstance(x, dict):
            out = {}
            for k, v in x.items():
                if not isinstance(k, str):
                    raise TypeError(f"JSON object keys must be strings, got {k!r}")
                out[k] = jsonable(v)
            return out
        if isinstance(x, (list, tuple, set, frozenset)):
            items = sorted(x) if isinstance(x, (set, frozenset)) else x
            return [jsonable(v) for v in items]
        raise TypeError(f"cannot serialize object of type {type(x).__name__}")

    def write(x, out, indent):
        pad = "  " * indent
        if x is None:
            out.append("null")
        elif x is True:
            out.append("true")
        elif x is False:
            out.append("false")
        elif isinstance(x, str):
            out.append(json.dumps(x, ensure_ascii=True))
        elif isinstance(x, int):
            out.append(str(x))
        elif isinstance(x, float):
            if not math.isfinite(x):
                raise ValueError(f"cannot serialize non-finite float {x!r}")
            out.append(format(x, ".17g"))
        elif isinstance(x, dict):
            if not x:
                out.append("{}")
                return
            out.append("{\n")
            keys = sorted(x)
            for i, k in enumerate(keys):
                out.append(pad + "  " + json.dumps(k, ensure_ascii=True) + ": ")
                write(x[k], out, indent + 1)
                out.append(",\n" if i + 1 < len(keys) else "\n")
            out.append(pad + "}")
        elif isinstance(x, list):
            if not x:
                out.append("[]")
                return
            out.append("[\n")
            for i, v in enumerate(x):
                out.append(pad + "  ")
                write(v, out, indent + 1)
                out.append(",\n" if i + 1 < len(x) else "\n")
            out.append(pad + "]")
        else:
            raise TypeError(f"cannot serialize object of type {type(x).__name__}")

    out: list = []
    write(jsonable(obj), out, 0)
    out.append("\n")
    return "".join(out)


def _neighbours(adj):
    """Row r's True columns, ascending, for every row of a boolean matrix."""
    cols = np.nonzero(adj)[1].tolist()
    ends = np.cumsum(np.count_nonzero(adj, axis=1)).tolist()
    return [cols[a:b] for a, b in zip([0, *ends], ends)]


def transport_flow_unpruned(p_mass, q_mass, allowed):
    """``maxflow.transport_flow`` as a Dinic walk over every labelled atom:
    the allowed pairs listed for every P-atom up front, a dead end found by
    entering it, and every augmenting path walked again from its source.
    The same augmenting paths in the same order, so the same flow matrix,
    value and cut, bit for bit."""
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
