"""Minimal enclosing balls (Chebyshev centers) in R^N with support certificates.

One loop solves every ball, of one set (``chebyshev_center``) or of a stack
of sets (``chebyshev_centers`` for sets of one size,
``ragged_chebyshev_centers`` for sets of any sizes): the simplex-like loop of
Fischer, Gärtner and Kutz ("Fast smallest-enclosing-ball computation in high
dimensions", ESA 2003), run on all sets of a stack at once.  For each set it
keeps a support T of affinely independent points on the sphere of a ball
that holds every point, starting from the ball around the first point that
reaches the farthest one.  Each step walks the center toward the
circumcenter of T, shrinking the ball: a point that reaches the sphere on
the way stops the walk and joins T.  When several points lie on the sphere
already, as on cospherical inputs, the one that the walk leaves behind
fastest joins: on 5000 unit vectors in dimension 16 an arbitrary choice
among them took thousands of steps or cycled, and this one takes about 30.
Once the center lies in the affine hull of T (up to ``AFFINE_TOL`` times
the radius; N+1 points span the whole space), its barycentric weights on T
decide: if all are >= 0 the ball is the smallest and the set leaves the
loop, otherwise the point of most negative weight leaves T.  More than
``MAX_STEPS`` steps raise ``InternalConsistencyError``.

The loop takes each set in one canonical form: its rows in lexicographic
order (that of ``np.unique``), relative to the first, with exact duplicates
of a row left out.  So a ball does not depend on the caller's order, points
far from the origin keep the precision of their spread, and a set gives the
same ball, bit for bit, alone or in any stack, and with extra copies of any
of its rows.  A stack goes through in
blocks of ``BATCH_CHUNK`` elements per temporary, so memory does not grow
with the number of sets.

Two gates check every ball in the caller's coordinates.  It must contain
every input point up to ``HULL_TOL * max(1, radius)``, with the radius read
off the final center against T.  And the loop's final weights, all >= 0
and summing to 1, must reproduce the center from T up to
``HULL_TOL * max(1, radius, largest |coordinate|)``, since the combination's
rounding grows with the coordinates, not with the radius.  Those weights
are the hull certificate for every input, cospherical ones included.  A set
that fails either gate raises ``InternalConsistencyError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError
from .tolerances import AFFINE_TOL, HULL_TOL, INSIDE_REL, SUPPORT_WEIGHT_MIN

__all__ = [
    "BallCertificate",
    "chebyshev_center",
    "chebyshev_centers",
    "ragged_chebyshev_centers",
    "hull_bound",
    "jung_ratio",
    "JungCheck",
    "jung_check",
]

MAX_DIM = 16

#: elements per temporary array of ``chebyshev_centers``
BATCH_CHUNK = 2**15

#: steps allowed before the loop gives up, which turns a cycle of
#: rounding-bound steps into an error.  The most seen is 83, for 3000 points
#: of {-1, 0, 1}^16; 5000 unit vectors in dimension 16 take about 30.
MAX_STEPS = 1000


@dataclass(frozen=True)
class BallCertificate:
    """Smallest ball enclosing the input points.

    ``support`` indexes at most N+1 input points lying on the boundary sphere
    whose convex hull contains the center.  ``hull_residual`` is the
    distance between the center (with the weights' sum, both scaled by
    ``max(1, radius)``) and the nonnegative combination of the support that
    certifies it, at most ``hull_bound(points, radius)``.  The weights are
    the center's barycentric coordinates on the ball loop's final support,
    which is affinely independent, so they are unique.
    """

    center: np.ndarray
    radius: float
    support: tuple[int, ...]
    hull_residual: float


def hull_bound(points, radius):
    """Largest hull residual accepted for a ball of ``radius`` around
    ``points`` (an (n, N) array, or (B, n, N) with B radii):
    ``HULL_TOL * max(1, radius, largest |coordinate|)``."""
    points = np.asarray(points)
    magnitude = np.abs(points).max(axis=(-2, -1))
    return HULL_TOL * np.maximum(np.maximum(1.0, radius), magnitude)


def _canonical(sets: np.ndarray):
    """Each of the (B, n, N) ``sets`` in lexicographic row order, as
    ``np.unique`` sorts it: the order (B, n), the sorted sets, and which rows
    repeat the row before them (B, n)."""
    order = np.lexsort(sets.transpose(2, 0, 1)[::-1], axis=-1)
    pts = np.take_along_axis(sets, order[..., None], axis=1)
    dup = np.zeros(order.shape, dtype=bool)
    dup[:, 1:] = (pts[:, 1:] == pts[:, :-1]).all(axis=2)
    return order, pts, dup


def _by_size(count: np.ndarray):
    """Each support size ``m`` in ``count`` with the sets that have it, so
    that each set's arithmetic is that of an exact-size solve alone."""
    for m in range(count.min(), count.max() + 1):
        sel = np.nonzero(count == m)[0]
        if sel.size:
            yield m, sel


def _circumcenters(sup: np.ndarray):
    """Centers (k, N) of the smallest spheres through the affinely
    independent rows of each of the (k, m, N) supports ``sup``, which lie in
    their affine hulls, and their barycentric weights on them (k, m)."""
    v = sup[:, 1:] - sup[:, :1]
    x = np.linalg.solve(2.0 * (v @ v.swapaxes(1, 2)), (v * v).sum(axis=2)[..., None])[..., 0]
    weights = np.concatenate([1.0 - x.sum(axis=1, keepdims=True), x], axis=1)
    return sup[:, 0] + (x[:, None] @ v)[:, 0], weights


def _ball_loop(pts: np.ndarray, dup: np.ndarray):
    """Smallest balls of the (B, n, N) sets ``pts``, each in canonical order
    and relative to its first row, by the loop of Fischer, Gärtner and Kutz,
    leaving out the rows that ``dup`` marks.  Returns each ball's center
    (B, N), its support T as rows of its set in the first ``count`` (B,) of
    N+1 slots (B, N+1), and the center's barycentric weights on T, all >= 0,
    in the same slots.

    A ball starts at the first row with the farthest row as T and only
    shrinks.  Each step walks the center toward T's circumcenter until a row
    reaches the sphere, which joins T (the steepest of those already on it),
    or until the center arrives.  A center in aff(T) whose weights are all
    >= 0 is the answer, and its set leaves the loop; otherwise the row with
    the most negative weight leaves T.
    """
    nb, _, dim = pts.shape
    out_center = np.empty((nb, dim))
    out_slots = np.empty((nb, dim + 1), dtype=np.intp)
    out_count = np.empty(nb, dtype=np.intp)
    out_weights = np.empty((nb, dim + 1))
    # the state of the sets still in the loop, which ``ids`` names
    ids = rows = np.arange(nb)
    center = pts[:, 0]
    slots = np.zeros((nb, dim + 1), dtype=np.intp)
    slots[:, 0] = np.argmax(((pts - center[:, None]) ** 2).sum(axis=2), axis=1)
    count = np.ones(nb, dtype=np.intp)
    # the rows that no walk stops at: the duplicates and T's, which stay on
    # the sphere; a slot past ``count`` is stale and marks nothing
    held = dup.copy()
    held[rows, slots[:, 0]] = True
    for _ in range(MAX_STEPS):
        aff = np.empty_like(center)
        # unused slots weigh 0, which can neither make a set's least weight
        # negative nor be its most negative one
        weights = np.zeros((ids.size, dim + 1))
        for m, sel in _by_size(count):
            aff[sel], weights[sel, :m] = _circumcenters(pts[sel[:, None], slots[sel, :m]])
        walk = aff - center
        length = np.sqrt((walk[:, None] @ walk[..., None])[:, 0, 0])
        r2 = ((pts[rows, slots[:, 0]] - center) ** 2).sum(axis=1)
        slack = AFFINE_TOL * np.sqrt(r2)
        # N+1 points span the whole space
        arrived = (count == dim + 1) | (length <= slack)
        done = arrived & (weights.min(axis=1) >= 0.0)

        to_pts = pts - center[:, None]
        # how fast each row nears the sphere along the walk; a row that
        # nears it too slowly stays inside
        approach = length[:, None] * length[:, None] - (to_pts @ walk[..., None])[..., 0]
        approach[held] = 0.0
        block = approach > (slack * length)[:, None]
        gap = r2[:, None] - (to_pts**2).sum(axis=2)
        # the share of the walk before each blocking row reaches the sphere
        frac = np.divide(gap, 2.0 * approach, out=np.full(gap.shape, np.inf), where=block)
        # rows on the sphere up to rounding stop the walk at once, and of
        # them the one that the walk leaves behind fastest joins T; their
        # keys are negative, and every other blocking row's share positive
        on = block & (gap <= INSIDE_REL * r2[:, None])
        stop = np.argmin(np.where(on, -approach, frac), axis=1)
        step = frac[rows, stop]
        join = ~arrived & (step < 1.0)
        moved = center[join] + np.maximum(step[join], 0.0)[:, None] * walk[join]
        center = np.where(arrived[:, None], center, aff)
        center[join] = moved
        slots[join, count[join]] = stop[join]
        held[rows[join], stop[join]] = True
        count[join] += 1
        # the row of most negative weight leaves T, and the slots after it
        # move up by one
        leave = np.nonzero(arrived & ~done)[0]
        if leave.size:
            gone = np.argmin(weights[leave], axis=1)
            held[leave, slots[leave, gone]] = False
            position = np.arange(dim + 1)
            shift = np.minimum(position + (position >= gone[:, None]), dim)
            slots[leave] = slots[leave[:, None], shift]
            count[leave] -= 1
        if done.any():
            at = ids[done]
            out_center[at], out_slots[at], out_count[at], out_weights[at] = (
                aff[done], slots[done], count[done], weights[done]
            )
            keep = ~done
            ids, pts, held, center, slots, count = (
                a[keep] for a in (ids, pts, held, center, slots, count)
            )
            if not ids.size:
                return out_center, out_slots, out_count, out_weights
            rows = np.arange(ids.size)
    raise InternalConsistencyError(
        f"smallest-ball loop did not settle within {MAX_STEPS} steps"
    )


def _balls(sets: np.ndarray):
    """Smallest balls of the (B, n, N) ``sets``, each checked by both gates:
    centers (B, N), radii (B,), supports as input rows in the first
    ``count`` (B,) of N+1 slots (B, N+1), the weights in the same slots, and
    hull residuals (B,)."""
    if sets.shape[2] == 1:
        return _intervals(sets)
    order, pts, dup = _canonical(sets)
    # the loop runs relative to one input row, so that its arithmetic keeps
    # the precision of the spread and not of the offset; the radius is read
    # in the caller's coordinates, where the gates measure the ball
    aff, slots, count, weights = _ball_loop(pts - pts[:, :1], dup)
    center = aff + pts[:, 0]
    rows = np.arange(len(sets))[:, None]
    used = np.arange(slots.shape[1]) < count[:, None]
    d_sup = np.sqrt(((pts[rows, slots] - center[:, None]) ** 2).sum(axis=2))
    radius = np.where(used, d_sup, 0.0).max(axis=1)
    scale = np.maximum(1.0, radius)

    dmax = np.sqrt(((pts - center[:, None]) ** 2).sum(axis=2)).max(axis=1)
    outside = (dmax - radius)[dmax > radius + HULL_TOL * scale]
    if outside.size:
        raise InternalConsistencyError(f"computed ball misses a point by {float(outside[0])!r}")

    resid = np.empty(len(sets))
    for m, sel in _by_size(count):
        w = weights[sel, :m]
        combo = (w[:, None] @ pts[sel[:, None], slots[sel, :m]])[:, 0]
        off = scale[sel] * (w.sum(axis=1) - 1.0)
        miss = np.concatenate([combo - center[sel], off[:, None]], axis=1)
        resid[sel] = np.sqrt((miss**2).sum(axis=1))
    bad = resid[resid > hull_bound(pts, radius)]
    if bad.size:
        raise InternalConsistencyError(
            f"could not certify the center inside its support hull (residual {float(bad[0])!r})"
        )
    return center, radius, order[rows, slots], count, weights, resid


def _point_array(points) -> np.ndarray:
    """``points`` as a nonempty finite (n, N) float array, 1 <= N <= 16; a
    1-d array is n points on a line."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or 0 in pts.shape:
        raise ValueError("need a nonempty (n, N) point array")
    _check_values(pts)
    return pts


def _check_values(pts: np.ndarray):
    """Reject non-finite coordinates and dimensions above ``MAX_DIM``."""
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if pts.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {pts.shape[-1]} exceeds the supported maximum {MAX_DIM}")


def chebyshev_center(points) -> BallCertificate:
    """Center and radius of the smallest ball enclosing ``points`` in R^N.

    Accepts an (n, N) array (or a list of vectors), N <= 16.  Exact duplicate
    rows are removed before processing; the support certificate indexes the
    original input rows.
    """
    pts = _point_array(points)
    center, radius, support, count, weights, resid = (a[0] for a in _balls(pts[None]))
    kept = support[:count][weights[:count] > SUPPORT_WEIGHT_MIN]
    return BallCertificate(
        center=center,
        radius=float(radius),
        support=tuple(sorted(int(i) for i in kept)),
        hull_residual=float(resid),
    )


def _intervals(sets: np.ndarray):
    """``_balls`` of (B, n, 1) ``sets``: the midpoints and half lengths of
    their ranges, supported by the first of the least and of the greatest
    rows with weight 1/2 each, or by one row if they are equal."""
    order, pts, dup = _canonical(sets)
    # the first of the greatest rows is the first of the last run
    last = sets.shape[1] - 1 - np.argmax(~dup[:, ::-1], axis=1)
    rows = np.arange(len(sets))
    lo, hi = pts[:, 0, 0], pts[rows, last, 0]
    count = np.where(last > 0, 2, 1)
    support = np.stack([order[:, 0], order[rows, last]], axis=1)
    weights = np.repeat(1.0 / count[:, None], 2, axis=1)
    center, radius = ((lo + hi) / 2.0)[:, None], (hi - lo) / 2.0
    return center, radius, support, count, weights, np.zeros(len(sets))


def chebyshev_centers(sets) -> tuple[np.ndarray, np.ndarray]:
    """Centers (B, N) and radii (B,) of the smallest balls enclosing each of
    B sets of n points in R^N, given as a (B, n, N) array: bit for bit the
    balls of ``chebyshev_center`` on each set."""
    sets = np.asarray(sets, dtype=float)
    if sets.ndim != 3 or 0 in sets.shape:
        raise ValueError("need a nonempty (B, n, N) array of point sets")
    nb, n, dim = sets.shape
    return ragged_chebyshev_centers(sets.reshape(nb * n, dim), np.full(nb, n))


def ragged_chebyshev_centers(points, sizes) -> tuple[np.ndarray, np.ndarray]:
    """``chebyshev_centers`` of B sets of different sizes, stacked set after
    set in the (sizes.sum(), N) array ``points``, with ``sizes[b] >= 1``
    rows in set b.

    Each set joins one stack padded to the largest size with copies of its
    first row.  The loop leaves exact duplicates out, so each ball is bit for
    bit that of ``chebyshev_center`` on the set alone.  The stack is gathered
    ``BATCH_CHUNK`` elements at a time."""
    points = np.asarray(points, dtype=float)
    sizes = np.asarray(sizes, dtype=np.intp)
    if points.ndim != 2 or 0 in points.shape or sizes.ndim != 1 or not sizes.size:
        raise ValueError("need a nonempty (n, N) point array and a nonempty list of set sizes")
    if sizes.min() < 1 or sizes.sum() != len(points):
        raise ValueError("set sizes must be >= 1 and add up to the number of points")
    _check_values(points)
    width, dim = int(sizes.max()), points.shape[1]
    slot = np.arange(width)
    starts = np.cumsum(sizes) - sizes
    centers = np.empty((sizes.size, dim))
    radii = np.empty(sizes.size)
    step = max(1, BATCH_CHUNK // (width * dim))
    for lo in range(0, sizes.size, step):
        part = slice(lo, lo + step)
        rows = starts[part, None] + np.where(slot < sizes[part, None], slot, 0)
        centers[part], radii[part] = _balls(points[rows])[:2]
    return centers, radii


def jung_ratio(dim: int) -> float:
    """sqrt(N / (2N + 2)): the sharp radius/diameter ratio in R^N."""
    return math.sqrt(dim / (2.0 * dim + 2.0))


@dataclass(frozen=True)
class JungCheck:
    diameter: float
    radius: float
    lower: float
    upper: float
    ok: bool
    ball: BallCertificate
    diameter_pair: tuple[int, int]


def jung_check(points) -> JungCheck:
    """Check diam/2 <= radius <= sqrt(N/(2N+2)) * diam on a point set, up to
    ``HULL_TOL * max(1, radius)``, the slack of the ball's containment check.

    A violation (ok=False) would indicate a bug in the ball computation, so
    callers should treat it as a hard failure; the witness data is returned
    either way.
    """
    pts = _point_array(points)
    n, dim = pts.shape
    # one row of the distance matrix at a time keeps memory at O(n * N);
    # the strict comparison keeps the first maximum in row-major order
    diameter, pair = -1.0, (0, 0)
    for i in range(n):
        diff = pts[i] - pts
        row = np.sqrt((diff * diff).sum(axis=1))
        j = int(np.argmax(row))
        if row[j] > diameter:
            diameter, pair = float(row[j]), (i, j)
    cert = chebyshev_center(pts)
    lower = diameter / 2.0
    upper = jung_ratio(dim) * diameter
    slack = HULL_TOL * max(1.0, cert.radius)
    ok = (lower - slack <= cert.radius) and (cert.radius <= upper + slack)
    return JungCheck(
        diameter=diameter,
        radius=cert.radius,
        lower=lower,
        upper=upper,
        ok=ok,
        ball=cert,
        diameter_pair=pair,
    )
