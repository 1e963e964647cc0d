"""Minimal enclosing balls (Chebyshev centers) in R^N with support certificates.

``chebyshev_center`` runs the simplex-like loop of Fischer, Gärtner and Kutz
("Fast smallest-enclosing-ball computation in high dimensions", ESA 2003).
It keeps a support T of affinely independent points on the sphere of a ball
that holds every point, starting from the ball around the first point that
reaches the farthest one.  Each step walks the center toward the
circumcenter of T, shrinking the ball: a point that reaches the sphere on
the way stops the walk and joins T.  When several points lie on the sphere
already, as on cospherical inputs, the one that the walk leaves behind
fastest joins: on 5000 unit vectors in dimension 16 an arbitrary choice
among them took thousands of steps or cycled, and this one takes about 30.
Once the center lies in the affine hull of T (up to ``AFFINE_TOL`` times
the radius; N+1 points span the whole space), its barycentric weights on T
decide: if all are >= 0 the ball is the smallest, otherwise the point of
most negative weight leaves T.  More than ``MAX_STEPS`` steps raise
``InternalConsistencyError``.  The loop works on coordinates relative to
one input point, so that points far from the origin keep the precision of
their spread, and the unique points are taken in lexicographic order, so
the result does not depend on the caller's order.

Two gates check every ball in the caller's coordinates.  It must contain
every input point up to ``HULL_TOL * max(1, radius)``, with the radius read
off the final center against T.  And the loop's final weights, all >= 0
and summing to 1, must reproduce the center from T up to
``HULL_TOL * max(1, radius, largest |coordinate|)``, since the combination's
rounding grows with the coordinates, not with the radius.  Those weights
are the hull certificate for every input, cospherical ones included.

``chebyshev_centers`` solves many small sets of one dimension at once, for
the per-window balls of ``paths.aa_net``.  It pivots every set as Gärtner
does ("Fast and robust smallest enclosing balls", ESA 1999): a working set
of at most N+2 points is solved exactly, and the farthest point outside its
ball is swapped in with the ball's support, at most ``MAX_PIVOTS`` times.
A working set is solved by enumeration: the circumballs of all its subsets
of at most N+1 points come from one batched ``np.linalg.solve`` per subset
size, and the smallest that contains the working set is its ball.  Sets go
through in chunks of ``BATCH_CHUNK`` elements per temporary, so memory does
not grow with their number.  Every batched ball must pass the two gates of
``chebyshev_center``: containment of every point up to
``HULL_TOL * max(1, radius)``, and a residual of at most
``HULL_TOL * max(1, radius, largest |coordinate|)`` for the support's
barycentric weights, clipped at 0 and taken only on the points within
``SUPPORT_BAND`` of the sphere.  A set that fails either gate, or whose
candidate supports are all affinely dependent, is solved again by
``chebyshev_center``.  Above ``BATCH_MAX_DIM`` every set is.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError
from .tolerances import (
    AFFINE_TOL,
    HULL_TOL,
    INSIDE_ABS,
    INSIDE_REL,
    SUPPORT_BAND,
    SUPPORT_WEIGHT_MIN,
)

__all__ = [
    "BallCertificate",
    "chebyshev_center",
    "chebyshev_centers",
    "hull_bound",
    "jung_ratio",
    "JungCheck",
    "jung_check",
]

MAX_DIM = 16

#: largest dimension that ``chebyshev_centers`` solves by enumeration.  A
#: working set of N+2 points has 2^(N+2) - 2 candidate supports (30 at
#: N = 3, 254 at N = 6, 510 at N = 7), and the containment test of all of
#: them on all N+2 points fills a chunk of ``BATCH_CHUNK`` elements with two
#: sets at N = 6 but only one at N = 7, where batching no longer pays; sets
#: of higher dimension are solved one by one by ``chebyshev_center``.
BATCH_MAX_DIM = 6

#: elements per temporary array of ``chebyshev_centers``
BATCH_CHUNK = 2**15

#: pivots allowed before ``chebyshev_centers`` hands a set to
#: ``chebyshev_center``
MAX_PIVOTS = 200

#: steps allowed before ``chebyshev_center`` gives up, which turns a cycle of
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


def _inside(d2, r2):
    """Whether squared distances ``d2`` (a scalar or an array) to a ball's
    center lie within its squared radius ``r2``, up to rounding."""
    return d2 <= r2 * (1.0 + INSIDE_REL) + INSIDE_ABS


def hull_bound(points, radius):
    """Largest hull residual accepted for a ball of ``radius`` around
    ``points`` (an (n, N) array, or (B, n, N) with B radii):
    ``HULL_TOL * max(1, radius, largest |coordinate|)``."""
    points = np.asarray(points)
    magnitude = np.abs(points).max(axis=(-2, -1))
    return HULL_TOL * np.maximum(np.maximum(1.0, radius), magnitude)


def _circumcenter(sup: np.ndarray):
    """Center of the smallest sphere through the affinely independent rows
    of ``sup``, which lies in their affine hull, and its barycentric
    weights on them."""
    v = sup[1:] - sup[0]
    x = np.linalg.solve(2.0 * (v @ v.T), (v * v).sum(axis=1))
    return sup[0] + x @ v, np.concatenate([[1.0 - x.sum()], x])


def _ball_loop(pts: np.ndarray):
    """Smallest ball of the unique rows ``pts`` by the loop of Fischer,
    Gärtner and Kutz: its center, its support T (row indices) and the
    center's barycentric weights on T, all >= 0.

    The ball starts at the first row with the farthest row as T and only
    shrinks.  Each step walks the center toward T's circumcenter until a row
    reaches the sphere, which joins T (the steepest of those already on it),
    or until the center arrives.  A center in aff(T) whose weights are all
    >= 0 is the answer; otherwise the row with the most negative weight
    leaves T.
    """
    center = pts[0]
    support = [int(np.argmax(((pts - center) ** 2).sum(axis=1)))]
    for _ in range(MAX_STEPS):
        aff, weights = _circumcenter(pts[support])
        walk = aff - center
        length = math.sqrt(walk @ walk)
        r2 = float(((pts[support[0]] - center) ** 2).sum())
        slack = AFFINE_TOL * math.sqrt(r2)
        # N+1 points span the whole space
        if len(support) == pts.shape[1] + 1 or length <= slack:
            if weights.min() >= 0.0:
                return aff, support, weights
            del support[int(np.argmin(weights))]
            continue
        to_pts = pts - center
        # how fast each row nears the sphere along the walk; a row of T
        # stays on it, and a row that nears it too slowly stays inside
        approach = length * length - to_pts @ walk
        approach[support] = 0.0
        block = np.nonzero(approach > slack * length)[0]
        gap = r2 - (to_pts[block] ** 2).sum(axis=1)
        # the share of the walk before each blocking row reaches the sphere,
        # and a last entry for walking all of it
        frac = np.append(gap / (2.0 * approach[block]), 1.0)
        # rows on the sphere up to rounding stop the walk at once; of them
        # the one that the walk leaves behind fastest joins T
        on = np.nonzero(gap <= INSIDE_REL * r2)[0]
        stop = on[np.argmax(approach[block[on]])] if on.size else np.argmin(frac)
        if frac[stop] < 1.0:
            center = center + max(frac[stop], 0.0) * walk
            support.append(int(block[stop]))
        else:
            center = aff
    raise InternalConsistencyError(
        f"smallest-ball loop did not settle within {MAX_STEPS} steps"
    )


def chebyshev_center(points) -> BallCertificate:
    """Center and radius of the smallest ball enclosing ``points`` in R^N.

    Accepts an (n, N) array (or a list of vectors), N <= 16.  Exact duplicate
    rows are removed before processing; the support certificate indexes the
    original input rows.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a nonempty (n, N) point array")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    n, dim = pts.shape
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the supported maximum {MAX_DIM}")

    uniq, first_idx = np.unique(pts, axis=0, return_index=True)

    if dim == 1:
        lo, hi = float(uniq[0, 0]), float(uniq[-1, 0])
        center = np.array([(lo + hi) / 2.0])
        radius = (hi - lo) / 2.0
        support = (int(first_idx[0]),) if uniq.shape[0] == 1 else (
            int(first_idx[0]),
            int(first_idx[-1]),
        )
        return BallCertificate(center=center, radius=radius, support=tuple(sorted(support)), hull_residual=0.0)

    # the loop runs relative to one input row, so that its arithmetic keeps
    # the precision of the spread and not of the offset; the radius is read
    # in the caller's coordinates, where the gates measure the ball
    aff, sup, weights = _ball_loop(uniq - uniq[0])
    center = aff + uniq[0]
    radius = float(np.sqrt(((uniq[sup] - center) ** 2).sum(axis=1)).max())

    dmax = float(np.sqrt(((pts - center) ** 2).sum(axis=1)).max())
    if dmax > radius + HULL_TOL * max(1.0, radius):
        raise InternalConsistencyError(
            f"computed ball misses a point by {dmax - radius!r}"
        )

    scale = max(1.0, radius)
    miss = np.append(weights @ uniq[sup] - center, scale * (weights.sum() - 1.0))
    resid = float(np.sqrt((miss**2).sum()))
    if resid > hull_bound(uniq, radius):
        raise InternalConsistencyError(
            f"could not certify the center inside its support hull (residual {resid!r})"
        )
    kept = np.asarray(sup)[weights > SUPPORT_WEIGHT_MIN]
    support = tuple(sorted(int(first_idx[i]) for i in kept))
    return BallCertificate(center=center, radius=radius, support=support, hull_residual=resid)


@functools.lru_cache(maxsize=None)
def _candidate_supports(m: int, dim: int, entering: bool):
    """The subsets of 1 to N+1 of ``m`` working points, only those holding
    the last one if it is ``entering``: one (S_k, k) index array per size k,
    and all S of them as rows of ``dim + 1`` slots, with ``used`` marking the
    slots a subset fills."""
    groups = [
        np.array([
            c for c in itertools.combinations(range(m), k) if not entering or c[-1] == m - 1
        ])
        for k in range(1, min(m, dim + 1) + 1)
    ]
    slots = np.zeros((sum(len(g) for g in groups), dim + 1), dtype=np.intp)
    used = np.zeros(slots.shape, dtype=bool)
    row = 0
    for g in groups:
        slots[row : row + len(g), : g.shape[1]] = g
        used[row : row + len(g), : g.shape[1]] = True
        row += len(g)
    # cached and shared by every caller
    for a in (*groups, slots, used):
        a.setflags(write=False)
    return groups, slots, used


def _candidate_balls(work: np.ndarray, valid: np.ndarray, groups):
    """Circumball of every candidate support (``groups``, from
    ``_candidate_supports``) of every working set.

    ``work`` holds B working sets of m points, (B, m, N); a support that
    uses a slot where ``valid`` is False, or whose points are affinely
    dependent (a singular system), is invalid.  Returns the centers
    (B, S, N), squared radii (B, S), the centers' barycentric weights on the
    support's slots (B, S, N+1, 0 on unused slots) and validity (B, S).
    """
    nb, _, dim = work.shape
    centers, r2s, weights, good = [], [], [], []
    for idx in groups:
        k = idx.shape[1]
        pts = work[:, idx]
        p0 = pts[:, :, 0]
        ok = valid[:, idx].all(axis=2)
        w = np.zeros((nb, len(idx), dim + 1))
        if k == 1:
            center = p0
            w[..., 0] = 1.0
        else:
            v = pts[:, :, 1:] - p0[:, :, None]
            gram = 2.0 * (v @ v.swapaxes(-1, -2))
            rhs = (v * v).sum(axis=-1)
            singular = np.linalg.slogdet(gram)[0] == 0.0
            gram[singular] = np.eye(k - 1)
            x = np.linalg.solve(gram, rhs[..., None])[..., 0]
            center = p0 + (x[..., None, :] @ v)[..., 0, :]
            ok &= ~singular
            w[..., 0] = 1.0 - x.sum(axis=-1)
            w[..., 1:k] = x
        centers.append(center)
        r2s.append(((center - p0) ** 2).sum(axis=-1))
        weights.append(w)
        good.append(ok)
    return (
        np.concatenate(centers, axis=1),
        np.concatenate(r2s, axis=1),
        np.concatenate(weights, axis=1),
        np.concatenate(good, axis=1),
    )


def _solve_chunk(sets: np.ndarray):
    """Smallest balls of the (B, n, N) ``sets`` by batched pivoting: centers,
    radii, and whether each ball passed both gates."""
    nb, n, dim = sets.shape
    m = min(n, dim + 2)
    center = np.zeros((nb, dim))
    r2 = np.full(nb, np.nan)
    far_d2 = np.full(nb, np.nan)
    sup_pts = np.zeros((nb, dim + 1, dim))
    sup_w = np.zeros((nb, dim + 1))
    # each active set's working points, as indices into the set
    active = np.arange(nb)
    work = np.tile(np.arange(m), (nb, 1))
    valid = np.ones((nb, m), dtype=bool)
    for pivot in range(MAX_PIVOTS):
        if active.size == 0:
            break
        # after a pivot the entering point, last in the working set, lies on
        # the next ball's sphere, so only the supports holding it are tried
        groups, slots, used = _candidate_supports(m, dim, pivot > 0)
        pts = sets[active]
        rows = np.arange(active.size)
        w_pts = pts[rows[:, None], work]
        c, cr2, cw, good = _candidate_balls(w_pts, valid, groups)
        d2 = ((w_pts[:, None] - c[:, :, None]) ** 2).sum(axis=-1)
        good &= _inside(d2, cr2[..., None]).all(axis=-1)
        best = np.argmin(np.where(good, cr2, np.inf), axis=1)
        found = good[rows, best]
        bc, br2 = c[rows, best], cr2[rows, best]
        d2_all = ((pts - bc[:, None]) ** 2).sum(axis=-1)
        far = np.argmax(d2_all, axis=1)
        fd2 = d2_all[rows, far]
        inside = _inside(fd2, br2)
        d = np.nonzero(found & inside)[0]
        at = active[d]
        center[at], r2[at], far_d2[at] = bc[d], br2[d], fd2[d]
        sup_pts[at] = w_pts[d[:, None], slots[best[d]]]
        sup_w[at] = cw[d, best[d]]
        # the farthest point joins the support; slots left over repeat it
        # and are marked invalid
        g = np.nonzero(found & ~inside)[0]
        keep = used[best[g]]
        support = np.where(keep, work[g[:, None], slots[best[g]]], far[g, None])
        work = np.concatenate([support, far[g, None]], axis=1)
        valid = np.concatenate([keep, np.ones((g.size, 1), dtype=bool)], axis=1)
        active = active[g]

    # the gates of chebyshev_center; a set that found no ball, or ran out of
    # pivots, has a NaN radius and fails them
    radius = np.sqrt(np.maximum(r2, 0.0))
    scale = np.maximum(1.0, radius)
    slack = HULL_TOL * scale
    d_sup = np.sqrt(((sup_pts - center[:, None]) ** 2).sum(axis=-1))
    on_sphere = d_sup >= (radius - SUPPORT_BAND * scale)[:, None]
    w = np.where(on_sphere, np.maximum(sup_w, 0.0), 0.0)
    miss = (w[..., None] * sup_pts).sum(axis=1) - center
    resid = np.sqrt((miss**2).sum(axis=-1) + (scale * (w.sum(axis=1) - 1.0)) ** 2)
    ok = np.isfinite(r2) & (np.sqrt(far_d2) <= radius + slack) & (resid <= hull_bound(sets, radius))
    return center, radius, ok


def chebyshev_centers(sets) -> tuple[np.ndarray, np.ndarray]:
    """Centers (B, N) and radii (B,) of the smallest balls enclosing each of
    B sets of n points in R^N, given as a (B, n, N) array.

    The balls are those of ``chebyshev_center`` up to rounding; every one
    passed the same containment and hull gates, or was computed by
    ``chebyshev_center`` itself.
    """
    sets = np.asarray(sets, dtype=float)
    if sets.ndim != 3 or 0 in sets.shape:
        raise ValueError("need a nonempty (B, n, N) array of point sets")
    if not np.isfinite(sets).all():
        raise ValueError("points must be finite")
    nb, n, dim = sets.shape
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the supported maximum {MAX_DIM}")
    centers = np.empty((nb, dim))
    radii = np.empty(nb)
    failed = np.arange(nb)
    if dim <= BATCH_MAX_DIM:
        m = min(n, dim + 2)
        per_set = max(len(_candidate_supports(m, dim, False)[1]) * m, n) * dim
        step = max(1, BATCH_CHUNK // per_set)
        ok = np.empty(nb, dtype=bool)
        with np.errstate(all="ignore"):
            for lo in range(0, nb, step):
                part = slice(lo, lo + step)
                centers[part], radii[part], ok[part] = _solve_chunk(sets[part])
        failed = np.nonzero(~ok)[0]
    for i in failed:
        cert = chebyshev_center(sets[i])
        centers[i], radii[i] = cert.center, cert.radius
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
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
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
