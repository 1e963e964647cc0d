"""Minimal enclosing balls (Chebyshev centers) in R^N with support certificates.

Exact combinatorial computation by pivoting (Gärtner, "Fast and robust
smallest enclosing balls", ESA 1999): Welzl's randomized-incremental
recursion solves a working set of at most N+2 points exactly, and the
farthest point outside that ball is swapped into the working set together
with the ball's support (at most N+1 points on its sphere), until no point
lies outside.  The recursion is therefore at most N+2 deep whatever the
input size.  Each pivot strictly grows the radius, so the loop ends; a cap of
``MAX_PIVOTS`` pivots turns a rounding-induced cycle into an
``InternalConsistencyError``.  The processing order is a fixed-seed shuffle
of the lexicographically sorted unique points, so results do not depend on
the order the caller supplies.  Every ball is then checked to contain every
input point up to ``HULL_TOL * max(1, radius)``, and its center is certified
inside the convex hull of its support: a nonnegative combination of sphere
points, with weights summing to 1, reproduces the center up to
``HULL_TOL * max(1, radius, largest |coordinate|)``, since the combination's
rounding grows with the coordinates, not with the radius.  In the generic
case the candidates are at most N+1 affinely independent points, the weights
are unique, and one numpy least-squares solve finds them (the center's
barycentric coordinates, as in Gärtner's paper).  Cospherical candidate sets
(more than N+1 points, or affinely dependent ones) have no unique weights,
and nonnegative least squares picks a combination; only they load
``scipy.optimize``.

``chebyshev_centers`` solves many small sets of one dimension at once, for
the per-window balls of ``paths.aa_net``.  It pivots every set in the same
way, but solves a working set of at most N+2 points by enumeration instead
of recursion: the circumballs of all its subsets of at most N+1 points come
from one batched ``np.linalg.solve`` per subset size, and the smallest that
contains the working set is its ball.  Sets go through in chunks of
``BATCH_CHUNK`` elements per temporary, so memory does not grow with their
number.  Every batched ball must pass the two gates of ``chebyshev_center``:
containment of every point up to ``HULL_TOL * max(1, radius)``, and a
residual of at most ``HULL_TOL * max(1, radius, largest |coordinate|)`` for
the support's barycentric weights, clipped at 0 and taken only on the points
within ``SUPPORT_BAND`` of the sphere.  A
set that fails either gate, or whose candidate supports are all affinely
dependent, is solved again by ``chebyshev_center``.  Above
``BATCH_MAX_DIM`` every set is.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError
from .tolerances import (
    HULL_TOL,
    INSIDE_ABS,
    INSIDE_REL,
    SUPPORT_BAND,
    SUPPORT_BAND_GROWTH,
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

_SHUFFLE_SEED = 0x5EB

#: pivots allowed before the ball solver gives up
MAX_PIVOTS = 200


@dataclass(frozen=True)
class BallCertificate:
    """Smallest ball enclosing the input points.

    ``support`` indexes at most N+1 input points lying on the boundary sphere
    whose convex hull contains the center.  ``hull_residual`` is the
    distance between the center (with the weights' sum, both scaled by
    ``max(1, radius)``) and the nonnegative combination of the support that
    certifies it, at most ``hull_bound(points, radius)``.  The combination is
    solved by numpy for at most N+1 affinely independent candidates and by
    nonnegative least squares for cospherical ones.
    """

    center: np.ndarray
    radius: float
    support: tuple[int, ...]
    hull_residual: float


def _circumball(boundary: list[np.ndarray]):
    """Smallest ball with all boundary points on its sphere (center in their
    affine hull); None encodes the empty ball."""
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
    r2 = float(((center - b0) ** 2).sum())
    return center, r2


def _inside(d2, r2):
    """Whether squared distances ``d2`` (a scalar or an array) to a ball's
    center lie within its squared radius ``r2``, up to rounding."""
    return d2 <= r2 * (1.0 + INSIDE_REL) + INSIDE_ABS


def _welzl(pts: np.ndarray, i: int, boundary: list[np.ndarray], dim: int):
    """Smallest ball of pts[i:] with ``boundary`` on its sphere, and the
    boundary points that define it (at most N+1)."""
    if i == len(pts) or len(boundary) == dim + 1:
        return _circumball(boundary), boundary
    ball, basis = _welzl(pts, i + 1, boundary, dim)
    p = pts[i]
    if ball is not None and _inside(float(((p - ball[0]) ** 2).sum()), ball[1]):
        return ball, basis
    return _welzl(pts, i + 1, boundary + [p], dim)


def _pivot_ball(work: np.ndarray, dim: int):
    """Smallest ball of ``work`` by pivoting: after each exact solve of the
    working set, the farthest outside point joins the ball's support as a
    boundary point of the next solve, since it lies on the next ball's sphere."""
    basis, boundary = work[: dim + 2], []
    for _ in range(MAX_PIVOTS):
        ball, support = _welzl(basis, 0, boundary, dim)
        center, r2 = ball
        d2 = ((work - center) ** 2).sum(axis=1)
        far = int(np.argmax(d2))
        if _inside(d2[far], r2):
            return ball
        basis, boundary = np.stack(support), [work[far]]
    raise InternalConsistencyError(
        f"smallest-ball pivoting did not settle within {MAX_PIVOTS} pivots"
    )


def hull_bound(points, radius):
    """Largest hull residual accepted for a ball of ``radius`` around
    ``points`` (an (n, N) array, or (B, n, N) with B radii):
    ``HULL_TOL * max(1, radius, largest |coordinate|)``."""
    points = np.asarray(points)
    magnitude = np.abs(points).max(axis=(-2, -1))
    return HULL_TOL * np.maximum(np.maximum(1.0, radius), magnitude)


def _hull_system(sub: np.ndarray, scale: float) -> np.ndarray:
    """Columns are the candidate points over a row of ``scale``: weights ``w``
    with ``a @ w == [center, scale]`` reproduce the center and sum to 1."""
    return np.vstack([sub.T, np.ones(len(sub)) * scale])


def _support(cand: np.ndarray, weights: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in cand[weights > SUPPORT_WEIGHT_MIN])


def _support_certificate(points: np.ndarray, center: np.ndarray, radius: float):
    """Pick <= N+1 boundary points whose convex hull provably holds the center.

    At most N+1 affinely independent candidates have unique weights, so one
    least-squares solve finds them; negative weights are clipped to 0 and the
    clipped combination must still meet the residual bound.  Any other
    candidate set goes to nonnegative least squares.
    """
    dists = np.sqrt(((points - center) ** 2).sum(axis=1))
    scale = max(1.0, radius)
    bound = float(hull_bound(points, radius))
    b = np.concatenate([center, [scale]])
    cand = np.nonzero(dists >= radius - SUPPORT_BAND * scale)[0]
    if cand.size <= points.shape[1] + 1:
        a = _hull_system(points[cand], scale)
        weights, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        weights = np.maximum(weights, 0.0)
        resid = float(np.sqrt(((a @ weights - b) ** 2).sum()))
        if rank == cand.size and resid <= bound:
            return _support(cand, weights), resid
    return _nnls_certificate(points, dists, radius, b, scale, bound)


def _nnls_certificate(points, dists, radius, b, scale, bound):
    """The certificate by nonnegative least squares, widening the candidate
    band until the residual meets the bound."""
    # imported here: scipy.optimize dominates the package's import time, and
    # only cospherical candidate sets, or ones a support point's rounding
    # left outside the first band, reach this point
    from scipy.optimize import nnls

    tol = SUPPORT_BAND * scale
    for _ in range(3):
        cand = np.nonzero(dists >= radius - tol)[0]
        weights, resid = nnls(_hull_system(points[cand], scale), b)
        if resid <= bound:
            return _support(cand, weights), float(resid)
        tol *= SUPPORT_BAND_GROWTH
    raise InternalConsistencyError(
        f"could not certify the center inside its support hull (residual {resid!r})"
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

    order = np.random.default_rng(_SHUFFLE_SEED).permutation(uniq.shape[0])
    center, r2 = _pivot_ball(uniq[order], dim)
    radius = math.sqrt(max(r2, 0.0))

    dmax = float(np.sqrt(((pts - center) ** 2).sum(axis=1)).max())
    if dmax > radius + HULL_TOL * max(1.0, radius):
        raise InternalConsistencyError(
            f"computed ball misses a point by {dmax - radius!r}"
        )

    sup_uniq, resid = _support_certificate(uniq, center, radius)
    support = tuple(sorted(int(first_idx[i]) for i in sup_uniq))
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
