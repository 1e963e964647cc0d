"""Finite metric spaces, index subsets, open balls, and closed inflation."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .arrays import distinct
from .tolerances import COORD_MATCH_RTOL, TRIANGLE_SLACK

__all__ = ["FiniteMetricSpace", "IndexSet", "inflate", "open_ball"]

#: rows per block of the triangle scan, whose two working arrays hold
#: TRIANGLE_BLOCK x n floats each (1 MiB together at n = 1000); 32 and 128
#: rows were no faster at n = 400 or 1000
TRIANGLE_BLOCK = 64

#: rows per block of the Euclidean distance matrix, whose working array holds
#: EUCLID_BLOCK x n x N floats (12 MiB at n = 1500, N = 16)
EUCLID_BLOCK = 64


def _euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    """The distance matrix of ``coords``, exactly symmetric with a zero
    diagonal, built in place: the matrix itself plus block-sized scratch.

    Rows are computed in blocks of ``EUCLID_BLOCK``; then each block above
    the diagonal takes its minimum with the transposed block below it, and
    the result is mirrored back, as ``np.minimum(d, d.T)`` would give."""
    n = coords.shape[0]
    d = np.empty((n, n))
    buf = np.empty((min(n, EUCLID_BLOCK), n, coords.shape[1]))
    for s in range(0, n, EUCLID_BLOCK):
        e = min(s + EUCLID_BLOCK, n)
        diff = np.subtract(coords[s:e, None, :], coords[None, :, :], out=buf[: e - s])
        np.multiply(diff, diff, out=diff)
        rows = d[s:e]
        np.sum(diff, axis=2, out=rows)
        np.sqrt(rows, out=rows)
    np.fill_diagonal(d, 0.0)
    for s in range(0, n, EUCLID_BLOCK):
        e = min(s + EUCLID_BLOCK, n)
        upper = d[s:e, s:]
        np.minimum(upper, d[s:, s:e].T, out=upper)
        d[s:, s:e] = upper.T
    return d


def _check_triangle(dist: np.ndarray, tol: float) -> None:
    """Raise unless ``d[i,j] <= fl(d[i,k] + d[k,j]) + tol`` for every triple.

    A min-plus scan over blocks of ``TRIANGLE_BLOCK`` rows: for rows ``i`` of
    the block and columns ``j`` from the block's first row on,
    ``best[i, j] = min_k fl(d[i,k] + d[k,j])`` is kept in place.  The matrix
    is exactly symmetric, so row ``k`` holds both ``d[i,k]`` and ``d[k,j]``,
    and the pairs left of the block were covered by earlier blocks.
    Since ``fl(x + tol)`` is monotone in ``x``, testing ``d > best + tol``
    gives the same verdict as testing every triple.  The witness is the worst
    violating pair of the first violating block and its minimizing ``k``.
    """
    n = dist.shape[0]
    for s in range(0, n, TRIANGLE_BLOCK):
        e = min(s + TRIANGLE_BLOCK, n)
        block = dist[s:e, s:]
        best = np.full(block.shape, np.inf)
        sums = np.empty_like(best)
        for k in range(n):
            np.add(dist[k, s:e, None], dist[k, s:], out=sums)
            np.minimum(best, sums, out=best)
        violated = block > best + tol
        if violated.any():
            excess = np.where(violated, block - best, -np.inf)
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            i, j = s + int(i), s + int(j)
            via = dist[i] + dist[:, j]
            k = int(np.argmin(via))
            raise ValueError(
                f"triangle inequality violated: d({i},{j})={dist[i, j]!r} > "
                f"d({i},{k})+d({k},{j})={via[k]!r}"
            )


def _coordinate_triangle_bound(n_dim: int, given: bool) -> float:
    """How far rounding can take a space built from ``n_dim``-dimensional
    coordinates past the triangle inequality, relative to
    ``max(1, diameter)``: every ``d_ij - fl(d_ik + d_kj)``, the scan's own
    roundings included, stays below the returned value times that scale.
    While the value is below ``TRIANGLE_SLACK`` the scan cannot fail, so
    the constructor skips it.  ``given`` adds the room of a ``dist`` passed
    together with the coordinates.

    With u the unit roundoff and g = gamma_{N+3} = (N+3)u / (1 - (N+3)u),
    each computed distance is ``d(1 + t) + e`` with ``|t| <= g`` (one
    rounding per difference, square and sum of the N squares, half the
    relative error through ``sqrt`` plus its own rounding; Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, 3.1)
    and an underflow term ``|e| <= sqrt(N * 2^-1074) = sqrt(N) * 2^-537``
    (each square loses at most half the smallest subnormal; differences and
    sums do not underflow).  Symmetrizing by ``min`` and the exact zero
    diagonal keep this.  The true distances satisfy the triangle inequality
    exactly, so for any triple, with D the largest computed distance and
    M = max(1, D), the computed excess ``d_ij - d_ik - d_kj`` is at most
    ``3g(D + e) / (1 - g) + 3e``.  The scan's own sums ``fl(d_ik + d_kj)``
    and ``fl(. + tol)`` lose at most ``u(4D + tol)(1 + u)`` more.  As
    g >= 4u, all of this is below ``(6g + 3e) * M``.  A ``dist`` given with
    the coordinates differs from the computed one by at most
    ``COORD_MATCH_RTOL * M`` per entry (the constructor's match check), which
    adds ``3 * COORD_MATCH_RTOL * M`` to each excess; the few ulps by which
    its own diameter may differ are covered by the spare g.

    At N = 16 the bound is about 1.3e-14; it reaches ``TRIANGLE_SLACK``
    near N = 1.5e6, where the constructor runs the scan as for any ``dist``.
    The computed matrix must be finite, which the constructor checks first.
    """
    u = np.finfo(float).eps / 2
    g = (n_dim + 3) * u / (1 - (n_dim + 3) * u)
    e = np.sqrt(n_dim * np.finfo(float).smallest_subnormal)
    return float(6 * g + 3 * e + (3 * COORD_MATCH_RTOL if given else 0.0))


def _cannot_overflow(coords: np.ndarray) -> bool:
    """Whether the per-axis extents of ``coords`` prove that no computed
    distance overflows: each rounded difference is at most its axis's
    rounded extent, so every rounded sum of squares is at most about
    ``fl(sum of extent^2)``, and below 1e300 that is far from the largest
    double."""
    with np.errstate(over="ignore"):
        extent = coords.max(axis=0) - coords.min(axis=0)
        return bool(np.sum(extent * extent) < 1e300)


class FiniteMetricSpace:
    """A finite point set with a symmetric distance matrix ``dist``.

    The matrix is validated on construction: zero diagonal, exact symmetry,
    nonnegativity, and (unless ``validate_triangle=False``) the triangle
    inequality over every triple, up to ``TRIANGLE_SLACK`` times
    ``max(1, diameter)``.  A ``dist`` given alone is checked by an O(n^3)
    min-plus scan over blocks of ``TRIANGLE_BLOCK`` rows, with block-sized
    scratch arrays only; on one core of a 2-vCPU Xeon it takes about 0.8 s
    at n = 1000 and 23 s at n = 3000.  A space built from coordinates, with
    or without a given ``dist``, needs no scan: Euclidean distances satisfy
    the inequality exactly, and ``_coordinate_triangle_bound`` bounds what
    rounding can add, far below the slack for any dimension up to about
    10^6 (beyond it the scan runs).  Such a space builds in about 0.03 s at
    n = 1000 and 0.5 s at n = 3000 in the plane.  When Euclidean coordinates
    are supplied the matrix must agree with them to ``COORD_MATCH_RTOL``
    relative tolerance, and coordinates whose distances overflow are
    rejected.  Instances are immutable; the arrays are write-protected.

    The space holds at most one n x n matrix.  A space given coordinates
    alone computes it on the first read of ``dist`` (``n_points``, ``coords``
    and ``to_dict`` do not read it), when the per-axis extents of the
    coordinates prove that no distance can overflow, so that every check the
    constructor would make on the matrix passes; otherwise, and when the
    triangle scan must run, the matrix is built at construction, as for a
    given ``dist``.  Either way it is the same matrix, kept as built, with
    no copy, so the build peaks at that matrix plus block-sized scratch
    (about 1.2 matrices at N = 3; 79 MiB above the process's baseline for
    n = 3000 in the plane, where the matrix is 69 MiB).  A caller's ``dist``
    is copied once, so that the caller cannot change the space's matrix
    afterwards.
    """

    __slots__ = ("_dist", "coords")

    def __init__(self, dist=None, *, coords=None, validate_triangle=True):
        if dist is None and coords is None:
            raise ValueError("FiniteMetricSpace needs a distance matrix or coordinates")
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.ndim == 1:
                coords = coords[:, None]
            if coords.ndim != 2 or 0 in coords.shape:
                raise ValueError("coords must be a nonempty 2-d array of shape (n, N)")
            if not np.isfinite(coords).all():
                raise ValueError("coords must be finite")
            scan = _coordinate_triangle_bound(coords.shape[1], dist is not None) >= TRIANGLE_SLACK
            if dist is None and not (validate_triangle and scan) and _cannot_overflow(coords):
                coords = coords.copy()
                coords.setflags(write=False)
                object.__setattr__(self, "_dist", None)
                object.__setattr__(self, "coords", coords)
                return
            with np.errstate(over="ignore"):
                computed = _euclidean_matrix(coords)
            largest = float(computed.max())
            if not np.isfinite(largest):
                raise ValueError("coordinates too large: a distance overflows")
            if dist is None:
                dist = computed
            else:
                dist = np.array(dist, dtype=float)
                scale = max(1.0, largest)
                # the difference overwrites the computed matrix, which is not kept
                if dist.shape != computed.shape or np.abs(
                    np.subtract(dist, computed, out=computed), out=computed
                ).max() > COORD_MATCH_RTOL * scale:
                    raise ValueError("dist does not match the Euclidean distances of coords")
            del computed
        else:
            dist = np.array(dist, dtype=float)
            scan = True
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1] or dist.shape[0] == 0:
            raise ValueError("dist must be a nonempty square matrix")
        n = dist.shape[0]
        if not np.isfinite(dist).all():
            raise ValueError("dist must be finite")
        if (np.diag(dist) != 0.0).any():
            raise ValueError("dist must have a zero diagonal")
        if not np.array_equal(dist, dist.T):
            raise ValueError("dist must be symmetric")
        if (dist < 0.0).any():
            raise ValueError("dist must be nonnegative")
        if validate_triangle and scan:
            _check_triangle(dist, TRIANGLE_SLACK * max(1.0, float(dist.max())))
        dist.setflags(write=False)
        object.__setattr__(self, "_dist", dist)
        if coords is not None:
            if coords.shape[0] != n:
                raise ValueError("coords must have one row per point")
            coords = coords.copy()
            coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteMetricSpace is immutable")

    @property
    def dist(self) -> np.ndarray:
        """The n x n distance matrix, read-only; computed on the first read
        for a space given coordinates alone."""
        if self._dist is None:
            dist = _euclidean_matrix(self.coords)
            dist.setflags(write=False)
            object.__setattr__(self, "_dist", dist)
        return self._dist

    @property
    def n_points(self) -> int:
        return len(self.coords) if self.coords is not None else len(self._dist)

    def diameter(self) -> float:
        return float(self.dist.max())

    def positive_distances(self) -> np.ndarray:
        """Sorted unique positive entries of the distance matrix."""
        iu = np.triu_indices(self.n_points, k=1)
        vals = self.dist[iu]
        return distinct(vals[vals > 0.0])

    def same_as(self, other: "FiniteMetricSpace") -> bool:
        """Whether the two distance matrices agree up to ``COORD_MATCH_RTOL``
        times ``max(1, larger diameter)``, the rounding the constructor
        allows between a given matrix and its coordinates."""
        if self is other:
            return True
        if self.n_points != other.n_points:
            return False
        scale = max(1.0, self.diameter(), other.diameter())
        return bool(np.abs(self.dist - other.dist).max() <= COORD_MATCH_RTOL * scale)

    def __repr__(self):
        return f"FiniteMetricSpace(n_points={self.n_points})"

    @classmethod
    def from_dict(cls, obj: dict) -> "FiniteMetricSpace":
        """Build a space from a JSON-style dict with ``coords`` or ``dist``."""
        if not isinstance(obj, dict):
            raise ValueError("space must be a JSON object")
        unknown = set(obj) - {"coords", "dist"}
        if unknown:
            raise ValueError(f"space: unknown field {sorted(unknown)[0]!r}")
        if "coords" not in obj and "dist" not in obj:
            raise ValueError("space: need 'coords' or 'dist'")
        return cls(obj.get("dist"), coords=obj.get("coords"))

    def to_dict(self) -> dict:
        if self.coords is not None:
            return {"coords": self.coords.tolist()}
        return {"dist": self.dist.tolist()}


@dataclass(frozen=True)
class IndexSet:
    """A sorted, duplicate-free tuple of 0-based point indices."""

    members: tuple[int, ...] = ()

    def __post_init__(self):
        cleaned = tuple(sorted({int(i) for i in self.members}))
        if any(i < 0 for i in cleaned):
            raise ValueError("indices must be nonnegative")
        object.__setattr__(self, "members", cleaned)

    @classmethod
    def of(cls, items: Iterable[int]) -> "IndexSet":
        return cls(tuple(items))

    def to_array(self) -> np.ndarray:
        return np.array(self.members, dtype=int)

    def validate_for(self, space: FiniteMetricSpace) -> None:
        if self.members and self.members[-1] >= space.n_points:
            raise ValueError(
                f"index {self.members[-1]} out of range for a {space.n_points}-point space"
            )

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, i):
        return i in self.members


#: the bit pattern of inf, the largest of the nonnegative doubles
_INF_BITS = 0x7FF0000000000000


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def quotient_bound(lam: float, alpha: float) -> float:
    """The largest nonnegative double ``X`` with ``fl(X / lam) <= alpha``
    (inf when every double qualifies), for ``lam > 0`` and ``alpha >= 0``.

    ``fl(x / lam)`` is monotone in ``x``, and so is the value of a
    nonnegative double in its bit pattern, so ``X`` is found by bisection
    over the bit patterns from 0 (whose quotient 0 always qualifies) to inf,
    in at most 63 divisions.  Stepping with ``nextafter`` instead would take
    about ``lam / 2`` steps where the quotient underflows, as at
    ``lam = 1e300``."""
    lam, alpha = float(lam), float(alpha)
    lo, hi = 0, _INF_BITS + 1  # lo qualifies, hi is one past inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _from_bits(mid) / lam <= alpha:
            lo = mid
        else:
            hi = mid
    return _from_bits(lo)


def close_threshold(lam: float, alpha: float) -> float:
    """The distance ``T`` with ``close_pairs(d, lam, alpha) == (d <= T)``:
    ``max(fl(lam * alpha), quotient_bound(lam, alpha))``.  At ``lam = inf``
    and ``alpha = 0`` the product is NaN, which no distance is ``<=``, so
    the quotient bound alone decides."""
    product = float(lam) * float(alpha)
    bound = quotient_bound(lam, alpha)
    return bound if math.isnan(product) else max(product, bound)


def close_pairs(d, lam: float, alpha: float):
    """Which nonnegative distances ``d`` are within ``lam * alpha``:
    ``d <= lam * alpha`` or ``d / lam <= alpha``, so that answers of the
    Prokhorov breakpoint sweep (in units of d/lam) recheck on the feasible
    side of their own boundary.  Both tests are monotone in ``d``, so their
    union is the one test ``d <= close_threshold(lam, alpha)``, which makes
    no array of quotients.  At ``lam = 1`` it is exactly ``d <= alpha``."""
    return d <= close_threshold(lam, alpha)


def closed_neighborhood(
    dist: np.ndarray, rows: np.ndarray, lam: float, alpha: float
) -> np.ndarray:
    """Sorted columns within ``lam * alpha`` (under ``close_pairs``) of some
    row of the distance block ``dist`` listed in ``rows``; no rows give no
    columns.  The rows are copied ``EUCLID_BLOCK`` at a time, and each
    block's mask is ORed into one column mask."""
    threshold = close_threshold(lam, alpha)
    near = np.zeros(dist.shape[1], dtype=bool)
    for s in range(0, rows.size, EUCLID_BLOCK):
        near |= (dist[rows[s : s + EUCLID_BLOCK]] <= threshold).any(axis=0)
    return np.flatnonzero(near)


def inflate(space: FiniteMetricSpace, subset: IndexSet, eps: float) -> IndexSet:
    """Closed inflation: all points within distance ``eps`` of ``subset``.

    Uses a closed threshold (distance <= eps).  The empty set inflates to the
    empty set for any eps >= 0.
    """
    eps = float(eps)
    if eps < 0.0:
        raise ValueError("inflation radius must be >= 0")
    subset.validate_for(space)
    near = closed_neighborhood(space.dist, subset.to_array(), 1.0, eps)
    return IndexSet(tuple(near.tolist()))


def open_ball(space: FiniteMetricSpace, center: int, eps: float) -> IndexSet:
    """Open ball: all points at distance strictly less than ``eps`` from ``center``."""
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("open ball radius must be > 0")
    center = int(center)
    if not 0 <= center < space.n_points:
        raise ValueError(f"center {center} out of range")
    return IndexSet(tuple(np.nonzero(space.dist[center] < eps)[0].tolist()))
