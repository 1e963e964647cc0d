"""Covering-radius and packing profiles for finite point sets.

The greedy farthest-point sweep yields covering radii r_k; the first k+1
greedy picks are mutually far apart and give the standard packing lower bound
p_k (half their minimum pairwise separation).  Together they sandwich the
optimal k-center radius: p_k <= optimal <= r_k <= 2 * optimal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ball import ragged_chebyshev_centers

__all__ = [
    "ProfileEntry",
    "CoverProfile",
    "cover_profile",
    "exact_kcenter",
    "covering_radius",
]

#: exhaustive k-center enumeration refuses larger instances
EXACT_LIMIT = 20


@dataclass(frozen=True)
class ProfileEntry:
    k: int
    radius: float
    centers: tuple[int, ...]
    packing: float
    packing_witness: tuple[int, ...]
    ambient_radius: Optional[float] = None


@dataclass(frozen=True)
class CoverProfile:
    """Covering radii r_k and packing bounds p_k for k = 1..k_max.

    Both sequences are nonincreasing in k, and for every k the optimal
    k-center radius lies in [p_k, r_k].
    """

    entries: tuple[ProfileEntry, ...]

    def radii(self) -> list[float]:
        return [e.radius for e in self.entries]

    def packings(self) -> list[float]:
        return [e.packing for e in self.entries]


def _as_matrix(dist) -> np.ndarray:
    if hasattr(dist, "dist"):
        dist = dist.dist
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] == 0:
        raise ValueError("need a nonempty square distance matrix")
    return d


def cover_profile(dist, k_max: int, coords=None) -> CoverProfile:
    """Greedy farthest-point covering profile on a distance matrix.

    The first center is the lowest index; each subsequent pick is the point
    farthest from the chosen set (ties broken by lowest index).  When
    Euclidean ``coords`` are supplied, an ambient refinement additionally
    replaces each greedy center by the Chebyshev center of its cluster and
    records the (never worse than previously seen) ambient covering radius.
    """
    d = _as_matrix(dist)
    n = d.shape[0]
    k_max = int(k_max)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if coords is not None:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.shape[0] != n:
            raise ValueError("coords must have one row per point")

    # r_k is the farthest distance from the first k picks, which the next
    # pick attains; from k = n on every point is a center and r_k = 0
    picks = [0]
    radii = [0.0] * k_max
    mind = d[0].copy()
    while len(picks) < min(n, k_max + 1):
        radii[len(picks) - 1] = float(mind.max())
        nxt = int(np.argmax(mind))
        picks.append(nxt)
        mind = np.minimum(mind, d[nxt])

    if coords is not None:
        amb_centers = _cluster_centers(d, coords, picks, k_max)
    entries = []
    amb_prev = np.inf
    for k, radius in enumerate(radii, start=1):
        centers = tuple(picks[:k])
        witness = tuple(picks[: k + 1])
        if len(witness) >= k + 1:
            sep = min(
                d[a, b] for a, b in itertools.combinations(witness, 2)
            )
            packing = sep / 2.0
        else:
            packing = 0.0
        ambient = None
        if coords is not None:
            diff = coords[None, :, :] - amb_centers[k - 1][:, None, :]
            amb_r = float(np.sqrt((diff * diff).sum(axis=2)).min(axis=0).max())
            ambient = min(amb_r, radius, amb_prev)
            amb_prev = ambient
        entries.append(
            ProfileEntry(
                k=k,
                radius=radius,
                centers=centers,
                packing=packing,
                packing_witness=witness,
                ambient_radius=ambient,
            )
        )
    return CoverProfile(entries=tuple(entries))


def _cluster_centers(d: np.ndarray, coords: np.ndarray, picks: list[int], k_max: int):
    """For k = 1..k_max, the Chebyshev centers of the clusters of the first k
    ``picks`` (each point joins its nearest pick, the first of equals), as
    one array per k with a row per pick; an empty cluster keeps its pick.
    Every nonempty cluster of every k goes into one ragged ball batch."""
    members, sizes, centers = [], [], []
    for k in range(1, k_max + 1):
        assign = np.argmin(d[picks[:k]], axis=0)
        members.append(np.argsort(assign, kind="stable"))
        sizes.append(np.bincount(assign, minlength=len(picks[:k])))
        centers.append(coords[picks[:k]])
    sizes = np.concatenate(sizes)
    flat = np.concatenate(centers)
    full = sizes > 0
    flat[full] = ragged_chebyshev_centers(coords[np.concatenate(members)], sizes[full])[0]
    return np.split(flat, np.cumsum([len(c) for c in centers])[:-1])


def exact_kcenter(dist, k: int) -> tuple[float, tuple[int, ...]]:
    """Optimal k-center radius with centers from the point set, by enumeration.

    Exponential in k; instances above 20 points are rejected outright.
    """
    d = _as_matrix(dist)
    n = d.shape[0]
    if n > EXACT_LIMIT:
        raise ValueError(
            f"exact_kcenter is limited to {EXACT_LIMIT} points, got {n}; "
            "use cover_profile bounds instead"
        )
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        return 0.0, tuple(range(n))
    best = np.inf
    best_centers: tuple[int, ...] = ()
    for combo in itertools.combinations(range(n), k):
        radius = float(d[:, combo].min(axis=1).max())
        if radius < best:
            best = radius
            best_centers = combo
    return best, best_centers


def covering_radius(cross_dist) -> float:
    """max over rows of min over columns: how far the worst row point is
    from the nearest column candidate."""
    c = np.asarray(cross_dist, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise ValueError("need a nonempty (points x candidates) matrix")
    return float(c.min(axis=1).max())
