"""Piecewise-linear paths on [0, 1]: uniform norm, windowed oscillation, and
finite interpolation nets with per-sample approximation certificates.

All paths are continuous and piecewise linear, so every supremum used here is
attained at finitely many candidate times and is computed exactly: the norm of
a difference of two PL paths is convex on each merged-knot segment (max at the
knots), and the oscillation over a closed time window is maximized at a vertex
of the segment-pair feasibility polygons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ball import chebyshev_centers, jung_ratio
from .errors import InternalConsistencyError
from .tolerances import CERT_TOL, PATH_BOUND_SLACK, TIME_SLACK

__all__ = [
    "PLPath",
    "uniform_distance",
    "modulus",
    "mu_uec_family",
    "AANet",
    "aa_net",
    "QAAReport",
    "verify_qaa",
]


class PLPath:
    """A continuous piecewise-linear path [0, 1] -> R^N.

    Knots are strictly increasing with knots[0] == 0 and knots[-1] == 1;
    values has one row per knot.  Immutable.
    """

    __slots__ = ("knots", "values")

    def __init__(self, knots, values):
        knots = np.array(knots, dtype=float)
        values = np.array(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two knots")
        if values.ndim != 2 or values.shape[0] != knots.size:
            raise ValueError("values must have one row per knot")
        if not (np.isfinite(knots).all() and np.isfinite(values).all()):
            raise ValueError("knots and values must be finite")
        if knots[0] != 0.0 or knots[-1] != 1.0:
            raise ValueError("knots must start at 0 and end at 1")
        if (np.diff(knots) <= 0.0).any():
            raise ValueError("knots must be strictly increasing")
        knots.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("PLPath is immutable")

    @property
    def n_dim(self) -> int:
        return self.values.shape[1]

    @property
    def sup_norm(self) -> float:
        return float(np.sqrt((self.values**2).sum(axis=1)).max())

    def at(self, times) -> np.ndarray:
        """Evaluate at the given times (array-like in [0, 1]); exact at knots."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        seg = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, self.knots.size - 2)
        t0 = self.knots[seg]
        t1 = self.knots[seg + 1]
        frac = (t - t0) / (t1 - t0)
        return (1.0 - frac)[:, None] * self.values[seg] + frac[:, None] * self.values[seg + 1]

    @classmethod
    def constant(cls, value) -> "PLPath":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls([0.0, 1.0], np.stack([v, v]))

    @classmethod
    def from_dict(cls, obj: dict) -> "PLPath":
        if not isinstance(obj, dict):
            raise ValueError("path must be a JSON object")
        unknown = set(obj) - {"knots", "values"}
        if unknown:
            raise ValueError(f"path: unknown field {sorted(unknown)[0]!r}")
        if "knots" not in obj or "values" not in obj:
            raise ValueError("path: need 'knots' and 'values'")
        return cls(obj["knots"], obj["values"])

    def to_dict(self) -> dict:
        return {"knots": self.knots.tolist(), "values": self.values.tolist()}

    def __repr__(self):
        return f"PLPath(knots={self.knots.size}, n_dim={self.n_dim})"


def _same_dim(x: PLPath, y: PLPath) -> None:
    if x.n_dim != y.n_dim:
        raise ValueError("paths have different dimensions")


def uniform_distance(x: PLPath, y: PLPath) -> float:
    """sup over t of |x(t) - y(t)|, exact via the merged knot set."""
    _same_dim(x, y)
    t = np.union1d(x.knots, y.knots)
    diff = x.at(t) - y.at(t)
    return float(np.sqrt((diff * diff).sum(axis=1)).max())


def modulus(x: PLPath, delta: float) -> float:
    """Oscillation sup over |s - t| < delta of |x(s) - x(t)|.

    For a continuous path the strict-window sup equals the closed-window max,
    which is attained either at a pair of knots or at a pair at exact gap
    delta with one endpoint a knot; all such candidates are enumerated.
    """
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
    mask = t + delta <= 1.0 + TIME_SLACK
    s_list.append(t[mask])
    t_list.append(np.minimum(t[mask] + delta, 1.0))
    mask = t - delta >= -TIME_SLACK
    s_list.append(np.maximum(t[mask] - delta, 0.0))
    t_list.append(t[mask])
    s_all = np.concatenate(s_list)
    t_all = np.concatenate(t_list)
    if s_all.size == 0:
        return 0.0
    diff = x.at(t_all) - x.at(s_all)
    return float(np.sqrt((diff * diff).sum(axis=1)).max(initial=0.0))


def mu_uec_family(family: Sequence[PLPath], delta: float) -> float:
    """Worst oscillation over the family at window width delta."""
    if not family:
        raise ValueError("family must be nonempty")
    return max(modulus(x, delta) for x in family)


# ---------------------------------------------------------------------------
# interpolation nets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerSample:
    member_index: int
    achieved: float
    bound: float
    window_radii_max: float


@dataclass(frozen=True)
class AANet:
    """A finite net of PL paths approximating a family in uniform norm.

    Each family member x is matched to a member L built from per-window
    Chebyshev centers of x, bridged linearly between windows and snapped to an
    axis lattice of pitch 2*eps/sqrt(N); the certified per-sample bound is
    sqrt(N/(2N+2)) * alpha + eps (+ the sampling slack w, which is exactly 0
    for piecewise-linear inputs).
    """

    delta: float
    alpha: float
    bound_m: float
    eps: float
    n_dim: int
    grid_times: np.ndarray
    windows: tuple[tuple[float, float], ...]
    pitch: float
    members: tuple[PLPath, ...]
    per_sample: tuple[PerSample, ...]
    sampling_slack: float
    grid_points: np.ndarray

    @property
    def certified_bound(self) -> float:
        return jung_ratio(self.n_dim) * self.alpha + self.eps + self.sampling_slack

    @property
    def covering_achieved(self) -> float:
        return max(s.achieved for s in self.per_sample)


def _window_grid(delta: float) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Uniform grid t_0..t_m with an odd segment count m and window width
    3/m < delta; windows overlap so consecutive centers share a time range."""
    m = math.ceil(3.01 / delta)
    m = max(m, 3)
    if m % 2 == 0:
        m += 1
    t = np.linspace(0.0, 1.0, m + 1)
    n_win = (m - 1) // 2
    windows = []
    for k in range(n_win + 1):
        lo = 0.0 if k == 0 else t[2 * k - 1]
        hi = 1.0 if k == n_win else t[2 * k + 2]
        windows.append((lo, hi))
    return t, windows


def _window_values(x: PLPath, lo: np.ndarray, hi: np.ndarray):
    """The path's points in each window [lo, hi]: its value at lo, at each
    knot strictly inside and at hi, in time order, from one evaluation.
    Returns them stacked window after window, with the count per window."""
    first = np.searchsorted(x.knots, lo, side="right")
    sizes = np.searchsorted(x.knots, hi, side="left") - first + 2
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # position of each point within its window; position p > 0 is the knot
    # first + p - 1, and the window's last position is overwritten by hi
    pos = np.arange(ends[-1]) - np.repeat(starts, sizes)
    times = x.knots[np.minimum(np.repeat(first - 1, sizes) + pos, x.knots.size - 1)]
    times[starts] = lo
    times[ends - 1] = hi
    return x.at(times), sizes


def _family_window_balls(family: Sequence[PLPath], windows):
    """Chebyshev centers (member, window, coordinate) and radii (member,
    window) of each member's points in each window."""
    if family[0].n_dim == 1:
        balls = [_window_balls(x, windows) for x in family]
        return np.stack([c for c, _ in balls]), np.stack([r for _, r in balls])
    lo, hi = np.array(windows).T
    values, sizes = zip(*(_window_values(x, lo, hi) for x in family))
    values = np.concatenate(values)
    sizes = np.concatenate(sizes)
    starts = np.cumsum(sizes) - sizes
    centers = np.empty((sizes.size, values.shape[1]))
    radii = np.empty(sizes.size)
    # one batched solve for all windows of one point count
    for n in np.unique(sizes):
        sel = np.nonzero(sizes == n)[0]
        centers[sel], radii[sel] = chebyshev_centers(values[starts[sel, None] + np.arange(n)])
    shape = (len(family), len(windows))
    return centers.reshape(*shape, -1), radii.reshape(shape)


def _window_balls(x: PLPath, windows) -> tuple[np.ndarray, np.ndarray]:
    """Centers (one row per window) and radii of the balls of a 1-D path's
    points in each window: the endpoint values and the inner knot values."""
    # in 1-D the ball is [min, max]; one vectorised pass over all windows
    # gives the same floats as chebyshev_center window by window
    lo, hi = np.array(windows).T
    v_lo = x.at(lo)[:, 0]
    v_hi = x.at(hi)[:, 0]
    # a trailing dummy lets reduceat take a window ending at the last knot
    v_knots = np.append(x.at(x.knots)[:, 0], 0.0)
    bounds = np.stack([
        np.searchsorted(x.knots, lo, side="left"),
        np.searchsorted(x.knots, hi, side="right"),
    ], axis=1).ravel()
    inner = bounds[1::2] > bounds[::2]
    mins = np.minimum(v_lo, v_hi)
    maxs = np.maximum(v_lo, v_hi)
    mins[inner] = np.minimum(mins, np.minimum.reduceat(v_knots, bounds)[::2])[inner]
    maxs[inner] = np.maximum(maxs, np.maximum.reduceat(v_knots, bounds)[::2])[inner]
    # on a constant window the solver keeps the first point, the left end;
    # taking it keeps the sign of a zero
    flat = mins == maxs
    mins[flat] = maxs[flat] = v_lo[flat]
    return ((mins + maxs) / 2.0)[:, None], (maxs - mins) / 2.0


def aa_net(
    family: Sequence[PLPath],
    delta: float,
    alpha: float,
    bound_m: float,
    eps: float,
) -> AANet:
    """Build the interpolation net for a uniformly bounded, equicontinuous
    family of PL paths.

    Preconditions checked per path: sup norm at most ``bound_m`` and
    oscillation at window ``delta`` at most ``alpha`` (with ``alpha`` at most
    ``2 * bound_m``); violations are rejected with the offending index.  The
    per-sample achieved distances are hard-asserted against the certified
    bound before returning.
    """
    if not family:
        raise ValueError("family must be nonempty")
    delta = float(delta)
    alpha = float(alpha)
    bound_m = float(bound_m)
    eps = float(eps)
    if delta <= 0.0 or eps <= 0.0 or bound_m <= 0.0:
        raise ValueError("delta, eps, and the norm bound must be > 0")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if alpha > 2.0 * bound_m + PATH_BOUND_SLACK:
        raise ValueError("alpha cannot exceed twice the norm bound")
    n_dim = family[0].n_dim
    for i, x in enumerate(family):
        if x.n_dim != n_dim:
            raise ValueError(f"path {i} has dimension {x.n_dim}, expected {n_dim}")
        if x.sup_norm > bound_m + PATH_BOUND_SLACK:
            raise ValueError(f"path {i} has sup norm {x.sup_norm!r} > {bound_m!r}")
        osc = modulus(x, delta)
        if osc > alpha + PATH_BOUND_SLACK:
            raise ValueError(
                f"path {i} has oscillation {osc!r} > alpha = {alpha!r} at delta"
            )

    grid_times, windows = _window_grid(delta)
    for lo, hi in windows:
        if hi - lo >= delta:
            raise InternalConsistencyError("window width reached delta")
    pitch = 2.0 * eps / math.sqrt(n_dim)
    ratio = jung_ratio(n_dim)
    bound = ratio * alpha + eps

    members: list[PLPath] = []
    member_keys: dict[bytes, int] = {}
    per_sample = []
    all_centers, all_radii = _family_window_balls(family, windows)
    for x, centers, radii in zip(family, all_centers, all_radii):
        values = centers[np.arange(grid_times.size) // 2]
        snapped = np.round(values / pitch) * pitch
        norms = np.sqrt((snapped * snapped).sum(axis=1))
        if norms.max(initial=0.0) > 3.0 * bound_m + eps + CERT_TOL:
            raise InternalConsistencyError("snapped net value escaped the 3M ball")
        key = snapped.tobytes()
        if key in member_keys:
            idx = member_keys[key]
        else:
            idx = len(members)
            member_keys[key] = idx
            members.append(PLPath(grid_times, snapped))
        achieved = uniform_distance(members[idx], x)
        if achieved > bound + CERT_TOL:
            raise InternalConsistencyError(
                f"achieved distance {achieved!r} exceeds certified bound {bound!r}"
            )
        per_sample.append(
            PerSample(
                member_index=idx,
                achieved=achieved,
                bound=bound,
                window_radii_max=float(radii.max()),
            )
        )

    grid_points = np.unique(np.concatenate([m.values for m in members]), axis=0)
    return AANet(
        delta=delta,
        alpha=alpha,
        bound_m=bound_m,
        eps=eps,
        n_dim=n_dim,
        grid_times=grid_times,
        windows=tuple(windows),
        pitch=pitch,
        members=tuple(members),
        per_sample=tuple(per_sample),
        sampling_slack=0.0,
        grid_points=grid_points,
    )


# ---------------------------------------------------------------------------
# equicontinuity sandwich report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QAALowerRow:
    delta_prime: float
    family_defect: float
    net_defect: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class QAADeltaRow:
    delta: float
    alpha: float
    n_members: int
    covering: float
    bound: float
    upper_ok: bool
    lower_rows: tuple[QAALowerRow, ...]


@dataclass(frozen=True)
class QAAReport:
    n_dim: int
    bound_m: float
    eps: float
    rows: tuple[QAADeltaRow, ...]
    status: str


def verify_qaa(
    family: Sequence[PLPath], delta_grid, bound_m: float, eps: float
) -> QAAReport:
    """Certify both directions of the equicontinuity/covering relation.

    For each delta in the grid: build the net at the family's own oscillation
    level alpha(delta) and record the achieved covering radius rho against
    the certified bound sqrt(N/(2N+2)) * alpha + eps (upper direction).  Then,
    for each delta' in the grid, assert the triangle chain
    alpha_family(delta') <= 2 * rho + alpha_net_members(delta') (lower
    direction).  Both directions are mathematical guarantees, so any failure
    is reported with status "failed".
    """
    if not family:
        raise ValueError("family must be nonempty")
    delta_grid = [float(d) for d in delta_grid]
    if not delta_grid or any(d <= 0.0 for d in delta_grid):
        raise ValueError("delta_grid must be nonempty and positive")
    bound_m = float(bound_m)
    eps = float(eps)
    n_dim = family[0].n_dim

    # the family's defect at each grid width: each row's alpha, and the left
    # side of every row's lower-direction check
    fam_defects = [mu_uec_family(family, d) for d in delta_grid]
    rows = []
    ok_all = True
    for delta, alpha in zip(delta_grid, fam_defects):
        net = aa_net(family, delta, alpha, bound_m, eps)
        covering = net.covering_achieved
        bound = net.certified_bound
        upper_ok = covering <= bound + CERT_TOL
        lower_rows = []
        for dp, fam_def in zip(delta_grid, fam_defects):
            net_def = mu_uec_family(net.members, dp)
            rhs = 2.0 * covering + net_def
            ok = fam_def <= rhs + CERT_TOL
            lower_rows.append(
                QAALowerRow(
                    delta_prime=dp,
                    family_defect=fam_def,
                    net_defect=net_def,
                    rhs=rhs,
                    ok=ok,
                )
            )
            ok_all = ok_all and ok
        ok_all = ok_all and upper_ok
        rows.append(
            QAADeltaRow(
                delta=delta,
                alpha=alpha,
                n_members=len(net.members),
                covering=covering,
                bound=bound,
                upper_ok=upper_ok,
                lower_rows=tuple(lower_rows),
            )
        )
    return QAAReport(
        n_dim=n_dim,
        bound_m=bound_m,
        eps=eps,
        rows=tuple(rows),
        status="verified" if ok_all else "failed",
    )
