"""Piecewise-linear paths on [0, 1]: uniform norm, windowed oscillation, and
finite interpolation nets with per-sample approximation certificates.

All paths are continuous and piecewise linear, so every supremum used here is
attained at finitely many candidate times and is computed exactly: the norm of
a difference of two PL paths is convex on each merged-knot segment (max at the
knots), and the oscillation over a closed time window is maximized at a vertex
of the segment-pair feasibility polygons.

The kernels work on families one knot grid at a time: the paths that share a
grid are stacked and evaluated together by one interpolation routine, whose
candidate times are worked out once per grid.  Every value is the one
``PLPath.at`` gives for the path alone, bit for bit.  The stacked working
arrays are taken in chunks of paths (and of candidate times) of at most
``BATCH_ELEMENTS`` floats, or one path's own size when that is larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import distinct
from .ball import jung_ratio, ragged_chebyshev_centers
from .errors import InternalConsistencyError
from .tolerances import CERT_TOL, PATH_BOUND_SLACK

__all__ = [
    "PLPath",
    "values_at",
    "uniform_distance",
    "modulus",
    "moduli",
    "mu_uec_family",
    "AANet",
    "aa_net",
    "QAAReport",
    "verify_qaa",
]


class PLPath:
    """A continuous piecewise-linear path [0, 1] -> R^N.

    Knots are strictly increasing with knots[0] == 0 and knots[-1] == 1;
    values has one row per knot.  Immutable.  A float64 knots array that is
    read-only and owns its data is kept, not copied, so paths on one grid
    can share it; any other knots, a writeable array or a view, are copied.
    """

    __slots__ = ("knots", "values")

    def __init__(self, knots, values):
        if not (
            type(knots) is np.ndarray
            and knots.dtype == np.float64
            and knots.flags.owndata
            and not knots.flags.writeable
        ):
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
        return _interp(self.values[None], _weights(self.knots, t))[0]

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


#: floats in one batched working array: stacked paths are evaluated in chunks
#: of this many values (or of one path, when a path alone holds more)
BATCH_ELEMENTS = 4096


def _weights(knots, times):
    """Where ``times`` fall on ``knots``: the segment of each time and the
    weights of its two end values, as ``PLPath.at`` combines them."""
    seg = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, knots.size - 2)
    t0 = knots[seg]
    t1 = knots[seg + 1]
    frac = (times - t0) / (t1 - t0)
    return seg, seg + 1, (1.0 - frac)[:, None], frac[:, None]


def _interp(values, weights) -> np.ndarray:
    """The (n, T, N) values at the times of ``weights`` of n paths stacked as
    ``values`` (n, K, N) on one knot grid.  Each element is
    ``(1 - frac) * v[seg] + frac * v[seg + 1]`` on its own path's values, so
    it does not depend on which paths share the stack."""
    seg, nxt, w0, w1 = weights
    return w0 * np.take(values, seg, axis=1) + w1 * np.take(values, nxt, axis=1)


def _grids(*families: Sequence[PLPath]) -> list[np.ndarray]:
    """The indices i grouped by the dimension and the knot grids of
    ``families[0][i], families[1][i], ...``, in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, paths in enumerate(zip(*families)):
        key = (paths[0].n_dim, *(x.knots.tobytes() for x in paths))
        groups.setdefault(key, []).append(i)
    return [np.array(idx) for idx in groups.values()]


def _chunks(idx: np.ndarray, per_path: int) -> list[np.ndarray]:
    """``idx`` in runs of paths whose working arrays, ``per_path`` floats a
    path, hold at most ``BATCH_ELEMENTS`` floats together (one path at least)."""
    step = max(1, BATCH_ELEMENTS // max(1, per_path))
    return [idx[s : s + step] for s in range(0, idx.size, step)]


def _stack(paths: Sequence[PLPath], idx: np.ndarray) -> np.ndarray:
    return np.stack([paths[i].values for i in idx])


def values_at(paths: Sequence[PLPath], times) -> np.ndarray:
    """The (n, T, N) values of paths of one dimension at common ``times``:
    ``paths[i].at(times)`` for each i, evaluated one knot grid at a time."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty((len(paths), times.size, paths[0].n_dim))
    for idx in _grids(paths):
        weights = _weights(paths[idx[0]].knots, times)
        for part in _chunks(idx, times.size * out.shape[2]):
            out[part] = _interp(_stack(paths, part), weights)
    return out


def _same_dim(x: PLPath, y: PLPath) -> None:
    if x.n_dim != y.n_dim:
        raise ValueError("paths have different dimensions")


def _pair_distances(xs: Sequence[PLPath], ys: Sequence[PLPath]) -> np.ndarray:
    """``uniform_distance(xs[i], ys[i])`` for each i: the pairs of one pair of
    knot grids are evaluated together on the grids' merged knots.  The
    square root is taken after the max over times; the correctly rounded
    ``sqrt`` is monotone, so that gives the max of the roots bit for bit."""
    out = np.empty(len(xs))
    for idx in _grids(xs, ys):
        kx, ky = xs[idx[0]].knots, ys[idx[0]].knots
        t = distinct(np.concatenate([kx, ky]))
        wx, wy = _weights(kx, t), _weights(ky, t)
        for part in _chunks(idx, t.size * xs[idx[0]].n_dim):
            diff = _interp(_stack(xs, part), wx) - _interp(_stack(ys, part), wy)
            out[part] = (diff * diff).sum(axis=2).max(axis=1)
    return np.sqrt(out, out=out)


def uniform_distance(x: PLPath, y: PLPath) -> float:
    """sup over t of |x(t) - y(t)|, exact via the merged knot set."""
    _same_dim(x, y)
    return float(_pair_distances([x], [y])[0])


def _modulus_pairs(t: np.ndarray, delta: float, cap: int):
    """The time pairs (s, u) among which a path on knots ``t`` attains its
    oscillation at window ``delta``, in runs of at most ``cap`` pairs (or of
    one knot's pairs, when a knot alone has more): every pair of knots
    ``a < b < hi[a]``, then each knot with the time ``delta`` after it and
    each with the time ``delta`` before it."""
    counts = np.searchsorted(t, t + delta, side="right") - np.arange(t.size) - 1
    ends = np.cumsum(counts)
    lo = 0
    while lo < t.size:
        # the knots a in [lo, hi) whose pairs make up one run
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + cap, side="right")))
        n = counts[lo:hi]
        a = np.repeat(np.arange(lo, hi), n)
        b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(n) - n, n)
        yield t[a], t[b]
        lo = hi
    mask = t + delta <= 1.0
    yield t[mask], t[mask] + delta
    mask = t - delta >= 0.0
    yield t[mask] - delta, t[mask]


def moduli(paths: Sequence[PLPath], deltas) -> np.ndarray:
    """``modulus(paths[i], deltas[j])`` for every i and j, as an (n, m)
    array.  The paths of one knot grid share their candidate times, which
    are listed once per grid and width."""
    deltas = [float(d) for d in deltas]
    if any(d <= 0.0 for d in deltas):
        raise ValueError("delta must be > 0")
    # squared oscillations; the root of the max is the max of the roots
    sq = np.zeros((len(paths), len(deltas)))
    for idx in _grids(paths):
        knots, n_dim = paths[idx[0]].knots, paths[idx[0]].n_dim
        for j, delta in enumerate(deltas):
            for s, u in _modulus_pairs(knots, delta, BATCH_ELEMENTS // n_dim):
                if s.size == 0:
                    continue
                ws, wu = _weights(knots, s), _weights(knots, u)
                for part in _chunks(idx, s.size * n_dim):
                    v = _stack(paths, part)
                    diff = _interp(v, wu) - _interp(v, ws)
                    sq[part, j] = np.maximum(sq[part, j], (diff * diff).sum(axis=2).max(axis=1))
    return np.sqrt(sq, out=sq)


def modulus(x: PLPath, delta: float) -> float:
    """Oscillation sup over |s - t| < delta of |x(s) - x(t)|.

    For a continuous path the strict-window sup equals the closed-window max,
    which is attained either at a pair of knots or at a pair at exact gap
    delta with one endpoint a knot; all such candidates are enumerated.
    """
    return float(moduli([x], [delta])[0, 0])


def mu_uec_family(family: Sequence[PLPath], delta: float) -> float:
    """Worst oscillation over the family at window width delta."""
    if not family:
        raise ValueError("family must be nonempty")
    return float(moduli(family, [delta]).max())


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

    @property
    def certified_bound(self) -> float:
        return jung_ratio(self.n_dim) * self.alpha + self.eps + self.sampling_slack

    @property
    def covering_achieved(self) -> float:
        return max(s.achieved for s in self.per_sample)

    @property
    def grid_points(self) -> np.ndarray:
        """The distinct lattice values the members take, as sorted rows."""
        return np.unique(np.concatenate([m.values for m in self.members]), axis=0)


def _window_grid(delta: float) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Uniform grid t_0..t_m with an odd segment count m and window width
    3/m < delta; windows overlap so consecutive centers share a time range."""
    m = math.ceil(3.01 / delta)
    m = max(m, 3)
    if m % 2 == 0:
        m += 1
    # owned and read-only, so that the net's members share it
    t = np.linspace(0.0, 1.0, m + 1).copy()
    t.setflags(write=False)
    n_win = (m - 1) // 2
    windows = []
    for k in range(n_win + 1):
        lo = 0.0 if k == 0 else t[2 * k - 1]
        hi = 1.0 if k == n_win else t[2 * k + 2]
        windows.append((lo, hi))
    return t, windows


def _window_times(knots: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The times of a path's points in each window [lo, hi] for a path on
    ``knots``: lo, each knot strictly inside and hi, in time order, stacked
    window after window, with the count per window."""
    first = np.searchsorted(knots, lo, side="right")
    sizes = np.searchsorted(knots, hi, side="left") - first + 2
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # position of each point within its window; position p > 0 is the knot
    # first + p - 1, and the window's last position is overwritten by hi
    pos = np.arange(ends[-1]) - np.repeat(starts, sizes)
    times = knots[np.minimum(np.repeat(first - 1, sizes) + pos, knots.size - 1)]
    times[starts] = lo
    times[ends - 1] = hi
    return times, sizes


def _window_values(paths: Sequence[PLPath], lo: np.ndarray, hi: np.ndarray):
    """Each path's points in each window [lo, hi] (see ``_window_times``),
    stacked path after path and window after window, with the count per
    path and window (n, W).  Each knot grid's times are listed once."""
    grids = []
    sizes = np.empty((len(paths), lo.size), dtype=np.intp)
    for idx in _grids(paths):
        t, sizes[idx] = _window_times(paths[idx[0]].knots, lo, hi)
        grids.append((idx, t))
    totals = sizes.sum(axis=1)
    starts = np.cumsum(totals) - totals
    values = np.empty((totals.sum(), paths[0].n_dim))
    for idx, t in grids:
        weights = _weights(paths[idx[0]].knots, t)
        for part in _chunks(idx, t.size * values.shape[1]):
            values[starts[part, None] + np.arange(t.size)] = _interp(_stack(paths, part), weights)
    return values, sizes


def _family_window_balls(family: Sequence[PLPath], windows):
    """Chebyshev centers (member, window, coordinate) and radii (member,
    window) of each member's points in each window."""
    lo, hi = np.array(windows).T
    if family[0].n_dim == 1:
        return _window_balls(family, lo, hi)
    values, sizes = _window_values(family, lo, hi)
    centers, radii = ragged_chebyshev_centers(values, sizes.ravel())
    shape = (len(family), len(windows))
    return centers.reshape(*shape, -1), radii.reshape(shape)


def _window_balls(paths: Sequence[PLPath], lo: np.ndarray, hi: np.ndarray):
    """Centers (path, window, 1) and radii (path, window) of the balls of 1-D
    paths' points in each window [lo, hi]: the endpoint values and the inner
    knot values."""
    # in 1-D the ball is [min, max]; one vectorised pass over all windows of
    # a chunk of paths gives the same floats as chebyshev_center window by
    # window
    centers = np.empty((len(paths), lo.size, 1))
    radii = np.empty((len(paths), lo.size))
    for idx in _grids(paths):
        knots = paths[idx[0]].knots
        w_lo, w_hi, w_knots = (_weights(knots, t) for t in (lo, hi, knots))
        bounds = np.stack([
            np.searchsorted(knots, lo, side="left"),
            np.searchsorted(knots, hi, side="right"),
        ], axis=1).ravel()
        inner = bounds[1::2] > bounds[::2]
        for part in _chunks(idx, max(knots.size + 1, bounds.size)):
            v = _stack(paths, part)
            v_lo = _interp(v, w_lo)[:, :, 0]
            v_hi = _interp(v, w_hi)[:, :, 0]
            # a trailing dummy lets reduceat take a window ending at the last knot
            v_knots = np.zeros((part.size, knots.size + 1))
            v_knots[:, :-1] = _interp(v, w_knots)[:, :, 0]
            mins = np.minimum(v_lo, v_hi)
            maxs = np.maximum(v_lo, v_hi)
            low = np.minimum.reduceat(v_knots, bounds, axis=1)[:, ::2]
            mins[:, inner] = np.minimum(mins, low)[:, inner]
            high = np.maximum.reduceat(v_knots, bounds, axis=1)[:, ::2]
            maxs[:, inner] = np.maximum(maxs, high)[:, inner]
            # on a constant window the solver keeps the first point, the left
            # end; taking it keeps the sign of a zero
            flat = mins == maxs
            mins[flat] = maxs[flat] = v_lo[flat]
            centers[part, :, 0] = (mins + maxs) / 2.0
            radii[part] = (maxs - mins) / 2.0
    return centers, radii


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
    oscillations = moduli(family, [delta])[:, 0].tolist()
    for i, (x, osc) in enumerate(zip(family, oscillations)):
        if x.n_dim != n_dim:
            raise ValueError(f"path {i} has dimension {x.n_dim}, expected {n_dim}")
        if x.sup_norm > bound_m + PATH_BOUND_SLACK:
            raise ValueError(f"path {i} has sup norm {x.sup_norm!r} > {bound_m!r}")
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
    member_of = []
    all_centers, all_radii = _family_window_balls(family, windows)
    for centers in all_centers:
        values = centers[np.arange(grid_times.size) // 2]
        snapped = np.round(values / pitch) * pitch
        norms = np.sqrt((snapped * snapped).sum(axis=1))
        if norms.max(initial=0.0) > 3.0 * bound_m + eps + CERT_TOL:
            raise InternalConsistencyError("snapped net value escaped the 3M ball")
        key = snapped.tobytes()
        if key not in member_keys:
            member_keys[key] = len(members)
            members.append(PLPath(grid_times, snapped))
        member_of.append(member_keys[key])
    achieved = _pair_distances([members[k] for k in member_of], family).tolist()
    per_sample = []
    for idx, dist, radii in zip(member_of, achieved, all_radii):
        if dist > bound + CERT_TOL:
            raise InternalConsistencyError(
                f"achieved distance {dist!r} exceeds certified bound {bound!r}"
            )
        per_sample.append(
            PerSample(
                member_index=idx,
                achieved=dist,
                bound=bound,
                window_radii_max=float(radii.max()),
            )
        )

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
    # side of every row's lower-direction check.  Each column of ``moduli``
    # is computed alone, so one call gives each width's defect of a call
    # for that width.
    fam_defects = moduli(family, delta_grid).max(axis=0).tolist()
    rows = []
    ok_all = True
    for delta, alpha in zip(delta_grid, fam_defects):
        net = aa_net(family, delta, alpha, bound_m, eps)
        covering = net.covering_achieved
        bound = net.certified_bound
        upper_ok = covering <= bound + CERT_TOL
        lower_rows = []
        net_defects = moduli(net.members, delta_grid).max(axis=0).tolist()
        for dp, fam_def, net_def in zip(delta_grid, fam_defects, net_defects):
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
