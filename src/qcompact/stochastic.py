"""Finitely supported path laws: empirical tightness defects, the Prokhorov
distance between path ensembles, and the end-to-end compactness certificate.

A ``PathEnsemble`` is a probability measure on finitely many PL paths.  The
two defect estimators report how much mass escapes a norm ball
(``mu_sub_hat``) or oscillates beyond a window/threshold pair
(``mu_suec_hat``).  ``verify_qsaa`` trims each ensemble at the estimated
levels, pushes the trimmed mass onto a finite interpolation net of paths, and
certifies that the resulting net of *measures* covers every ensemble in
lam-Prokhorov distance within an itemized slack budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# cover, metric and prokhorov run only when a sandwich reads them, not
# when gen-walks builds an ensemble
from . import cover, metric, prokhorov
from .arrays import distinct, probability_vector
from .paths import PLPath, aa_net, moduli, values_at
from .tolerances import CERT_TOL, NORM_BOUND_FLOOR

__all__ = [
    "PathEnsemble",
    "MuSubResult",
    "mu_sub_hat",
    "MuSuecResult",
    "mu_suec_hat",
    "path_distances",
    "path_metric_space",
    "path_prokhorov",
    "sample_walks",
    "QSAAReport",
    "verify_qsaa",
]


class PathEnsemble:
    """A probability measure on finitely many PL paths of a common dimension.

    Weights (uniform by default) go through ``probability_vector``, so they
    must total 1 within ``MASS_SUM_TOL``.  Immutable.
    """

    __slots__ = ("paths", "weights")

    def __init__(self, paths: Sequence[PLPath], weights=None):
        paths = tuple(paths)
        if not paths:
            raise ValueError("ensemble must contain at least one path")
        n_dim = paths[0].n_dim
        for i, x in enumerate(paths):
            if not isinstance(x, PLPath):
                raise TypeError(f"entry {i} is not a PLPath")
            if x.n_dim != n_dim:
                raise ValueError(f"path {i} has dimension {x.n_dim}, expected {n_dim}")
        if weights is None:
            weights = np.full(len(paths), 1.0 / len(paths))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(paths),):
            raise ValueError("need one weight per path")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "weights", probability_vector(weights, "weights"))

    def __setattr__(self, name, value):
        raise AttributeError("PathEnsemble is immutable")

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def n_dim(self) -> int:
        return self.paths[0].n_dim

    @classmethod
    def from_dict(cls, obj: dict) -> "PathEnsemble":
        if not isinstance(obj, dict):
            raise ValueError("ensemble must be a JSON object")
        unknown = set(obj) - {"paths", "weights"}
        if unknown:
            raise ValueError(f"ensemble: unknown field {sorted(unknown)[0]!r}")
        if "paths" not in obj:
            raise ValueError("ensemble: need 'paths'")
        paths = [PLPath.from_dict(p) for p in obj["paths"]]
        return cls(paths, obj.get("weights"))

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "paths": [p.to_dict() for p in self.paths],
        }

    def __repr__(self):
        return f"PathEnsemble(n_paths={self.n_paths}, n_dim={self.n_dim})"


def _require_common_dim(ensembles: Sequence[PathEnsemble]) -> int:
    if not ensembles:
        raise ValueError("need at least one ensemble")
    n_dim = ensembles[0].n_dim
    for i, e in enumerate(ensembles):
        if e.n_dim != n_dim:
            raise ValueError(f"ensemble {i} has dimension {e.n_dim}, expected {n_dim}")
    return n_dim


# ---------------------------------------------------------------------------
# empirical defect estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuSubResult:
    """Tail-mass defect sup over ensembles of P(|path| > M), tabulated on a
    norm grid augmented with the empirical maximum norm (so the minimal
    defect over the grid is exactly 0)."""

    m_grid: tuple[float, ...]
    defects: tuple[float, ...]
    value: float
    m_star: float


def mu_sub_hat(ensembles: Sequence[PathEnsemble], m_grid) -> MuSubResult:
    _require_common_dim(ensembles)
    m_grid = sorted({float(m) for m in m_grid})
    if not m_grid or any(m <= 0.0 for m in m_grid):
        raise ValueError("norm levels must be positive")
    max_norm = max(x.sup_norm for e in ensembles for x in e.paths)
    if max_norm not in m_grid:
        m_grid.append(max_norm)
        m_grid.sort()
    norms = [np.array([x.sup_norm for x in e.paths]) for e in ensembles]
    defects = []
    for m in m_grid:
        worst = max(float(e.weights[n > m].sum()) for e, n in zip(ensembles, norms))
        defects.append(worst)
    value = min(defects)
    m_star = next(m for m, d in zip(m_grid, defects) if d == value)
    return MuSubResult(
        m_grid=tuple(m_grid), defects=tuple(defects), value=value, m_star=m_star
    )


@dataclass(frozen=True)
class MuSuecResult:
    """Oscillation defect sup over ensembles of P(osc(path, delta) >= eps),
    tabulated over an (eps, delta) grid.  ``value`` is the worst-over-eps of
    the best-over-delta entry; (eps_star, delta_star) realize it.
    ``moduli[e][i, j]`` is ``modulus`` of ensemble e's path i at
    ``delta_grid[j]``; it stays out of reports."""

    eps_grid: tuple[float, ...]
    delta_grid: tuple[float, ...]
    table: tuple[tuple[float, ...], ...]
    value: float
    eps_star: float
    delta_star: float
    moduli: tuple[np.ndarray, ...] = field(
        default=(), repr=False, compare=False, metadata={"report": False}
    )


def mu_suec_hat(ensembles: Sequence[PathEnsemble], eps_grid, delta_grid) -> MuSuecResult:
    _require_common_dim(ensembles)
    eps_grid = sorted({float(e) for e in eps_grid})
    delta_grid = sorted({float(d) for d in delta_grid})
    if not eps_grid or any(e <= 0.0 for e in eps_grid):
        raise ValueError("eps_grid must be nonempty and positive")
    if not delta_grid or any(d <= 0.0 for d in delta_grid):
        raise ValueError("delta_grid must be nonempty and positive")
    # every ensemble's paths in one batch, split back per ensemble
    osc = np.split(
        moduli([x for e in ensembles for x in e.paths], delta_grid),
        np.cumsum([e.n_paths for e in ensembles])[:-1],
    )
    table = []
    for i, eps in enumerate(eps_grid):
        row = []
        for j, _ in enumerate(delta_grid):
            worst = max(
                float(e.weights[o[:, j] >= eps].sum()) for e, o in zip(ensembles, osc)
            )
            row.append(worst)
        table.append(tuple(row))
    best_per_eps = [min(row) for row in table]
    value = max(best_per_eps)
    i_star = next(i for i, v in enumerate(best_per_eps) if v == value)
    j_star = next(j for j, v in enumerate(table[i_star]) if v == value)
    return MuSuecResult(
        eps_grid=tuple(eps_grid),
        delta_grid=tuple(delta_grid),
        table=tuple(table),
        value=value,
        eps_star=eps_grid[i_star],
        delta_star=delta_grid[j_star],
        moduli=tuple(osc),
    )


# ---------------------------------------------------------------------------
# the Prokhorov distance between path ensembles
# ---------------------------------------------------------------------------


def _dedupe(paths: Sequence[PLPath]) -> tuple[list[PLPath], list[int]]:
    """Unique paths (by exact knot/value equality) and the index of each
    input path in the deduplicated list."""
    seen: dict[bytes, int] = {}
    unique: list[PLPath] = []
    where = []
    for x in paths:
        key = x.knots.tobytes() + b"|" + x.values.tobytes()
        if key not in seen:
            seen[key] = len(unique)
            unique.append(x)
        where.append(seen[key])
    return unique, where


#: rows and columns per tile of ``path_distances``, whose working arrays
#: hold PATH_TILE[0] x PATH_TILE[1] x T x N floats and, for N >= 2, a
#: PATH_TILE[0] x PATH_TILE[1] x T sum for T knot times (0.7 MiB at T = 365
#: and N = 1).  At T = 365 on one core of a 2-vCPU Xeon, a 400 x 400 block
#: of 1-D paths took 74 ms with this tile, 115 ms with 16 x 64 and 167 ms
#: row by row in chunks of 128 columns; the 1600 x 1600 block of 2 x 800
#: walks took 1.55 s (2.39 s)
PATH_TILE = (8, 32)


def path_distances(rows: Sequence[PLPath], cols: Sequence[PLPath]) -> np.ndarray:
    """Uniform-norm distances ``d[i, j]`` from path ``rows[i]`` to ``cols[j]``.

    Every pair is evaluated exactly on the union of the knots of all the
    paths, which dominates each pair's merged knot set.  The columns' values
    are evaluated once; the rows' values one block of ``PATH_TILE[0]`` rows
    at a time, so besides the output only the column values and one row
    block are live.  The block is filled in tiles of ``PATH_TILE`` rows x
    columns through buffers allocated once: square the differences, sum
    over the N axes (for 1-D paths the square itself), take the max over
    times, then the root.  The correctly rounded ``sqrt`` is monotone, so
    ``sqrt(max(s)) == max(sqrt(s))`` bit for bit; ``|a - b|`` in place of
    the root of a 1-D square would not be, once the square underflows.
    """
    if not rows or not cols:
        raise ValueError("need at least one path")
    times = _union_knots([*rows, *cols])
    dist = _squared_distances(
        lambda a, b: values_at(rows[a:b], times), len(rows), values_at(cols, times)
    )
    return np.sqrt(dist, out=dist)


def _union_knots(paths: Sequence[PLPath]) -> np.ndarray:
    """The sorted union of the paths' knots, reading each knot array once:
    the members of a net share one."""
    grids = {id(x.knots): x.knots for x in paths}
    return distinct(np.concatenate(list(grids.values())))


def _squared_distances(row_vals, n: int, col_vals: np.ndarray) -> np.ndarray:
    """The max over times of the squared distances between n rows, whose
    values ``row_vals(a, b)`` gives for rows a to b - 1 as an (b - a, T, N)
    array, and the rows of ``col_vals`` (m, T, N), in tiles of
    ``PATH_TILE``; the rows' values are asked for one tile row at a time."""
    m = len(col_vals)
    tr, tc = min(PATH_TILE[0], n), min(PATH_TILE[1], m)
    one_axis = col_vals.shape[2] == 1  # whose sum is the square itself
    if one_axis:
        col_vals = col_vals[..., 0]
    buf = np.empty((tr, tc, *col_vals.shape[1:]))
    sums = buf if one_axis else np.empty(buf.shape[:3])
    dist = np.empty((n, m))
    for a in range(0, n, tr):
        b = min(a + tr, n)
        block = row_vals(a, b)
        if one_axis:
            block = block[..., 0]
        for s in range(0, m, tc):
            e = min(s + tc, m)
            d, sq = buf[: b - a, : e - s], sums[: b - a, : e - s]
            np.subtract(col_vals[None, s:e], block[:, None], out=d)
            np.multiply(d, d, out=d)
            if not one_axis:
                np.sum(d, axis=3, out=sq)
            np.max(sq, axis=2, out=dist[a:b, s:e])
        del block  # before the next block is made
    return dist


def path_metric_space(paths: Sequence[PLPath]) -> metric.FiniteMetricSpace:
    """Metric space of the given paths under the uniform norm."""
    paths = list(paths)
    return metric.FiniteMetricSpace(path_distances(paths, paths), validate_triangle=False)


def _law(where, weights: np.ndarray, n: int) -> np.ndarray:
    """Probability vector on ``n`` atoms, ``weights[i]`` added to atom ``where[i]``."""
    return probability_vector(np.bincount(where, weights, minlength=n))


def path_prokhorov(ens_p: PathEnsemble, ens_q: PathEnsemble, lam: float) -> float:
    """lam-Prokhorov distance between two path ensembles, exactly, between
    their two deduplicated supports."""
    if ens_p.n_dim != ens_q.n_dim:
        raise ValueError("ensembles have different path dimensions")
    rows, where_p = _dedupe(ens_p.paths)
    cols, where_q = _dedupe(ens_q.paths)
    p = _law(where_p, ens_p.weights, len(rows))
    q = _law(where_q, ens_q.weights, len(cols))
    return prokhorov.prokhorov_sweep(p, q, path_distances(rows, cols), [lam])[0].alpha_star


# ---------------------------------------------------------------------------
# random-walk sampler
# ---------------------------------------------------------------------------


def sample_walks(
    n_steps: int, n_paths: int, scale: float = 1.0, seed: Optional[int] = None
) -> PathEnsemble:
    """Uniform ensemble of simple +/- walks: knots k/n_steps, i.i.d. signed
    steps of size scale/sqrt(n_steps), started at 0."""
    if n_steps < 1 or n_paths < 1:
        raise ValueError("n_steps and n_paths must be >= 1")
    if seed is None:
        raise ValueError("a seed is required for reproducible sampling")
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_paths, n_steps)) * 2 - 1
    steps = signs * (float(scale) / math.sqrt(n_steps))
    values = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(steps, axis=1)], axis=1
    )
    knots = np.arange(n_steps + 1) / n_steps
    paths = [PLPath(knots, values[i][:, None]) for i in range(n_paths)]
    return PathEnsemble(paths)


# ---------------------------------------------------------------------------
# end-to-end certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QSAALambdaRow:
    lam: float
    covering: float
    guaranteed: float
    slack_tail: float
    slack_osc: float
    slack_net: float
    slack_eps: float
    ok: bool


@dataclass(frozen=True)
class QSAAReport:
    n_ensembles: int
    n_dim: int
    eps: float
    tail: MuSubResult
    osc: MuSuecResult
    n_unique_paths: int
    n_kept: int
    n_discarded: int
    alpha_kept: float
    net_members: int
    net_radius: float
    net_certified: float
    lambda_rows: tuple[QSAALambdaRow, ...]
    lower_defect: float
    lower_sup_covering: float
    lower_ok: bool
    status: str


def verify_qsaa(
    ensembles: Sequence[PathEnsemble],
    lambda_grid,
    eps_grid,
    delta_grid,
    m_grid,
    eps: float,
) -> QSAAReport:
    """Certify a finite net of path laws covering every ensemble.

    Pipeline: estimate the tail defect ``a`` at the best norm level M* and
    the oscillation defect ``b`` at (eps*, delta*); keep the unique paths
    with norm <= M* and oscillation < eps*; build an interpolation net of
    the kept paths at pitch eps/2 and read off its radius r; push each
    ensemble onto the net members (kept paths to their own member, discarded
    paths to the nearest member) to obtain candidate laws.

    For every lam the covering radius of the ensembles against the candidate
    laws is computed exactly and checked against the guarantee
    a + b + r/lam + eps, every slack itemized; a violation there contradicts
    the coupling argument and yields status "failed".  The converse check
    max(a, b) <= sup_lam covering + eps has no finite-sample guarantee; when
    it fails the status is "inconclusive".
    """
    n_dim = _require_common_dim(ensembles)
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    lambda_grid = sorted({float(l) for l in lambda_grid})
    if not lambda_grid or any(l <= 0.0 for l in lambda_grid):
        raise ValueError("lambda_grid must be nonempty and positive")

    tail = mu_sub_hat(ensembles, m_grid)
    osc = mu_suec_hat(ensembles, eps_grid, delta_grid)
    a, b = tail.value, osc.value
    m_star, eps_star, delta_star = tail.m_star, osc.eps_star, osc.delta_star

    all_paths = [x for e in ensembles for x in e.paths]
    unique, where = _dedupe(all_paths)
    # each unique path's modulus at delta*, read off its first occurrence
    j_star = osc.delta_grid.index(delta_star)
    # a path's unique index first shows where the running max of ``where``
    # reaches it, since ``_dedupe`` numbers them in order of first appearance
    first = np.searchsorted(np.maximum.accumulate(where), np.arange(len(unique)))
    osc_u = np.concatenate([o[:, j_star] for o in osc.moduli])[first]
    kept_pos: dict[int, int] = {}
    kept: list[PLPath] = []
    for u, x in enumerate(unique):
        if x.sup_norm <= m_star and osc_u[u] < eps_star:
            kept_pos[u] = len(kept)
            kept.append(x)
    if not kept:
        raise ValueError(
            "trimming discarded every path; enlarge the norm or oscillation grids"
        )
    alpha_kept = float(osc_u[list(kept_pos)].max())
    net = aa_net(kept, delta_star, alpha_kept, max(m_star, NORM_BOUND_FLOOR), eps / 2.0)
    r_net = net.covering_achieved

    # each kept path goes to its own member, each discarded one to the
    # nearest member along its row of the unique-path x member block
    dist = path_distances(unique, net.members)
    member_of = np.argmin(dist, axis=1)
    for u, pos in kept_pos.items():
        member_of[u] = net.per_sample[pos].member_index

    # alpha[i, j, k]: ensemble i's law on the unique paths against candidate
    # j's law on the net members at lambda_grid[k]; one sweep per pair solves
    # each flow network once across the whole grid
    parts = np.split(np.array(where), np.cumsum([e.n_paths for e in ensembles])[:-1])
    laws = [_law(u, e.weights, len(unique)) for e, u in zip(ensembles, parts)]
    candidates = [_law(member_of[u], e.weights, len(net.members)) for e, u in zip(ensembles, parts)]
    alpha = np.array(
        [
            [[r.alpha_star for r in prokhorov.prokhorov_sweep(p, c, dist, lambda_grid)]
             for c in candidates]
            for p in laws
        ]
    )
    rows = []
    failed = False
    sup_covering = 0.0
    for k, lam in enumerate(lambda_grid):
        covering = cover.covering_radius(alpha[:, :, k])
        slack_net = r_net / lam
        guaranteed = a + b + slack_net + eps
        ok = covering <= guaranteed + CERT_TOL
        failed = failed or not ok
        sup_covering = max(sup_covering, covering)
        rows.append(
            QSAALambdaRow(
                lam=lam,
                covering=covering,
                guaranteed=guaranteed,
                slack_tail=a,
                slack_osc=b,
                slack_net=slack_net,
                slack_eps=eps,
                ok=ok,
            )
        )

    lower_defect = max(a, b)
    # no CERT_TOL here: this converse check carries no finite-sample
    # guarantee, and failing it only makes the status "inconclusive"
    lower_ok = lower_defect <= sup_covering + eps
    if failed:
        status = "failed"
    elif lower_ok:
        status = "verified"
    else:
        status = "inconclusive"
    return QSAAReport(
        n_ensembles=len(ensembles),
        n_dim=n_dim,
        eps=eps,
        tail=tail,
        osc=osc,
        n_unique_paths=len(unique),
        n_kept=len(kept),
        n_discarded=len(unique) - len(kept),
        alpha_kept=alpha_kept,
        net_members=len(net.members),
        net_radius=r_net,
        net_certified=net.certified_bound,
        lambda_rows=tuple(rows),
        lower_defect=lower_defect,
        lower_sup_covering=sup_covering,
        lower_ok=lower_ok,
        status=status,
    )
