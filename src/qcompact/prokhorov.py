"""Discrete probability measures and the parametrized Prokhorov distance.

The distance with scale parameter ``lam > 0`` between measures P and Q is the
least ``alpha >= 0`` such that

    P(A) <= Q(A^(lam*alpha)) + alpha   for every subset A,

where ``A^(r)`` is the closed r-inflation of A.  On finite supports this
one-sided condition is equivalent, by max-flow/min-cut duality on the support
bipartite graph whose edges are exactly the pairs within distance
``lam*alpha``, to the existence of a sub-coupling of P and Q that moves mass
only along such pairs and leaves at most ``alpha`` mass uncoupled.  The
duality also makes the condition symmetric in P and Q.

Feasibility at a fixed alpha is therefore one max-flow computation, and the
exact minimizer is found by sweeping the finitely many breakpoints
``d(i, j)/lam`` at which the edge set changes.  Only the masses and the
distances between the two supports enter, so the sweep, its check and both
certificates take a problem in *block form*: probability vectors ``p_mass``
and ``q_mass`` and the block ``dist[i, j]`` of distances from P-atom i to
Q-atom j; a measure pair on one space is ``(P.mass, Q.mass, space.dist)``.
A subset-enumeration plus bisection routine is kept as a cross-check oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .arrays import distinct, probability_vector
from .errors import InternalConsistencyError
from .maxflow import transport_flow
from .metric import (
    FiniteMetricSpace,
    IndexSet,
    close_pairs,
    closed_neighborhood,
    quotient_bound,
)
from .tolerances import FLOW_TOL, ORACLE_BISECT_TOL

__all__ = [
    "DiscreteMeasure",
    "CouplingCertificate",
    "ViolationCertificate",
    "ProkhorovResult",
    "tv_distance",
    "check_alpha",
    "check_alpha_block",
    "prokhorov_distance",
    "prokhorov_distances",
    "prokhorov_sweep",
    "prokhorov_oracle",
    "MuUtResult",
    "mu_ut",
    "diameter_partition",
    "ProkhorovNet",
    "prokhorov_net",
    "QProkhReport",
    "verify_qprokh",
]


class DiscreteMeasure:
    """A probability measure on a FiniteMetricSpace; see ``probability_vector``."""

    __slots__ = ("space", "mass")

    def __init__(self, space: FiniteMetricSpace, mass):
        mass = np.asarray(mass, dtype=float)
        if mass.shape != (space.n_points,):
            raise ValueError(
                f"mass vector of length {mass.size} does not fit a "
                f"{space.n_points}-point space"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mass", probability_vector(mass))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    @classmethod
    def dirac(cls, space: FiniteMetricSpace, index: int) -> "DiscreteMeasure":
        mass = np.zeros(space.n_points)
        mass[index] = 1.0
        return cls(space, mass)

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.mass > 0.0)[0]

    def prob(self, subset: IndexSet) -> float:
        subset.validate_for(self.space)
        idx = subset.to_array()
        return float(self.mass[idx].sum()) if idx.size else 0.0

    def __repr__(self):
        return f"DiscreteMeasure(support={self.support.size} atoms)"


def _require_same_space(P: DiscreteMeasure, Q: DiscreteMeasure) -> FiniteMetricSpace:
    if not P.space.same_as(Q.space):
        raise ValueError("measures live on different spaces")
    return P.space


def _require_family_space(family: Sequence[DiscreteMeasure]) -> FiniteMetricSpace:
    """The space every member of a nonempty family lives on."""
    space = family[0].space
    for m in family[1:]:
        if not space.same_as(m.space):
            raise ValueError("family measures live on different spaces")
    return space


def tv_distance(P: DiscreteMeasure, Q: DiscreteMeasure) -> float:
    """Total variation distance sum_i max(P_i - Q_i, 0) = sup_A |P(A) - Q(A)|."""
    _require_same_space(P, Q)
    return float(np.clip(P.mass - Q.mass, 0.0, None).sum())


@dataclass(frozen=True)
class CouplingCertificate:
    """Witness that alpha is feasible: a sub-coupling along close pairs.

    ``flow[a, b]`` is the mass moved from P-atom ``p_support[a]`` to Q-atom
    ``q_support[b]`` (row and column indices of the distance block); every
    positive entry sits on a pair within distance ``lam * alpha``.
    ``slack_mass`` is the uncoupled remainder, at most ``alpha`` up to the
    ``FLOW_TOL`` residual budget.
    """

    lam: float
    alpha: float
    p_support: tuple[int, ...]
    q_support: tuple[int, ...]
    flow: np.ndarray
    slack_mass: float

    @property
    def feasible(self) -> bool:
        return True

    def validate(self, P: DiscreteMeasure, Q: DiscreteMeasure) -> None:
        """Re-check every certificate invariant against P and Q, up to
        ``FLOW_TOL``; raises on failure."""
        self.validate_block(P.mass, Q.mass, _require_same_space(P, Q).dist)

    def validate_block(self, p_mass, q_mass, dist) -> None:
        """``validate`` on a problem in block form."""
        sp = np.array(self.p_support, dtype=int)
        sq = np.array(self.q_support, dtype=int)
        if self.flow.min(initial=0.0) < -FLOW_TOL:
            raise InternalConsistencyError("negative flow entry")
        if (self.flow.sum(axis=1) - p_mass[sp] > FLOW_TOL).any():
            raise InternalConsistencyError("flow row sums exceed P masses")
        if (self.flow.sum(axis=0) - q_mass[sq] > FLOW_TOL).any():
            raise InternalConsistencyError("flow column sums exceed Q masses")
        total = float(self.flow.sum())
        if abs(total + self.slack_mass - 1.0) > FLOW_TOL:
            raise InternalConsistencyError("flow plus slack does not add to 1")
        if self.slack_mass > self.alpha + FLOW_TOL:
            raise InternalConsistencyError("slack mass exceeds alpha")
        i, j = np.nonzero(self.flow > FLOW_TOL)
        if not close_pairs(dist[sp[i], sq[j]], self.lam, self.alpha).all():
            raise InternalConsistencyError("positive flow on a pair beyond lam*alpha")


@dataclass(frozen=True)
class ViolationCertificate:
    """Witness that alpha is infeasible: a set A of P-atoms (rows of the
    distance block) with P(A) > Q(A^(lam a)) + a."""

    lam: float
    alpha: float
    subset: IndexSet
    p_mass: float
    q_inflated_mass: float

    @property
    def feasible(self) -> bool:
        return False

    @property
    def gap(self) -> float:
        return self.p_mass - self.q_inflated_mass - self.alpha

    def validate(self, P: DiscreteMeasure, Q: DiscreteMeasure) -> None:
        """Re-check the set's masses against P and Q, up to ``FLOW_TOL``, and
        that it violates; raises on failure."""
        self.validate_block(P.mass, Q.mass, _require_same_space(P, Q).dist)

    def validate_block(self, p_mass, q_mass, dist) -> None:
        """``validate`` on a problem in block form."""
        pm, qm = _cut_masses(p_mass, q_mass, dist, self.subset.to_array(), self.lam, self.alpha)
        if abs(pm - self.p_mass) > FLOW_TOL or abs(qm - self.q_inflated_mass) > FLOW_TOL:
            raise InternalConsistencyError("violation certificate masses are stale")
        if pm - qm - self.alpha <= 0.0:
            raise InternalConsistencyError("claimed violating set does not violate")


def _support_block(dist, sp: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """``dist[np.ix_(sp, sq)]``, or ``dist`` itself, uncopied, when the
    supports ``sp`` and ``sq`` are every row and every column."""
    if sp.size == dist.shape[0] and sq.size == dist.shape[1]:
        return dist
    return dist[np.ix_(sp, sq)]


def _cut_masses(p_mass, q_mass, dist, rows: np.ndarray, lam: float, alpha: float):
    """P(A) and Q(A^(lam*alpha)) for the set A of P-atoms ``rows``."""
    near = closed_neighborhood(dist, rows, lam, alpha)
    return float(p_mass[rows].sum()), float(q_mass[near].sum())


def check_alpha(P: DiscreteMeasure, Q: DiscreteMeasure, lam: float, alpha: float):
    """``check_alpha_block`` on the block ``(P.mass, Q.mass, space.dist)``."""
    return check_alpha_block(P.mass, Q.mass, _require_same_space(P, Q).dist, lam, alpha)


def check_alpha_block(p_mass, q_mass, dist, lam: float, alpha: float):
    """Decide feasibility of ``alpha`` for the lam-Prokhorov condition.

    Returns a CouplingCertificate when feasible and a ViolationCertificate
    otherwise.  The decision is made by one max-flow on the support bipartite
    graph and then re-checked definitionally on the min-cut set, so the
    returned certificate is always self-consistent.
    """
    lam, alpha = float(lam), float(alpha)
    if lam <= 0.0:
        raise ValueError("lam must be > 0")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    return _check_alpha(p_mass, q_mass, dist, lam, alpha, {})


def _check_alpha(p_mass, q_mass, dist, lam: float, alpha: float, solved: dict):
    """``check_alpha_block``, taking the max-flow from ``solved`` (solves
    of ``transport_flow`` on the support block, keyed on the number of
    allowed pairs) when it holds the network at ``alpha``.  The key names
    the edge set, as in ``prokhorov_sweep``."""
    sp = np.flatnonzero(p_mass > 0.0)
    sq = np.flatnonzero(q_mass > 0.0)
    allowed = close_pairs(_support_block(dist, sp, sq), lam, alpha)
    solve = solved.get(int(np.count_nonzero(allowed)))
    if solve is None:
        solve = transport_flow(p_mass[sp], q_mass[sq], allowed)
    del allowed
    (i, j, f), value, reach_p = solve

    # min-cut set: P-atoms still reachable from the source
    cut = sp[reach_p]
    p_cut, q_infl = _cut_masses(p_mass, q_mass, dist, cut, lam, alpha)
    # a gap within the flow budget is rounding: the coupling's slack then
    # exceeds alpha by at most FLOW_TOL, which its validate() accepts
    if p_cut - q_infl - alpha > FLOW_TOL:
        subset = IndexSet(tuple(cut.tolist()))
        return ViolationCertificate(lam, alpha, subset, p_mass=p_cut, q_inflated_mass=q_infl)
    flow = np.zeros((sp.size, sq.size))
    flow[i, j] = f
    cert = CouplingCertificate(
        lam=lam,
        alpha=alpha,
        p_support=tuple(sp.tolist()),
        q_support=tuple(sq.tolist()),
        flow=flow,
        slack_mass=max(0.0, 1.0 - value),
    )
    cert.validate_block(p_mass, q_mass, dist)
    return cert


@dataclass(frozen=True)
class ProkhorovResult:
    """Least feasible alpha for a given lam, with its coupling certificate.

    ``breakpoints_scanned`` is the number of candidate breakpoints; the
    search solved ``flows_solved`` flows for them, not counting networks an
    earlier lam of the same sweep had solved, nor the recheck."""

    lam: float
    alpha_star: float
    certificate: CouplingCertificate
    breakpoints_scanned: int
    flows_solved: int


def prokhorov_distance(P: DiscreteMeasure, Q: DiscreteMeasure, lam: float) -> ProkhorovResult:
    """Exact lam-Prokhorov distance; see ``prokhorov_sweep``."""
    return prokhorov_distances(P, Q, [lam])[0]


def prokhorov_distances(
    P: DiscreteMeasure, Q: DiscreteMeasure, lambda_grid
) -> list[ProkhorovResult]:
    """``prokhorov_sweep`` on the block ``(P.mass, Q.mass, space.dist)``."""
    return prokhorov_sweep(P.mass, Q.mass, _require_same_space(P, Q).dist, lambda_grid)


def prokhorov_sweep(p_mass, q_mass, dist, lambda_grid) -> list[ProkhorovResult]:
    """Exact lam-Prokhorov distance for every lam of ``lambda_grid``, in order,
    between the probability vectors ``p_mass`` and ``q_mass`` at the distances
    ``dist[i, j]`` from P-atom i to Q-atom j.

    Each lam gets its own breakpoint sweep.  On each interval between
    consecutive breakpoints ``b_k`` of ``d(i, j)/lam`` the feasibility graph,
    hence the flow deficiency ``g``, is constant; alpha is feasible iff
    ``g(alpha) <= alpha``.  ``g`` is nonincreasing, so the least index ``k*``
    with ``g_k <= b_k`` lies in a bracket ``[lo, hi]`` that every probed
    deficiency ``v = g_k`` narrows by value as well as by index: if ``k`` is
    feasible, every ``b_j < v`` is infeasible, and if it is not, the first
    ``b_j > v`` is feasible.  Each bound is padded by ``FLOW_TOL``, the flow's
    own rounding budget, so that a deficiency off by rounding cannot cut
    ``k*`` out of the bracket.  The next probe is the breakpoint at the
    middle of the bracket's values, kept inside ``[lo, hi - 1]`` so that the
    bracket always shrinks.  The answer is ``b_{k*}`` unless the previous
    interval already contains its own feasible point ``g_{k*-1}``.  It is
    rechecked as by ``check_alpha_block``, whose coupling is the certificate.

    The distinct distances ``u`` are sorted once for the whole sweep.
    ``fl(d / lam)`` is monotone in ``d``, so the breakpoints of a lam are
    the distinct values of ``u / lam`` in the same order (0 first when it is
    not one of them, with no allowed pair), and the edge set at ``b_k`` is
    ``{d <= quotient_bound(lam, b_k)}``, a prefix of the pairs in distance
    order, whichever lam produced it.  The sweeps therefore share one memo
    of deficiencies keyed on the number of allowed pairs, which names the
    edge set exactly: a network met by several sweeps is solved once.
    Besides the distance block, a search holds ``u``, the breakpoints, one
    boolean mask at a time and the flows it solved, in the sparse form
    ``transport_flow`` returns (arrays about p + q long, where a certificate
    is a p x q matrix).  After it, only its flows at ``k*`` and ``k* - 1``
    are kept.  The rechecks run once every search is done and ``u`` is
    dropped; one whose edge set has the key of a kept flow, as the network
    at ``alpha*`` does when the search solved it, reuses that flow instead
    of solving it again.
    """
    lambda_grid = [float(lam) for lam in lambda_grid]
    if any(lam <= 0.0 for lam in lambda_grid):
        raise ValueError("lam must be > 0")
    if dist.shape != (len(p_mass), len(q_mass)):
        raise ValueError(f"a {dist.shape} distance block does not fit the mass vectors")
    sp = np.flatnonzero(p_mass > 0.0)
    sq = np.flatnonzero(q_mass > 0.0)
    block = _support_block(dist, sp, sq)
    p_vec, q_vec = p_mass[sp], q_mass[sq]
    u = distinct(block)
    deficiency: dict[int, float] = {}
    kept: dict[int, tuple] = {}  # flows at k* and k* - 1, for the rechecks

    searched = []
    for lam in lambda_grid:
        bps = u / lam
        if (bps[1:] == bps[:-1]).any():
            bps = distinct(bps)
        if bps[0] != 0.0:
            bps = np.concatenate([[0.0], bps])
        known = len(deficiency)
        keys: dict[int, int] = {}  # breakpoint index -> key
        solved: dict[int, tuple] = {}  # this search's flows, by key

        def g(k: int) -> float:
            allowed = block <= quotient_bound(lam, bps[k])
            key = keys[k] = int(np.count_nonzero(allowed))
            if key not in deficiency:
                solved[key] = transport_flow(p_vec, q_vec, allowed)
                deficiency[key] = max(0.0, 1.0 - solved[key][1])
            return deficiency[key]

        # invariant: lo <= k* <= hi (the full edge set couples everything)
        lo, hi, mid = 0, len(bps) - 1, 0
        while lo < hi:
            v = g(mid)
            if v <= bps[mid]:
                hi = mid
                lo = max(lo, int(np.searchsorted(bps, v - FLOW_TOL, "left")))
            else:
                lo = mid + 1
                hi = min(hi, int(np.searchsorted(bps, v + FLOW_TOL, "right")))
            mid = int(np.searchsorted(bps, (bps[lo] + bps[hi]) / 2))
            mid = min(max(mid, lo), hi - 1)
        k_star = hi
        alpha_star = bps[k_star]
        if k_star > 0 and g(k_star - 1) < bps[k_star]:
            alpha_star = g(k_star - 1)
        for k in (k_star, k_star - 1):
            if keys.get(k) in solved:
                kept[keys[k]] = solved[keys[k]]
        searched.append((lam, float(alpha_star), len(bps), len(deficiency) - known))
        del bps, solved
    del u

    results = []
    for lam, alpha_star, n_breakpoints, flows_solved in searched:
        cert = _check_alpha(p_mass, q_mass, dist, lam, alpha_star, kept)
        if not cert.feasible:
            raise InternalConsistencyError(
                f"sweep returned alpha={alpha_star!r} but the feasibility recheck disagrees"
            )
        results.append(
            ProkhorovResult(
                lam=lam,
                alpha_star=alpha_star,
                certificate=cert,
                breakpoints_scanned=n_breakpoints,
                flows_solved=flows_solved,
            )
        )
    return results


def prokhorov_oracle(P: DiscreteMeasure, Q: DiscreteMeasure, lam: float) -> float:
    """Brute-force reference value: enumerate all 2^n subsets, bisect on alpha
    to ``ORACLE_BISECT_TOL``.

    Exponential in the number of points; refuses spaces above 16 points.
    Independent of the sweep/flow machinery, so the two can cross-check
    each other.
    """
    space = _require_same_space(P, Q)
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("lam must be > 0")
    n = space.n_points
    if n > 16:
        raise ValueError(f"oracle limited to 16 points, got {n}")
    # all subsets as a (2^n, n) boolean matrix
    masks = np.arange(2**n, dtype=np.uint32)
    subsets = (masks[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
    subsets = subsets.astype(bool)
    p_of = subsets @ P.mass

    def worst_gap(alpha: float) -> float:
        near = space.dist <= lam * alpha
        inflated = subsets @ near.astype(np.int8) > 0
        return float((p_of - inflated @ Q.mass).max())

    if worst_gap(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > ORACLE_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if worst_gap(mid) <= mid:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# uniform-tightness defect estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuUtEpsEntry:
    eps: float
    greedy_value: float
    greedy_centers: tuple[int, ...]
    exact_value: Optional[float]
    exact_centers: Optional[tuple[int, ...]]


@dataclass(frozen=True)
class MuUtResult:
    """Bracket for the grid-and-budget-restricted uniform-tightness defect.

    For each eps the quantity estimated is

        inf over center sets Y (|Y| <= k_max, Y from the space's points) of
        sup over the family of the mass left outside the open eps-balls
        around Y,

    and the reported value takes the max over the eps grid.  ``upper`` comes
    from greedy center selection, ``lower`` from exhaustive enumeration when
    the space has at most 20 points (then it is exact for the restricted
    problem).  The unrestricted defect takes the sup over all eps > 0 and all
    finite center sets, so a finite grid/budget can only underestimate in eps
    and overestimate in Y.
    """

    entries: tuple[MuUtEpsEntry, ...]
    upper: float
    lower: Optional[float]
    k_max: int
    exact: bool
    note: str = (
        "estimates are relative to the eps grid and the center budget k_max; "
        "the underlying quantity is a sup over all eps and all finite center sets"
    )


_EXACT_CENTER_LIMIT = 20


def mu_ut(family: Sequence[DiscreteMeasure], eps_grid, k_max: int) -> MuUtResult:
    """Estimate the uniform-tightness defect of a family of measures.

    Balls are open (strict inequality), centers are restricted to the points
    of the space (for a finite ambient space that is no restriction).  The
    greedy pass adds, at each step, the center whose addition minimizes the
    worst-case uncovered mass, ties broken by lowest index.
    """
    if not family:
        raise ValueError("family must be nonempty")
    space = _require_family_space(family)
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid or any(e <= 0.0 for e in eps_grid):
        raise ValueError("eps_grid must be nonempty and positive")
    k_max = int(k_max)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = space.n_points
    masses = np.stack([m.mass for m in family])

    entries = []
    for eps in eps_grid:
        balls = space.dist < eps  # balls[y] = open ball membership row

        def worst_missed(covered: np.ndarray) -> float:
            return float((masses[:, ~covered]).sum(axis=1).max(initial=0.0))

        covered = np.zeros(n, dtype=bool)
        centers: list[int] = []
        best_val = worst_missed(covered)
        for _ in range(min(k_max, n)):
            cand_vals = np.array(
                [worst_missed(covered | balls[y]) for y in range(n)]
            )
            y = int(np.argmin(cand_vals))
            centers.append(y)
            covered = covered | balls[y]
            best_val = float(cand_vals[y])
            if best_val == 0.0:
                break
        greedy_value = best_val

        exact_value = None
        exact_centers = None
        if n <= _EXACT_CENTER_LIMIT:
            k = min(k_max, n)
            exact_value = greedy_value
            exact_centers = tuple(centers)
            for combo in itertools.combinations(range(n), k):
                val = worst_missed(balls[list(combo)].any(axis=0))
                if val < exact_value:
                    exact_value = val
                    exact_centers = combo
                    if val == 0.0:
                        break
        entries.append(
            MuUtEpsEntry(
                eps=eps,
                greedy_value=greedy_value,
                greedy_centers=tuple(centers),
                exact_value=exact_value,
                exact_centers=exact_centers,
            )
        )

    upper = max(e.greedy_value for e in entries)
    exact = all(e.exact_value is not None for e in entries)
    lower = max((e.exact_value for e in entries if e.exact_value is not None), default=None)
    return MuUtResult(entries=tuple(entries), upper=upper, lower=lower, k_max=k_max, exact=exact)


# ---------------------------------------------------------------------------
# finite nets that cover a family within eps
# ---------------------------------------------------------------------------


def diameter_partition(space: FiniteMetricSpace, max_diam: float) -> list[IndexSet]:
    """Greedy partition of all points into cells of diameter < max_diam.

    Scans points in index order and puts each into the first existing cell it
    fits (every pairwise distance stays strictly below the threshold), opening
    a new cell otherwise.  Deterministic.
    """
    if max_diam <= 0.0:
        raise ValueError("max_diam must be > 0")
    cells: list[list[int]] = []
    d = space.dist
    for p in range(space.n_points):
        for cell in cells:
            if all(d[p, q] < max_diam for q in cell):
                cell.append(p)
                break
        else:
            cells.append([p])
    return [IndexSet(tuple(c)) for c in cells]


@dataclass(frozen=True)
class ProkhorovNet:
    """A finite measure net covering a family within eps.

    The net is every measure that puts whole multiples of ``1/m_grain`` on the
    cell representatives.  It is counted, not listed: ``full_size`` is its
    size, and ``assigned[i]`` is the net measure that family member i is
    rounded to, its companion.
    """

    lam: float
    eps: float
    representatives: tuple[int, ...]
    m_grain: int
    full_size: int
    assigned: tuple[DiscreteMeasure, ...]


def _rounded_member(
    P: DiscreteMeasure, cells: Sequence[IndexSet], reps: Sequence[int], m: int
) -> DiscreteMeasure:
    """Round P onto the representatives with per-cell error below 1/m."""
    cell_mass = np.array([P.prob(c) for c in cells])
    k = np.floor(m * cell_mass).astype(int)
    # hand the remainder to the cells with the largest fractional parts, one
    # grain each (keeps P(A_i) <= k_i/m + 1/m)
    spare = m - int(k.sum())
    frac = m * cell_mass - k
    k[np.argsort(-frac, kind="stable")[:spare]] += 1
    mass = np.zeros(P.space.n_points)
    mass[reps] = k / m
    return DiscreteMeasure(P.space, mass)


def prokhorov_net(family: Sequence[DiscreteMeasure], lam: float, eps: float) -> ProkhorovNet:
    """Count the grained measure net over the cells of
    ``diameter_partition(space, lam*eps)`` and round every family member
    onto it.

    The paper's net lives on a compact set carrying all but the tightness
    defect of each member's mass; on a finite space that set is the whole
    space and the defect is 0.  The cells cover every point, so every family
    member has a net measure within ``eps`` in lam-Prokhorov distance: its
    companion in ``assigned``.  Only the companions are built.
    """
    if not family:
        raise ValueError("family must be nonempty")
    space = _require_family_space(family)
    lam = float(lam)
    eps = float(eps)
    if lam <= 0.0 or eps <= 0.0:
        raise ValueError("lam and eps must be > 0")

    cells = diameter_partition(space, lam * eps)
    n_cells = len(cells)
    m = max(1, math.ceil(2.0 * n_cells / eps))
    reps = [cell.members[0] for cell in cells]
    return ProkhorovNet(
        lam=lam,
        eps=eps,
        representatives=tuple(reps),
        m_grain=m,
        full_size=math.comb(m + n_cells - 1, n_cells - 1),
        assigned=tuple(_rounded_member(P, cells, reps, m) for P in family),
    )


# ---------------------------------------------------------------------------
# covering-vs-tightness sandwich report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QProkhLambdaRow:
    lam: float
    n_cells: int
    m_grain: int
    net_full_size: int
    per_member_rho: tuple[float, ...]
    covering_radius: float
    claim_ok: bool
    covering_le_mu_upper: bool
    mu_lower_le_covering: bool


@dataclass(frozen=True)
class QProkhReport:
    eps: float
    mu_ut: MuUtResult
    rows: tuple[QProkhLambdaRow, ...]
    status: str
    hint: str = ""


def _quartiles(values: np.ndarray) -> list[float]:
    """The quartiles of the sorted ``values``, as ``np.quantile(values,
    [0.25, 0.5, 0.75])`` gives them by its default linear rule, bit for bit:
    at position q(n - 1), between the values a and b on either side, with
    the fraction f of the way, ``a + (b - a) f`` for f < 1/2 and
    ``b - (b - a)(1 - f)`` otherwise.  (``np.quantile`` imports
    ``numpy.ma``.)"""
    last = len(values) - 1
    out = []
    for q in (0.25, 0.5, 0.75):
        at = last * q
        i = math.floor(at)
        f = at - i
        a, b = float(values[i]), float(values[min(i + 1, last)])
        out.append(a + (b - a) * f if f < 0.5 else b - (b - a) * (1.0 - f))
    return out


def verify_qprokh(
    family: Sequence[DiscreteMeasure],
    lambda_grid,
    eps: float,
    eps_grid=None,
    k_max: Optional[int] = None,
) -> QProkhReport:
    """Sandwich the covering radius of a family between tightness estimates.

    For each lam the measure net over cells of diameter < lam*eps is built,
    and every family member is checked to be within eps of its net companion
    in lam-Prokhorov distance (a hard claim; its failure means a bug).  The
    report then compares the covering radius against the uniform-tightness
    bracket: covering <= upper + eps must hold, and lower <= covering + eps is
    expected to hold once the center budget k_max is large enough; a
    shortfall is reported as inconclusive with a budget hint, never silently
    absorbed.
    """
    if not family:
        raise ValueError("family must be nonempty")
    space = family[0].space
    lambda_grid = [float(x) for x in lambda_grid]
    if not lambda_grid or any(x <= 0.0 for x in lambda_grid):
        raise ValueError("lambda_grid must be nonempty and positive")
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    if eps_grid is None:
        pos = space.positive_distances()
        if pos.size:
            qs = [q / 2.0 for q in _quartiles(pos)]
            eps_grid = sorted(set(q for q in qs if q > 0.0))
        else:
            eps_grid = [1.0]
    if k_max is None:
        k_max = min(space.n_points, 4)

    mu = mu_ut(family, eps_grid, k_max)
    mu_lower = mu.lower if mu.lower is not None else 0.0

    rows = []
    failed = False
    inconclusive = False
    for lam in lambda_grid:
        net = prokhorov_net(family, lam, eps)
        rhos = tuple(
            prokhorov_distance(P, Qr, lam).alpha_star
            for P, Qr in zip(family, net.assigned)
        )
        covering = max(rhos)
        claim_ok = covering <= eps + FLOW_TOL
        if not claim_ok:
            failed = True
        check_a = covering <= mu.upper + eps + FLOW_TOL
        check_b = mu_lower <= covering + eps + FLOW_TOL
        if not (check_a and check_b):
            inconclusive = True
        rows.append(
            QProkhLambdaRow(
                lam=lam,
                n_cells=len(net.representatives),
                m_grain=net.m_grain,
                net_full_size=net.full_size,
                per_member_rho=rhos,
                covering_radius=covering,
                claim_ok=claim_ok,
                covering_le_mu_upper=check_a,
                mu_lower_le_covering=check_b,
            )
        )

    if failed:
        status, hint = "failed", "net covering claim violated; this is a bug"
    elif inconclusive:
        status = "inconclusive"
        hint = (
            "tightness lower estimate exceeds the observed covering radius; "
            "raise k_max or refine eps_grid to close the sandwich"
        )
    else:
        status, hint = "verified", ""
    return QProkhReport(eps=eps, mu_ut=mu, rows=tuple(rows), status=status, hint=hint)
