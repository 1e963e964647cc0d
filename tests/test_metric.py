import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import close_pairs_two_sided, euclidean_all_pairs, triangle_holds_per_k
from qcompact import FiniteMetricSpace, IndexSet, inflate, open_ball
from qcompact import metric
from qcompact.metric import (
    EUCLID_BLOCK,
    TRIANGLE_BLOCK,
    _coordinate_triangle_bound,
    _euclidean_matrix,
    close_pairs,
    close_threshold,
    closed_neighborhood,
    quotient_bound,
)
from qcompact.tolerances import COORD_MATCH_RTOL, TRIANGLE_SLACK


def line_space(n=3):
    return FiniteMetricSpace(np.abs(np.subtract.outer(np.arange(n, dtype=float), np.arange(n, dtype=float))))


class TestFiniteMetricSpace:
    def test_from_coords_matches_euclidean(self):
        sp = FiniteMetricSpace(coords=[[0.0, 0.0], [3.0, 4.0]])
        assert sp.dist[0, 1] == pytest.approx(5.0, abs=1e-12)
        assert sp.n_points == 2

    def test_rejects_points_without_coordinates(self):
        with pytest.raises(ValueError, match="nonempty"):
            FiniteMetricSpace(coords=np.zeros((3, 0)))

    def test_rejects_asymmetric(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            FiniteMetricSpace(d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteMetricSpace(d)

    def test_rejects_triangle_violation_with_witness(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetricSpace(d)

    def test_triangle_validation_can_be_skipped(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        sp = FiniteMetricSpace(d, validate_triangle=False)
        assert sp.n_points == 3

    def test_coords_dist_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(
                np.array([[0.0, 2.0], [2.0, 0.0]]), coords=[[0.0], [1.0]]
            )

    def test_immutable(self):
        sp = line_space()
        with pytest.raises((AttributeError, ValueError)):
            sp.dist = None
        with pytest.raises(ValueError):
            sp.dist[0, 1] = 7.0

    def test_from_dict_strict(self):
        sp = FiniteMetricSpace.from_dict({"coords": [[0.0], [1.0]]})
        assert sp.diameter() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            FiniteMetricSpace.from_dict({"coords": [[0.0]], "bogus": 1})
        with pytest.raises(ValueError):
            FiniteMetricSpace.from_dict({})

    def test_round_trip(self):
        sp = line_space(4)
        again = FiniteMetricSpace.from_dict(sp.to_dict())
        assert sp.same_as(again)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9])
    def test_same_as_scales_like_the_constructor(self, scale):
        """A matrix the constructor accepts against coordinates is the same
        space as the coordinates, however large they are."""
        c = np.random.default_rng(0).standard_normal((6, 2)) * scale
        d = np.hypot(*(c[:, None, k] - c[None, :, k] for k in range(2)))
        FiniteMetricSpace(d, coords=c)
        assert FiniteMetricSpace(d).same_as(FiniteMetricSpace(coords=c))
        moved = c.copy()
        moved[0, 0] += 1e-6 * scale
        assert not FiniteMetricSpace(d).same_as(FiniteMetricSpace(coords=moved))


def random_matrix(kind: str, n: int, rng) -> np.ndarray:
    """An exactly symmetric, zero-diagonal, nonnegative n x n matrix."""
    if kind == "random":
        # entries in [lo, 1): every triangle holds once lo >= 0.5
        d = rng.uniform(rng.uniform(0.0, 0.6), 1.0, (n, n))
    else:
        x = rng.random((n, int(rng.integers(1, 4))))
        diff = np.abs(x[:, None, :] - x[None, :, :])
        d = diff.sum(axis=2) if kind == "l1" else np.sqrt((diff * diff).sum(axis=2))
    d = np.triu(d, 1)
    return d + d.T


def push_to_the_edge(d: np.ndarray, rng, ulps: int) -> None:
    """Set one pair to ``ulps`` steps from ``min_k fl(d[i,k] + d[k,j]) + tol``,
    the point where the scan's verdict flips."""
    n = d.shape[0]
    i, j = rng.choice(n, 2, replace=False)
    via = np.delete(d[i] + d[:, j], [i, j])
    value = via.min() + TRIANGLE_SLACK * max(1.0, float(d.max()))
    value = value + ulps * np.spacing(value)
    d[i, j] = d[j, i] = value


def triangle_verdict(d: np.ndarray):
    """None when the space builds, else the (i, j, k) its rejection names."""
    try:
        FiniteMetricSpace(d)
    except ValueError as exc:
        named = re.findall(r"d\((\d+),(\d+)\)", str(exc))
        (i, j), (i2, k), (k2, j2) = [tuple(map(int, pair)) for pair in named]
        assert (i2, k2, j2) == (i, k, j)
        return i, j, k
    return None


class TestTriangleScan:
    B = TRIANGLE_BLOCK

    @settings(max_examples=150)
    @given(
        kind=st.sampled_from(["euclidean", "random", "l1"]),
        # 1, 2, 3, 63, 64, 65, 129 at 64-row blocks
        n=st.sampled_from([1, 2, 3, B - 1, B, B + 1, 2 * B + 1]),
        seed=st.integers(0, 2**32 - 1),
        ulps=st.one_of(st.none(), st.integers(-2, 2)),
    )
    def test_verdict_matches_per_k_oracle(self, kind, n, seed, ulps):
        rng = np.random.default_rng(seed)
        d = random_matrix(kind, n, rng)
        if ulps is not None and n >= 3:
            push_to_the_edge(d, rng, ulps)
        tol = TRIANGLE_SLACK * max(1.0, float(d.max()))
        witness = triangle_verdict(d)
        assert (witness is None) == triangle_holds_per_k(d, tol)
        if witness is not None:
            i, j, k = witness
            assert d[i, j] > (d[i, k] + d[k, j]) + tol

    def test_violation_across_the_last_block_edge(self):
        n = 2 * TRIANGLE_BLOCK + 1
        d = np.abs(np.subtract.outer(np.arange(n, dtype=float), np.arange(n, dtype=float)))
        d[n - 1, n - 2] = d[n - 2, n - 1] = 5.0
        # the only violating pair, in rows of two different blocks
        assert triangle_verdict(d) == (n - 2, n - 1, n - 3)

    @pytest.mark.parametrize(
        "hub, i, j", [(5, 100, 120), (70, 3, 128), (128, 0, 64), (64, 63, 65)]
    )
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_one_violation_through_a_hub_in_another_block(self, hub, i, j, ulps):
        # every pair at 0.5 except through the hub (0.25): (i, j) can only
        # break the inequality through the hub, whatever block it lies in
        n = 2 * TRIANGLE_BLOCK + 1
        d = np.full((n, n), 0.5)
        d[hub, :] = d[:, hub] = 0.25
        edge = 0.5 + TRIANGLE_SLACK
        d[i, j] = d[j, i] = edge + ulps * np.spacing(edge)
        np.fill_diagonal(d, 0.0)
        assert triangle_verdict(d) == ((i, j, hub) if ulps > 0 else None)

    def test_witness_is_a_violating_pair_not_the_widest_gap(self):
        # pair (0, 1) breaks the inequality through point 2 by one ulp; pair
        # (3, 4) sits on the edge through point 5, where fl(c + tol) rounds
        # up by more than (0, 1)'s excess, so it has the wider gap but holds
        tol = TRIANGLE_SLACK
        # the rounding of c + tol depends only on c's binade
        c = next(
            c for c in 0.75 / 2.0 ** np.arange(6)
            if (c + tol) - c > tol + 4 * np.spacing(0.001)
        )
        d = np.full((6, 6), 0.9)
        d[[0, 1], 2] = d[2, [0, 1]] = 0.0005
        d[0, 1] = d[1, 0] = np.nextafter(0.001 + tol, 1.0)
        d[[3, 4], 5] = d[5, [3, 4]] = c / 2
        d[3, 4] = d[4, 3] = c + tol
        np.fill_diagonal(d, 0.0)
        assert d[3, 4] - c > d[0, 1] - 0.001
        assert triangle_verdict(d) == (0, 1, 2)

    def test_message_format(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(ValueError) as info:
            FiniteMetricSpace(d)
        assert str(info.value) == (
            f"triangle inequality violated: d(0,2)={np.float64(5.0)!r} > "
            f"d(0,1)+d(1,2)={np.float64(2.0)!r}"
        )


def hard_cloud(kind: str, n: int, n_dim: int, rng) -> np.ndarray:
    """n points in dimension n_dim where the rounding of distances is hardest
    on the triangle inequality."""
    if kind == "gaussian":
        return rng.standard_normal((n, n_dim))
    if kind == "lattice":
        # collinear triples at multiples of 1/8 are exact equalities
        return rng.integers(-3, 4, (n, n_dim)) / 8.0
    if kind == "far":
        return 1e9 + rng.standard_normal((n, n_dim))
    if kind == "tiny":
        return 1e-150 * rng.standard_normal((n, n_dim))
    # near-collinear, far from the origin: 10 ulps of noise off a line
    direction = rng.standard_normal(n_dim)
    direction /= np.linalg.norm(direction)
    line = 1e6 + rng.uniform(-1.0, 1.0, (n, 1)) * direction
    return line + 1e-9 * rng.standard_normal((n, n_dim))


class TestCoordinateBound:
    """Coordinate spaces skip the triangle scan on the strength of
    ``_coordinate_triangle_bound``; these clouds check that the bound holds,
    through the per-k oracle, far inside the scan's own tolerance."""

    KINDS = ["gaussian", "lattice", "far", "tiny", "collinear"]
    SIZES = [1, 2, EUCLID_BLOCK - 1, EUCLID_BLOCK, EUCLID_BLOCK + 1, 2 * EUCLID_BLOCK + 1]

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from(SIZES),
        n_dim=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        given_dist=st.booleans(),
    )
    def test_matrix_holds_the_bound(self, kind, n, n_dim, seed, given_dist):
        """The computed matrix, or a ``dist`` given with the coordinates and
        moved off it by up to the match tolerance (each pair up or down),
        passes the per-k oracle at the bound itself."""
        rng = np.random.default_rng(seed)
        coords = hard_cloud(kind, n, n_dim, rng)
        dist = FiniteMetricSpace(coords=coords).dist
        if given_dist:
            scale = max(1.0, float(dist.max()))
            shift = np.triu(rng.choice([-0.99, 0.99], (n, n)), 1) * COORD_MATCH_RTOL * scale
            moved = np.maximum(dist + shift + shift.T, 0.0)
            np.fill_diagonal(moved, 0.0)
            dist = FiniteMetricSpace(moved, coords=coords).dist
        bound = _coordinate_triangle_bound(n_dim, given_dist)
        assert bound < TRIANGLE_SLACK / (100 if given_dist else 1000)
        assert triangle_holds_per_k(dist, bound * max(1.0, float(dist.max())))

    def test_bound_holds_up_to_dimension_16_and_fails_at_ten_million(self):
        for given_dist in (False, True):
            assert _coordinate_triangle_bound(16, given_dist) < TRIANGLE_SLACK
            assert _coordinate_triangle_bound(10**7, given_dist) >= TRIANGLE_SLACK

    def test_scan_runs_only_where_it_can_fail(self, monkeypatch):
        class Scanned(Exception):
            pass

        def scan(dist, tol):
            raise Scanned

        monkeypatch.setattr(metric, "_check_triangle", scan)
        coords = np.random.default_rng(0).standard_normal((TRIANGLE_BLOCK + 1, 3))
        dist = FiniteMetricSpace(coords=coords).dist
        FiniteMetricSpace(dist, coords=coords)
        FiniteMetricSpace(dist, validate_triangle=False)
        with pytest.raises(Scanned):
            FiniteMetricSpace(dist)
        # where the bound cannot vouch for the coordinates, they are scanned
        monkeypatch.setattr(
            metric, "_coordinate_triangle_bound", lambda n_dim, given: TRIANGLE_SLACK
        )
        with pytest.raises(Scanned):
            FiniteMetricSpace(coords=coords)
        with pytest.raises(Scanned):
            FiniteMetricSpace(dist, coords=coords)

    @pytest.mark.parametrize(
        "coords", [[[1e200, 0.0], [-1e200, 0.0]], [[1.5e308], [-1.5e308]]]
    )
    def test_overflowing_distances_name_the_coordinates(self, coords):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^coordinates too large: a distance overflows$"):
                FiniteMetricSpace(coords=coords)
            with pytest.raises(ValueError, match="^coordinates too large"):
                FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]], coords=coords)


class TestEuclideanMatrix:
    @pytest.mark.parametrize("n_dim", [1, 3, 16])
    @pytest.mark.parametrize(
        "n", [1, 2, EUCLID_BLOCK - 1, EUCLID_BLOCK, EUCLID_BLOCK + 1, 2 * EUCLID_BLOCK + 1]
    )
    def test_bit_identical_to_all_pairs_oracle(self, n, n_dim):
        rng = np.random.default_rng(100 * n + n_dim)
        for coords in (rng.standard_normal((n, n_dim)), rng.integers(-3, 4, (n, n_dim)) / 8.0):
            assert (
                FiniteMetricSpace(coords=coords).dist.tobytes()
                == euclidean_all_pairs(coords).tobytes()
            )

    def test_memory_stays_within_a_few_matrices(self):
        """n = 1500 points in dimension 16: an (n, n, N) difference array
        alone would be 16 matrices of n^2 floats."""
        n, n_dim = 1500, 16
        coords = np.random.default_rng(0).standard_normal((n, n_dim))
        tracemalloc.start()
        try:
            _euclidean_matrix(coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 8

    def test_coordinate_space_holds_its_matrix_once(self):
        """The space keeps the matrix it computed, symmetrized in place, so
        building it, here on the first read of ``dist``, holds one n^2
        matrix plus block-sized scratch (at N = 3, 0.13 of a matrix for the
        difference block)."""
        n = 1500
        coords = np.random.default_rng(0).random((n, 3))
        tracemalloc.start()
        try:
            FiniteMetricSpace(coords=coords).dist
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * n * n * 8


class TestLazyMatrix:
    """A space given coordinates alone computes ``dist`` on its first read."""

    def test_only_dist_builds_the_matrix(self, monkeypatch):
        coords = np.random.default_rng(0).random((5, 2))
        expected = _euclidean_matrix(coords)

        def refuse(coords):
            raise AssertionError("matrix built")

        monkeypatch.setattr(metric, "_euclidean_matrix", refuse)
        sp = FiniteMetricSpace(coords=coords)
        assert sp.n_points == 5 and repr(sp) == "FiniteMetricSpace(n_points=5)"
        assert sp.to_dict() == {"coords": coords.tolist()}
        assert sp.same_as(sp)
        with pytest.raises(AssertionError, match="matrix built"):
            sp.dist
        monkeypatch.undo()
        assert sp.dist.tobytes() == expected.tobytes()
        assert sp.dist is sp.dist and not sp.dist.flags.writeable

    @pytest.mark.parametrize(
        "coords",
        [
            [[1e200, 0.0], [-1e200, 0.0]],
            [[1.5e308], [-1.5e308]],
            [[1e154, 0.0], [-1e154, 0.0]],
            [[0.0] * 16, [5e153] * 16],
        ],
    )
    def test_overflowing_coordinates_raise_at_construction(self, coords):
        """Coordinates whose extents cannot rule out an overflow are built at
        once, so an overflowing distance is reported by the constructor."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^coordinates too large: a distance overflows$"):
                FiniteMetricSpace(coords=coords)

    @pytest.mark.parametrize(
        "coords, lazy",
        [
            ([[0.0, 0.0], [3e149, 4e149]], True),
            ([[0.0, 0.0], [6e149, 8e149]], False),
            ([[-1e150], [1e150]], False),
        ],
    )
    def test_large_coordinates_that_do_not_overflow(self, coords, lazy, monkeypatch):
        """Near the extent bound (sum of squared extents 1e300) the matrix is
        deferred below it and built at once above it; both are the same."""
        built = []
        build = metric._euclidean_matrix
        monkeypatch.setattr(metric, "_euclidean_matrix", lambda c: built.append(1) or build(c))
        sp = FiniteMetricSpace(coords=coords)
        assert built == ([] if lazy else [1])
        assert sp.dist.tobytes() == euclidean_all_pairs(coords).tobytes()
        assert np.isfinite(sp.dist).all()


#: the lam of the threshold test: thirds and sevenths round, 1e+-300 make
#: products overflow and quotients underflow
THRESHOLD_LAMS = [1 / 7, 1 / 3, 1e-3, 1.0, 1e3, 1e-300, 1e300]


def _neighbours(x: float, k: int = 3) -> list[float]:
    """``x`` and its ``k`` nearest doubles on each side, kept nonnegative."""
    out, up, down = [x], x, x
    for _ in range(k):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return [float(v) for v in out if v >= 0.0 and np.isfinite(v)]


class TestCloseThreshold:
    @settings(max_examples=300, deadline=None)
    @given(
        lam=st.sampled_from([*THRESHOLD_LAMS, np.inf])
        | st.floats(min_value=5e-324, max_value=1e308, allow_subnormal=True),
        alpha=st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1 / 3, 1.0])
        | st.floats(min_value=0.0, max_value=1e10, allow_subnormal=True),
        extra=st.lists(st.floats(min_value=0.0, max_value=1e308, allow_subnormal=True),
                       max_size=8),
    )
    def test_matches_the_two_sided_formula(self, lam, alpha, extra):
        """``d <= T`` gives the old two-sided verdict on the doubles around
        fl(lam * alpha), around T itself, on subnormals and on any others;
        T is the largest double the old test accepts."""
        t = close_threshold(lam, alpha)
        with np.errstate(over="ignore", under="ignore"):
            product = lam * alpha
        d = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, *extra]
        d += _neighbours(product) + _neighbours(t) + _neighbours(alpha)
        d = np.array(d)
        assert np.array_equal(close_pairs(d, lam, alpha), close_pairs_two_sided(d, lam, alpha))
        if np.isfinite(t):
            assert close_pairs_two_sided([t], lam, alpha)[0]
            assert not close_pairs_two_sided([np.nextafter(t, np.inf)], lam, alpha)[0]

    @pytest.mark.parametrize("lam", THRESHOLD_LAMS)
    def test_quotient_bound_at_zero_alpha(self, lam):
        """At alpha = 0 the bound is the largest d whose quotient underflows
        to 0: about lam * 2^-1075, found without stepping through it."""
        x = quotient_bound(lam, 0.0)
        assert x / lam == 0.0
        assert np.nextafter(x, np.inf) / lam > 0.0

    def test_infinite_lam_at_zero_alpha(self):
        """fl(inf * 0) is NaN: the quotient test alone admits every finite
        distance, as the two-sided formula does."""
        assert close_threshold(np.inf, 0.0) == np.finfo(float).max
        d = np.array([0.0, 5e-324, 1.0, np.finfo(float).max, np.inf])
        assert close_pairs(d, np.inf, 0.0).tolist() == [True, True, True, True, False]
        assert np.array_equal(close_pairs(d, np.inf, 0.0), close_pairs_two_sided(d, np.inf, 0.0))

    def test_every_double_qualifies_only_at_infinite_alpha(self):
        assert quotient_bound(1e300, 1e10) == np.finfo(float).max
        assert quotient_bound(1.0, np.inf) == np.inf


class TestIndexSet:
    def test_sorted_dedup(self):
        s = IndexSet.of([3, 1, 1, 2])
        assert tuple(s) == (1, 2, 3)
        assert 2 in s and 0 not in s
        assert len(s) == 3

    def test_range_validation(self):
        sp = line_space(3)
        with pytest.raises(ValueError):
            IndexSet.of([5]).validate_for(sp)
        with pytest.raises(ValueError):
            IndexSet.of([-1]).validate_for(sp)


class TestInflate:
    def test_line_examples(self):
        sp = line_space()
        assert tuple(inflate(sp, IndexSet.of([0]), 1.0)) == (0, 1)
        assert tuple(inflate(sp, IndexSet.of([1]), 0.0)) == (1,)
        assert tuple(inflate(sp, IndexSet.of([0, 1, 2]), 0.0)) == (0, 1, 2)
        assert tuple(inflate(sp, IndexSet.of([]), 2.0)) == ()

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            inflate(line_space(), IndexSet.of([0]), -0.1)


class TestClosedNeighborhood:
    @pytest.mark.parametrize(
        "k", [0, 1, EUCLID_BLOCK - 1, EUCLID_BLOCK, EUCLID_BLOCK + 1, 2 * EUCLID_BLOCK + 1]
    )
    def test_row_blocks_match_the_whole_mask(self, k):
        """Rows in any order, repeats included, across block edges: the
        columns any of them reaches, as one mask over all the rows gives."""
        rng = np.random.default_rng(k)
        dist = rng.random((3 * EUCLID_BLOCK, 90))
        rows = rng.integers(0, dist.shape[0], size=k)
        for lam, alpha in [(1.0, 0.02), (2.5, 0.01), (0.5, 0.0)]:
            want = np.flatnonzero(close_pairs(dist[rows], lam, alpha).any(axis=0))
            got = closed_neighborhood(dist, rows, lam, alpha)
            assert got.tolist() == want.tolist()


class TestOpenBall:
    def test_line_examples(self):
        sp = line_space()
        assert tuple(open_ball(sp, 0, 1.0)) == (0,)
        assert tuple(open_ball(sp, 1, 1.5)) == (0, 1, 2)
        assert tuple(open_ball(sp, 0, 100.0)) == (0, 1, 2)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            open_ball(line_space(), 0, 0.0)


@st.composite
def random_space(draw, max_points=7):
    n = draw(st.integers(min_value=1, max_value=max_points))
    coords = draw(
        st.lists(
            st.lists(
                st.floats(min_value=-5, max_value=5, allow_nan=False),
                min_size=2,
                max_size=2,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return FiniteMetricSpace(coords=coords)


@given(random_space(), st.data())
def test_inflate_monotone_in_eps_and_set(space, data):
    n = space.n_points
    idx_a = data.draw(st.sets(st.integers(0, n - 1)))
    idx_b = data.draw(st.sets(st.integers(0, n - 1)))
    e1 = data.draw(st.floats(min_value=0, max_value=10))
    e2 = data.draw(st.floats(min_value=0, max_value=10))
    if e1 > e2:
        e1, e2 = e2, e1
    a = IndexSet.of(idx_a)
    ab = IndexSet.of(idx_a | idx_b)
    small = set(inflate(space, a, e1))
    assert small <= set(inflate(space, a, e2))
    assert small <= set(inflate(space, ab, e1))
    assert set(a) <= small or len(a) == 0


@given(random_space(), st.data())
def test_open_ball_inside_closed_inflation(space, data):
    center = data.draw(st.integers(0, space.n_points - 1))
    eps = data.draw(st.floats(min_value=1e-6, max_value=10))
    ball = set(open_ball(space, center, eps))
    assert center in ball
    assert ball <= set(inflate(space, IndexSet.of([center]), eps))
