import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompact import (
    FiniteMetricSpace,
    chebyshev_center,
    cover_profile,
    covering_radius,
    exact_kcenter,
)
from qcompact import cover as cover_module


def line_space(*xs):
    xs = np.asarray(xs, dtype=float)
    return np.abs(xs[:, None] - xs[None, :])


def ambient_by_single_balls(d, coords, k_max):
    """The ambient radii of ``cover_profile``, with one ``chebyshev_center``
    call per cluster of each k (a center of an empty cluster stays put)."""
    out, prev = [], np.inf
    for entry in cover_profile(d, k_max).entries:
        assign = np.argmin(d[list(entry.centers)], axis=0)
        centers = np.stack([
            chebyshev_center(coords[assign == c]).center if (assign == c).any()
            else coords[entry.centers[c]]
            for c in range(len(entry.centers))
        ])
        diff = coords[None, :, :] - centers[:, None, :]
        prev = min(float(np.sqrt((diff * diff).sum(axis=2)).min(axis=0).max()), entry.radius, prev)
        out.append(prev)
    return out


@st.composite
def small_cloud(draw, max_points=12):
    n = draw(st.integers(min_value=2, max_value=max_points))
    pts = draw(
        st.lists(
            st.tuples(st.floats(0, 10), st.floats(0, 10)),
            min_size=n,
            max_size=n,
        )
    )
    arr = np.asarray(pts, dtype=float)
    return np.sqrt(((arr[:, None] - arr[None]) ** 2).sum(-1))


class TestCoverProfile:
    def test_four_point_line(self):
        prof = cover_profile(line_space(0, 1, 2, 3), 3, coords=[[0], [1], [2], [3]])
        assert prof.radii() == [3.0, 1.0, 1.0]
        assert prof.packings() == [1.5, 0.5, 0.5]
        e2 = prof.entries[1]
        assert e2.centers == (0, 3)
        assert e2.ambient_radius == pytest.approx(0.5, abs=1e-12)

    def test_singleton(self):
        prof = cover_profile(np.zeros((1, 1)), 2)
        assert prof.radii() == [0.0, 0.0]

    def test_enough_centers_cover_exactly(self):
        d = line_space(0, 5, 9)
        prof = cover_profile(d, 5)
        assert prof.entries[2].radius == 0.0
        assert prof.entries[4].radius == 0.0

    def test_two_clusters(self):
        d = line_space(0.0, 0.2, 10.0, 10.3)
        prof = cover_profile(d, 2)
        # one center must serve both clusters at k=1
        assert prof.entries[0].radius == pytest.approx(10.3)
        # at k=2 each cluster gets a center
        assert prof.entries[1].radius == pytest.approx(0.3)

    def test_accepts_metric_space_object(self):
        sp = FiniteMetricSpace(coords=[[0.0], [1.0], [2.0]])
        prof = cover_profile(sp, 2)
        assert prof.radii() == [2.0, 1.0]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k_max"):
            cover_profile(np.zeros((2, 2)), 0)

    @given(small_cloud())
    @settings(max_examples=60)
    def test_profiles_are_nonincreasing(self, d):
        prof = cover_profile(d, 5)
        r, p = prof.radii(), prof.packings()
        for a, b in zip(r, r[1:]):
            assert b <= a + 1e-12
        for a, b in zip(p, p[1:]):
            assert b <= a + 1e-12

    @given(small_cloud(max_points=10))
    @settings(max_examples=50)
    def test_sandwiches_exact_optimum(self, d):
        for k in range(1, 4):
            prof = cover_profile(d, k)
            entry = prof.entries[k - 1]
            opt, _ = exact_kcenter(d, k)
            assert entry.packing <= opt + 1e-9
            assert opt <= entry.radius + 1e-9
            assert entry.radius <= 2 * opt + 1e-9

    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.floats(0, 10)), min_size=2, max_size=9
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=40)
    def test_ambient_never_exceeds_restricted(self, pts, k):
        arr = np.asarray(pts, dtype=float)
        d = np.sqrt(((arr[:, None] - arr[None]) ** 2).sum(-1))
        prof = cover_profile(d, k, coords=arr)
        for entry in prof.entries:
            assert entry.ambient_radius is not None
            assert entry.ambient_radius <= entry.radius + 1e-12
        ambients = [e.ambient_radius for e in prof.entries]
        for a, b in zip(ambients, ambients[1:]):
            assert b <= a + 1e-12
        no_coords = cover_profile(d, k)
        assert no_coords.entries[-1].ambient_radius is None

    def test_ambient_uses_cluster_centers(self):
        coords = [[0.0], [1.0], [9.0], [10.0]]
        prof = cover_profile(line_space(0, 1, 9, 10), 2, coords=coords)
        assert prof.entries[1].ambient_radius == pytest.approx(0.5, abs=1e-12)
        assert prof.entries[1].ambient_radius <= prof.entries[1].radius

    @pytest.mark.parametrize("dim, n, k_max", [(1, 30, 6), (2, 50, 8), (8, 300, 6), (16, 80, 4)])
    @pytest.mark.parametrize("spacing", [None, 1.0])
    def test_one_ball_batch_matches_single_balls(self, dim, n, k_max, spacing, monkeypatch):
        # every cluster of every k in one padded batch, bit for bit the
        # balls of one call per cluster; a coarse lattice gives duplicates
        coords = np.random.default_rng([dim, n]).standard_normal((n, dim))
        if spacing is not None:
            coords = np.round(coords / spacing) * spacing
        d = FiniteMetricSpace(coords=coords).dist
        calls = []
        batch = cover_module.ragged_chebyshev_centers
        monkeypatch.setattr(
            cover_module, "ragged_chebyshev_centers", lambda *a: calls.append(1) or batch(*a)
        )
        got = [e.ambient_radius for e in cover_profile(d, k_max, coords=coords).entries]
        assert calls == [1]
        assert got == ambient_by_single_balls(d, coords, k_max)

    def test_empty_clusters_keep_their_pick(self):
        # three equal points: every pick after the first is point 0 again,
        # whose cluster is empty
        coords = np.array([[1.0, 2.0]] * 3)
        d = np.zeros((3, 3))
        prof = cover_profile(d, 4, coords=coords)
        assert [e.centers for e in prof.entries] == [(0,), (0, 0), (0, 0, 0), (0, 0, 0)]
        assert [e.ambient_radius for e in prof.entries] == ambient_by_single_balls(d, coords, 4)

    def test_fixed_centers_objective_is_subset_monotone(self):
        # with the center set held fixed, a superset's worst point is at
        # least as far away as the subset's
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 10, size=(9, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        sub = d[:6][:, [0, 3]]
        full = d[:, [0, 3]]
        assert covering_radius(full) >= covering_radius(sub) - 1e-12

    def test_greedy_radius_not_monotone_under_point_addition(self):
        # re-running greedy on a superset can pick better-placed centers and
        # end with a smaller radius; the guarantee is the optimum sandwich,
        # not monotonicity of the greedy value under point addition
        d_small = np.array(
            [[0.0, 10.0, 10.0], [10.0, 0.0, 10.0], [10.0, 10.0, 0.0]]
        )
        d_big = np.array(
            [
                [0.0, 10.0, 10.0, 11.0],
                [10.0, 0.0, 10.0, 5.0],
                [10.0, 10.0, 0.0, 5.0],
                [11.0, 5.0, 5.0, 0.0],
            ]
        )
        r_small = cover_profile(d_small, 2).entries[1].radius
        r_big = cover_profile(d_big, 2).entries[1].radius
        assert r_big < r_small  # 5 < 10


class TestExactKCenter:
    def test_line_two_centers(self):
        opt, centers = exact_kcenter(line_space(0, 1, 2, 3), 2)
        assert opt == pytest.approx(1.0)
        assert centers == (0, 2)

    def test_k_at_least_n(self):
        opt, centers = exact_kcenter(line_space(0, 4), 5)
        assert opt == 0.0
        assert centers == (0, 1)

    def test_rejects_large_instance(self):
        with pytest.raises(ValueError, match="20"):
            exact_kcenter(np.zeros((21, 21)), 2)

    @given(small_cloud(max_points=8), st.integers(1, 3))
    @settings(max_examples=40)
    def test_no_center_subset_beats_it(self, d, k):
        opt, centers = exact_kcenter(d, k)
        got = covering_radius(d[:, list(centers)])
        assert got == pytest.approx(opt, abs=1e-12)


class TestCoveringRadius:
    def test_rectangular_cross_matrix(self):
        cross = np.array([[0.0, 2.0], [1.0, 0.5], [3.0, 0.1]])
        assert covering_radius(cross) == pytest.approx(0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            covering_radius(np.zeros((0, 2)))
