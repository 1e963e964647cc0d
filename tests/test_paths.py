import math
import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcompact import (
    AANet,
    PLPath,
    aa_net,
    jung_ratio,
    moduli,
    modulus,
    mu_uec_family,
    sample_walks,
    uniform_distance,
    values_at,
    verify_qaa,
    verify_qsaa,
)
from qcompact import ball as ball_module
from qcompact import paths as paths_module
from qcompact.cli import main
from qcompact.paths import _pair_distances, _window_balls, _window_grid, _window_values

from oracles import (
    dense_modulus,
    dense_uniform_distance,
    modulus_per_knot,
    modulus_per_path,
    path_at,
    uniform_distance_per_pair,
    window_balls_per_window,
    window_values_per_path,
)


def ramp(s, h, n_dim=1):
    """clamp((t - s)/h, 0, 1) as a PL path, optionally embedded in R^n."""
    knots = sorted({0.0, s, min(s + h, 1.0), 1.0})
    vals = [min(max((t - s) / h, 0.0), 1.0) for t in knots]
    values = [[v] + [0.0] * (n_dim - 1) for v in vals]
    return PLPath(knots, values)


@st.composite
def pl_path(draw, n_dim=1, max_knots=6, lo=-3.0, hi=3.0):
    k = draw(st.integers(min_value=0, max_value=max_knots - 2))
    inner = draw(
        st.lists(
            st.integers(1, 99), min_size=k, max_size=k, unique=True
        )
    )
    knots = [0.0] + sorted(x / 100 for x in inner) + [1.0]
    values = draw(
        st.lists(
            st.lists(st.floats(lo, hi), min_size=n_dim, max_size=n_dim),
            min_size=len(knots),
            max_size=len(knots),
        )
    )
    return PLPath(knots, values)


class TestPLPath:
    def test_evaluation_interpolates(self):
        p = PLPath([0.0, 0.5, 1.0], [[0.0], [1.0], [0.0]])
        assert p.at(0.25) == pytest.approx([0.5])
        assert p.at(0.75) == pytest.approx([0.5])
        assert p.sup_norm == 1.0

    def test_constant_constructor(self):
        p = PLPath.constant([2.0, -1.0])
        assert p.n_dim == 2
        assert p.sup_norm == pytest.approx(math.sqrt(5.0))

    def test_rejects_bad_knots(self):
        with pytest.raises(ValueError, match="row per knot"):
            PLPath([0.0, 0.5], [[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="start at 0"):
            PLPath([0.1, 1.0], [[0.0], [1.0]])
        with pytest.raises(ValueError, match="increasing"):
            PLPath([0.0, 0.5, 0.5, 1.0], [[0.0]] * 4)

    def test_keeps_only_frozen_knots_it_owns(self):
        """A read-only float64 array that owns its data is shared; a
        writeable array, a read-only view (whose base can change) and a
        list are copied, and every path's arrays stay read-only."""
        frozen = np.linspace(0.0, 1.0, 5).copy()
        frozen.setflags(write=False)
        writeable = np.linspace(0.0, 1.0, 5).copy()
        base = np.linspace(0.0, 1.0, 5).copy()
        view = base[:]
        view.setflags(write=False)
        values = np.zeros((5, 1))
        assert PLPath(frozen, values).knots is frozen
        paths = [PLPath(k, values) for k in (writeable, view, frozen.tolist(), frozen[::1])]
        for path in paths:
            assert path.knots is not frozen and path.knots.base is None
            assert not path.knots.flags.writeable and not path.values.flags.writeable
        writeable[1] = base[1] = 0.125
        assert paths[0].knots[1] == paths[1].knots[1] == 0.25

    def test_immutable(self):
        path = PLPath([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(AttributeError, match="immutable"):
            path.knots = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            path.knots[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            path.values[0, 0] = 0.5

    def test_from_dict_strict(self):
        p = PLPath.from_dict({"knots": [0.0, 1.0], "values": [[1.0], [2.0]]})
        assert p.n_dim == 1
        with pytest.raises(ValueError, match="unknown field"):
            PLPath.from_dict({"knots": [0, 1], "values": [[0], [0]], "x": 1})


class TestUniformDistance:
    def test_identical(self):
        p = PLPath([0.0, 1.0], [[0.0], [2.0]])
        assert uniform_distance(p, p) == 0.0

    def test_crossing_ramps(self):
        x = PLPath([0.0, 1.0], [[0.0], [1.0]])
        y = PLPath([0.0, 1.0], [[1.0], [0.0]])
        assert uniform_distance(x, y) == pytest.approx(1.0, abs=1e-15)

    def test_constant_offset(self):
        x = PLPath([0.0, 1.0], [[0.0], [0.0]])
        y = PLPath([0.0, 1.0], [[-2.5], [-2.5]])
        assert uniform_distance(x, y) == 2.5

    @given(pl_path(), pl_path())
    @settings(max_examples=50)
    def test_matches_dense_oracle(self, x, y):
        exact = uniform_distance(x, y)
        approx = dense_uniform_distance(x.knots, x.values, y.knots, y.values)
        assert exact >= approx - 1e-12
        assert exact == pytest.approx(approx, abs=1e-3)

    @given(pl_path(), pl_path(), pl_path())
    @settings(max_examples=50)
    def test_metric_axioms(self, x, y, z):
        assert uniform_distance(x, y) == uniform_distance(y, x)
        assert uniform_distance(x, z) <= (
            uniform_distance(x, y) + uniform_distance(y, z) + 1e-12
        )


class TestModulus:
    def test_unit_slope(self):
        p = PLPath([0.0, 1.0], [[0.0], [1.0]])
        assert modulus(p, 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_sawtooth(self):
        p = PLPath([0.0, 0.5, 1.0], [[0.0], [1.0], [0.0]])
        assert modulus(p, 0.2) == pytest.approx(0.4, abs=1e-15)

    def test_constant(self):
        p = PLPath([0.0, 1.0], [[3.0], [3.0]])
        assert modulus(p, 0.7) == 0.0

    def test_rejects_nonpositive_delta(self):
        p = PLPath([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(ValueError, match="delta"):
            modulus(p, 0.0)

    @given(pl_path(n_dim=2), st.floats(0.05, 1.0))
    @settings(max_examples=50)
    def test_dominates_dense_oracle(self, x, delta):
        exact = modulus(x, delta)
        approx = dense_modulus(x.knots, x.values, delta)
        assert exact >= approx - 1e-12
        assert exact == pytest.approx(approx, abs=2e-2)

    @given(pl_path(), st.floats(0.05, 0.5), st.floats(0.0, 0.5))
    @settings(max_examples=50)
    def test_nondecreasing_in_delta(self, x, delta, bump):
        assert modulus(x, delta) <= modulus(x, delta + bump) + 1e-12

    @given(pl_path(n_dim=2), st.floats(0.05, 2.0))
    @settings(max_examples=50)
    def test_bounded_by_twice_sup_norm(self, x, delta):
        assert modulus(x, delta) <= 2 * x.sup_norm + 1e-12

    @given(st.floats(-4, 4), st.floats(0.01, 0.9))
    def test_affine_slope_rule(self, v, delta):
        p = PLPath([0.0, 1.0], [[0.0], [v]])
        assert modulus(p, delta) == pytest.approx(abs(v) * delta, abs=1e-12)

    @given(
        st.integers(1, 3).flatmap(lambda d: pl_path(n_dim=d, max_knots=24)),
        st.floats(1e-3, 1.5),
    )
    @settings(max_examples=80)
    def test_matches_per_knot_loop_bit_for_bit(self, x, delta):
        assert modulus(x, delta) == modulus_per_knot(x, delta)

    @pytest.mark.parametrize("delta", [1e-4, 0.01, 1 / 64, 0.05, 0.3, 1.0, 2.0])
    def test_walks_match_per_knot_loop_bit_for_bit(self, delta):
        for x in sample_walks(64, 30, seed=5).paths:
            assert modulus(x, delta) == modulus_per_knot(x, delta)


class TestMuUecFamily:
    def test_constants(self):
        fam = [PLPath([0.0, 1.0], [[c], [c]]) for c in (0.0, 1.0, -2.0)]
        assert mu_uec_family(fam, 0.3) == 0.0

    def test_takes_family_max(self):
        slope1 = PLPath([0.0, 1.0], [[0.0], [1.0]])
        slope2 = PLPath([0.0, 1.0], [[0.0], [2.0]])
        assert mu_uec_family([slope1, slope2], 0.1) == pytest.approx(0.2, abs=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            mu_uec_family([], 0.1)


KNOT_GRIDS = st.lists(st.integers(1, 99), max_size=8, unique=True).map(
    lambda inner: [0.0, *sorted(k / 100 for k in inner), 1.0]
) | st.lists(st.floats(0.001, 0.999), max_size=8, unique=True).map(
    lambda inner: [0.0, *sorted(inner), 1.0]
)
PATH_VALUES = st.floats(-3, 3) | st.sampled_from([0.0, -0.0])


@st.composite
def mixed_grid_family(draw, n_dim=None):
    """Paths on two or three knot grids, in mixed order: each grid but the
    last is shared by one to three paths, the last belongs to one path."""
    if n_dim is None:
        n_dim = draw(st.sampled_from([1, 2, 3]))
    grids = draw(st.lists(KNOT_GRIDS, min_size=2, max_size=3, unique_by=tuple))
    uses = [g for g in grids[:-1] for _ in range(draw(st.integers(1, 3)))] + [grids[-1]]
    family = []
    for knots in draw(st.permutations(uses)):
        row = st.lists(PATH_VALUES, min_size=n_dim, max_size=n_dim)
        family.append(PLPath(knots, draw(st.lists(row, min_size=len(knots), max_size=len(knots)))))
    return family


@st.composite
def critical_delta(draw, family):
    """A window width where the candidate times change: a gap between two
    knots of a path, one ulp either side of it, or a width that takes a knot
    to within a few ulps of 0 or 1."""
    t = draw(st.sampled_from(family)).knots
    a = draw(st.integers(0, t.size - 2))
    b = draw(st.integers(a + 1, t.size - 1))
    delta = draw(st.sampled_from([t[b] - t[a], 1.0 - t[a], t[b], 0.05, 0.3]))
    nudge = draw(st.sampled_from([0.0, math.inf, -math.inf, 5e-16, -5e-16]))
    delta = float(np.nextafter(delta, nudge) if math.isinf(nudge) else delta + nudge)
    assume(delta > 0.0)
    return delta


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


#: working-array budgets that cut a small family into one-path chunks, into
#: a few paths a chunk, and not at all
BUDGETS = st.sampled_from([1, 5, 64, paths_module.BATCH_ELEMENTS])


class TestBatchedKernelsMatchOnePathOracles:
    """Each kernel, run on a family that mixes knot grids, gives every path
    the bits of the one-path reference in ``oracles.py``, whatever the chunks."""

    @given(mixed_grid_family(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6), BUDGETS)
    @settings(max_examples=80, deadline=None)
    def test_evaluation(self, family, times, budget):
        times = np.array(times + [0.0, 1.0] + list(family[-1].knots))
        with mock.patch.object(paths_module, "BATCH_ELEMENTS", budget):
            stacked = values_at(family, times)
        for x, got in zip(family, stacked, strict=True):
            want = path_at(x, times)
            assert same_bits(got, want) and same_bits(x.at(times), want)

    @given(mixed_grid_family().flatmap(lambda f: st.tuples(
        st.just(f), st.lists(critical_delta(f), min_size=1, max_size=3))), BUDGETS)
    @settings(max_examples=150, deadline=None)
    def test_moduli(self, family_deltas, budget):
        family, deltas = family_deltas
        with mock.patch.object(paths_module, "BATCH_ELEMENTS", budget):
            table = moduli(family, deltas)
        want = [[modulus_per_path(x, d) for d in deltas] for x in family]
        assert same_bits(table, want)
        assert same_bits([modulus(x, deltas[0]) for x in family], [w[0] for w in want])

    @given(mixed_grid_family().flatmap(lambda f: st.tuples(st.just(f), st.permutations(f))), BUDGETS)
    @settings(max_examples=80, deadline=None)
    def test_uniform_distances(self, family_pairs, budget):
        xs, ys = family_pairs
        with mock.patch.object(paths_module, "BATCH_ELEMENTS", budget):
            got = _pair_distances(xs, ys)
        want = [uniform_distance_per_pair(x, y) for x, y in zip(xs, ys)]
        assert same_bits(got, want)
        assert same_bits([uniform_distance(x, y) for x, y in zip(xs, ys)], want)

    @given(mixed_grid_family(), st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.7, 1.0]), BUDGETS)
    @settings(max_examples=80, deadline=None)
    def test_window_values(self, family, delta, budget):
        lo, hi = np.array(_window_grid(delta)[1]).T
        with mock.patch.object(paths_module, "BATCH_ELEMENTS", budget):
            values, sizes = _window_values(family, lo, hi)
        want = [window_values_per_path(x, lo, hi) for x in family]
        assert same_bits(values, np.concatenate([v for v, _ in want]))
        assert same_bits(sizes, np.stack([n for _, n in want]))

    @given(mixed_grid_family(n_dim=1), st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.7, 1.0]), BUDGETS)
    @settings(max_examples=80, deadline=None)
    def test_window_balls_1d(self, family, delta, budget):
        windows = _window_grid(delta)[1]
        with mock.patch.object(paths_module, "BATCH_ELEMENTS", budget):
            centers, radii = _window_balls(family, *np.array(windows).T)
        # the bits of one chebyshev_center call per window, signed zeros too
        want_c, want_r = window_balls_per_window(family, windows)
        assert same_bits(centers, want_c)
        assert same_bits(radii, want_r)


class TestBatchedWorkAndMemory:
    def test_sandwiches_never_build_grid_points(self, monkeypatch, tmp_path):
        reads = []
        monkeypatch.setattr(AANet, "grid_points", property(lambda net: reads.append(net)))
        family = random_family(np.random.default_rng(3), 2, 8)
        verify_qaa(family, [0.1, 0.3], max(x.sup_norm for x in family), 0.05)
        walks = [sample_walks(16, 10, seed=s) for s in (1, 2)]
        verify_qsaa(walks, [1.0], [0.5], [0.1], [2.0], 0.1)
        assert reads == []
        # the aa-net report is where they are read (its golden file holds them)
        inputs = pathlib.Path(__file__).parent / "golden" / "inputs"
        argv = ["aa-net", str(inputs / "family.json"), "--delta", "0.25", "--alpha", "0.5",
                "--bound-m", "2", "--eps", "0.2", "--out", str(tmp_path / "net.json")]
        assert main(argv) == 0
        assert len(reads) == 1

    def test_long_paths_hold_a_fixed_memory_budget(self):
        """aa_net on 400 paths of 1000 knots at delta = 0.5, some 500k
        candidate time pairs a path, takes its moduli and net distances in
        chunks: its traced peak stays under 2 MiB, under twice its peak on
        one of the paths, and under one path's peak in the one-path modulus."""
        rng = np.random.default_rng(11)
        knots = np.linspace(0.0, 1.0, 1000)
        steps = rng.standard_normal((400, 1000, 1)) / math.sqrt(1000.0)
        family = [PLPath(knots, np.cumsum(s, axis=0)) for s in steps]
        bound_m = max(x.sup_norm for x in family)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def net(paths):
            return lambda: aa_net(paths, 0.5, 2.0 * bound_m, bound_m, 0.05)

        net(family[:1])()
        one = peak(net(family[:1]))
        many = peak(net(family))
        per_path = peak(lambda: modulus_per_path(family[0], 0.5))
        assert many < 2 * 2**20
        assert many < 2 * one
        assert many < per_path


class TestBridgeLemmas:
    """Linear interpolation between ball centers stays in the balls."""

    @given(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(0.0, 2.0), st.floats(0, 1)
    )
    @settings(max_examples=80)
    def test_bridge_stays_within_common_radius(self, c1, c2, r, frac):
        # pick y in the intersection of the two closed r-balls when nonempty
        if abs(c1 - c2) > 2 * r:
            return
        y = (c1 + c2) / 2.0
        if abs(c1 - y) > r or abs(c2 - y) > r:
            return
        bridge = PLPath([0.0, 1.0], [[c1], [c2]])
        const = PLPath([0.0, 1.0], [[y], [y]])
        assert uniform_distance(bridge, const) <= r + 1e-12

    @given(
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=80)
    def test_parallel_bridges_stay_close(self, ends, perturb, eps):
        c1, c2 = ends
        d1, d2 = perturb
        y1 = c1 + max(min(d1, eps), -eps)
        y2 = c2 + max(min(d2, eps), -eps)
        L = PLPath([0.0, 1.0], [[c1], [c2]])
        M = PLPath([0.0, 1.0], [[y1], [y2]])
        assert uniform_distance(L, M) <= eps + 1e-12


class TestWindowBalls1D:
    """The batched 1-D pass must give the solver's floats, window by window."""

    def assert_same_as_solver(self, x, delta):
        _, windows = _window_grid(delta)
        got_c, got_r = (a[0] for a in _window_balls([x], *np.array(windows).T))
        want_c, want_r = (a[0] for a in window_balls_per_window([x], windows))
        assert np.array_equal(got_c, want_c) and np.array_equal(got_r, want_r)
        # signed zeros too
        assert np.array_equal(np.signbit(got_c), np.signbit(want_c))

    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.3, 1.0])
    def test_sampled_walks(self, delta):
        for x in sample_walks(64, 20, seed=7).paths:
            self.assert_same_as_solver(x, delta)

    @given(
        st.lists(st.floats(0.001, 0.999), min_size=0, max_size=12, unique=True),
        st.lists(st.integers(-3, 3), min_size=14, max_size=14),
        st.sampled_from([0.02, 0.1, 0.25, 0.7]),
    )
    @settings(max_examples=60)
    def test_irregular_knots(self, inner, levels, delta):
        knots = np.array([0.0] + sorted(inner) + [1.0])
        values = np.array(levels[: knots.size], dtype=float) / 3.0
        self.assert_same_as_solver(PLPath(knots, values), delta)

    def test_windows_without_inner_knots(self):
        x = PLPath([0.0, 0.5, 0.51, 1.0], [[0.3], [-0.2], [0.1], [0.25]])
        _, windows = _window_grid(0.05)
        empty = [
            lo for lo, hi in windows
            if not ((x.knots >= lo) & (x.knots <= hi)).any()
        ]
        assert empty
        self.assert_same_as_solver(x, 0.05)

    @pytest.mark.parametrize("values", [[-0.0, -0.0, 0.0], [0.0, -0.0, -0.0]])
    def test_constant_windows_keep_the_sign_of_zero(self, values):
        self.assert_same_as_solver(PLPath([0.0, 0.5, 1.0], values), 0.1)


class TestAANet:
    def test_constant_family(self):
        fam = [PLPath([0.0, 1.0], [[c], [c]]) for c in (0.0, 0.5, -0.9)]
        net = aa_net(fam, 0.3, 0.0, 1.0, 0.02)
        assert net.covering_achieved <= 0.02 + 1e-12
        for s in net.per_sample:
            assert s.achieved <= s.bound + 1e-12

    def test_unit_ramp_certified(self):
        fam = [PLPath([0.0, 1.0], [[0.0], [1.0]])]
        net = aa_net(fam, 0.2, 0.2, 1.0, 0.01)
        bound = math.sqrt(1.0 / 4.0) * 0.2 + 0.01
        assert net.certified_bound == pytest.approx(bound, abs=1e-12)
        assert net.sampling_slack == 0.0
        assert net.covering_achieved <= bound + 1e-12
        # the certified bound is checked against the exact distance oracle
        for s, x in zip(net.per_sample, fam):
            d = uniform_distance(net.members[s.member_index], x)
            assert d == pytest.approx(s.achieved, abs=1e-12)

    def test_members_share_one_knot_array(self):
        family = [PLPath(np.linspace(0.0, 1.0, 9), np.sin(np.arange(9.0) * c)[:, None])
                  for c in (0.3, 0.7, 1.1, -0.5)]
        net = aa_net(family, 0.2, mu_uec_family(family, 0.2), 1.0, 0.05)
        assert len(net.members) > 1
        assert all(m.knots is net.grid_times for m in net.members)
        assert not net.grid_times.flags.writeable

    def test_windows_narrower_than_delta(self):
        fam = [PLPath([0.0, 1.0], [[0.0], [1.0]])]
        net = aa_net(fam, 0.17, 0.17, 1.0, 0.05)
        for lo, hi in net.windows:
            assert hi - lo < 0.17

    def test_members_sit_on_snap_lattice(self):
        fam = [PLPath([0.0, 0.33, 1.0], [[0.1], [0.9], [-0.4]])]
        net = aa_net(fam, 0.4, mu_uec_family(fam, 0.4), 1.0, 0.05)
        for member in net.members:
            steps = np.asarray(member.values) / net.pitch
            assert np.allclose(steps, np.round(steps), atol=1e-6)

    def test_rejects_unbounded_path_with_index(self):
        fam = [
            PLPath([0.0, 1.0], [[0.0], [0.0]]),
            PLPath([0.0, 1.0], [[0.0], [5.0]]),
        ]
        with pytest.raises(ValueError, match="path 1"):
            aa_net(fam, 0.2, 0.5, 1.0, 0.01)

    def test_rejects_oscillation_above_alpha(self):
        fam = [PLPath([0.0, 1.0], [[0.0], [1.0]])]
        with pytest.raises(ValueError, match="path 0"):
            aa_net(fam, 0.5, 0.1, 1.0, 0.01)

    def test_rejects_alpha_above_twice_bound(self):
        fam = [PLPath([0.0, 1.0], [[0.0], [0.1]])]
        with pytest.raises(ValueError, match="twice"):
            aa_net(fam, 0.2, 2.5, 1.0, 0.01)

    @given(
        st.lists(pl_path(n_dim=2, lo=-1.0, hi=1.0), min_size=1, max_size=3),
        st.sampled_from([0.15, 0.3, 0.6]),
    )
    @settings(max_examples=25, deadline=None)
    def test_certificate_holds_on_random_families(self, fam, delta):
        alpha = mu_uec_family(fam, delta)
        bound_m = max(x.sup_norm for x in fam) + 1e-9
        net = aa_net(fam, delta, alpha, max(bound_m, 1e-6), 0.05)
        limit = jung_ratio(2) * alpha + 0.05
        for s in net.per_sample:
            assert s.achieved <= limit + 1e-9


def random_family(rng, n_dim, n_paths, max_inner=12):
    """Random-walk paths in R^n_dim on irregular knots, one grid per path."""
    family = []
    for _ in range(n_paths):
        inner = np.sort(rng.choice(np.arange(1, 100), rng.integers(0, max_inner), replace=False))
        knots = np.concatenate([[0.0], inner / 100.0, [1.0]])
        steps = rng.standard_normal((knots.size, n_dim)) / 4.0
        family.append(PLPath(knots, np.cumsum(steps, axis=0)))
    return family


class TestBatchedWindowBalls:
    """``aa_net`` solves its windows with the batched ball solver; its nets
    are those of one ``chebyshev_center`` call per window."""

    @staticmethod
    def assert_same_net(family, delta):
        alpha = mu_uec_family(family, delta)
        bound_m = max(x.sup_norm for x in family)
        net = aa_net(family, delta, alpha, bound_m, 0.05)
        with mock.patch.object(paths_module, "_family_window_balls", window_balls_per_window):
            want = aa_net(family, delta, alpha, bound_m, 0.05)
        assert len(net.members) == len(want.members)
        for got_m, want_m in zip(net.members, want.members):
            assert np.array_equal(got_m.knots, want_m.knots)
            assert np.array_equal(got_m.values, want_m.values)
        for got, exp in zip(net.per_sample, want.per_sample, strict=True):
            assert (got.member_index, got.achieved, got.bound) == (
                exp.member_index, exp.achieved, exp.bound
            )
            assert got.window_radii_max == exp.window_radii_max

    @pytest.mark.parametrize("n_dim", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("delta", [0.05, 0.2, 0.5])
    def test_random_families_match_per_window_solver(self, n_dim, seed, delta):
        rng = np.random.default_rng([n_dim, seed])
        self.assert_same_net(random_family(rng, n_dim, 15), delta)

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
    def test_shared_knots_match_per_window_solver(self, delta):
        # the points family's layout: one knot grid for every member, and
        # windows that start or end on a knot, whose value then appears once
        rng = np.random.default_rng(17)
        steps = rng.standard_normal((20, 32, 3)) / np.sqrt(32.0)
        values = np.concatenate([np.zeros((20, 1, 3)), np.cumsum(steps, axis=1)], axis=1)
        knots = np.linspace(0.0, 1.0, 33)
        self.assert_same_net([PLPath(knots, v) for v in values], delta)

    def test_verify_qaa_makes_no_scalar_ball_calls(self, monkeypatch):
        calls = []
        scalar = ball_module.chebyshev_center

        def counted(points):
            calls.append(1)
            return scalar(points)

        monkeypatch.setattr(ball_module, "chebyshev_center", counted)
        family = random_family(np.random.default_rng(3), 3, 12)
        grid = [0.05, 0.1, 0.2]
        bound_m = max(x.sup_norm for x in family)
        assert verify_qaa(family, grid, bound_m, 0.05).status == "verified"
        assert calls == []


class TestVerifyQAA:
    def test_constant_family_verifies(self):
        fam = [PLPath([0.0, 1.0], [[c], [c]]) for c in (0.0, 0.7)]
        report = verify_qaa(fam, [0.1, 0.3], 1.0, 0.02)
        assert report.status == "verified"
        for row in report.rows:
            assert row.upper_ok
            assert row.covering <= 0.02 + 1e-12
            for low in row.lower_rows:
                assert low.ok

    def test_ramp_family_half_factor(self):
        # steep ramps: oscillation defect 1 beyond the ramp width, while a
        # one-dimensional net can cover at radius about 1/2
        fam = [ramp(s, 0.01) for s in np.arange(0.0, 1.0, 0.005)]
        report = verify_qaa(fam, [0.05], 1.0, 0.005)
        row = report.rows[0]
        assert report.status == "verified"
        assert row.alpha == pytest.approx(1.0, abs=1e-12)
        assert abs(row.covering - 0.5) <= 0.05

    def test_planar_embedding_uses_planar_constant(self):
        fam = [ramp(s, 0.01, n_dim=2) for s in np.arange(0.0, 1.0, 0.02)]
        report = verify_qaa(fam, [0.05], 1.0, 0.01)
        row = report.rows[0]
        assert report.status == "verified"
        assert row.bound == pytest.approx(
            math.sqrt(2.0 / 6.0) * row.alpha + 0.01, abs=1e-12
        )
        assert row.covering <= row.bound + 1e-12

    def test_one_moduli_call_per_family(self, monkeypatch):
        # one call for the family and one per net, each over the whole
        # grid; its defects are those of one call per width
        calls = []
        batch = paths_module.moduli

        def counted(family, deltas):
            calls.append(len(deltas))
            return batch(family, deltas)

        family = random_family(np.random.default_rng(5), 3, 12)
        grid = [0.05, 0.1, 0.2]
        bound_m = max(x.sup_norm for x in family)
        with monkeypatch.context() as m:
            m.setattr(paths_module, "moduli", counted)
            report = verify_qaa(family, grid, bound_m, 0.05)
        # aa_net checks the family's oscillation at its own width
        assert calls == [3] + [1, 3] * 3
        for row in report.rows:
            net = aa_net(family, row.delta, row.alpha, bound_m, 0.05)
            for lower, dp in zip(row.lower_rows, grid, strict=True):
                assert lower.family_defect == mu_uec_family(family, dp)
                assert lower.net_defect == mu_uec_family(net.members, dp)
