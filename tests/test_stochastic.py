import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompact import (
    DiscreteMeasure,
    FiniteMetricSpace,
    PathEnsemble,
    PLPath,
    aa_net,
    modulus,
    mu_sub_hat,
    mu_suec_hat,
    path_distances,
    path_metric_space,
    path_prokhorov,
    prokhorov_sweep,
    sample_walks,
    uniform_distance,
    verify_qsaa,
)
from qcompact import prokhorov as prokhorov_module
from qcompact import stochastic as stochastic_module
from qcompact.serialize import to_jsonable
from qcompact.stochastic import PATH_TILE

from oracles import path_metric_per_row, prokhorov_sweep_bisect


def const(c):
    return PLPath.constant([c])


def ramp_to(v, width=1.0):
    """0 -> v over [0, width], then flat."""
    if width >= 1.0:
        return PLPath([0.0, 1.0], [[0.0], [v]])
    return PLPath([0.0, width, 1.0], [[0.0], [v], [v]])


def spike(center, width=0.01):
    """Unit-height tent supported on [center - width/2, center + width/2]."""
    lo, hi = center - width / 2, center + width / 2
    knots = sorted({0.0, lo, center, hi, 1.0})
    vals = [[1.0] if t == center else [0.0] for t in knots]
    return PLPath(knots, vals)


def spike_family(p=0.2, K=5, width=0.01):
    flat = const(0.0)
    out = []
    for k in range(1, K + 1):
        out.append(
            PathEnsemble([flat, spike(k / (K + 1), width)], [1 - p, p])
        )
    return out


@st.composite
def small_ensemble(draw, max_paths=4):
    n = draw(st.integers(1, max_paths))
    paths = []
    for _ in range(n):
        k = draw(st.integers(0, 2))
        inner = sorted(
            draw(st.lists(st.integers(1, 9), min_size=k, max_size=k, unique=True))
        )
        knots = [0.0] + [x / 10 for x in inner] + [1.0]
        vals = draw(
            st.lists(
                st.lists(st.floats(-2, 2), min_size=1, max_size=1),
                min_size=len(knots),
                max_size=len(knots),
            )
        )
        paths.append(PLPath(knots, vals))
    w = np.asarray(draw(st.lists(st.floats(0.05, 1), min_size=n, max_size=n)))
    return PathEnsemble(paths, w / w.sum())


class TestPathEnsemble:
    def test_uniform_default_weights(self):
        e = PathEnsemble([const(0.0), const(1.0)])
        assert np.allclose(e.weights, [0.5, 0.5])

    def test_accepts_and_renormalizes_weight_sum_within_mass_sum_tol(self):
        e = PathEnsemble([const(0.0), const(1.0)], [0.5, 0.5 + 1e-10])
        assert e.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert e.weights[1] > e.weights[0]

    def test_rejects_weight_sum_off_by_more_than_mass_sum_tol(self):
        with pytest.raises(ValueError, match="sum"):
            PathEnsemble([const(0.0), const(1.0)], [0.5, 0.5 + 1e-8])

    def test_rejects_a_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PathEnsemble([const(0.0), const(1.0)], [1.1, -0.1])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            PathEnsemble([const(0.0), PLPath.constant([0.0, 0.0])])

    def test_from_dict_strict(self):
        e = PathEnsemble.from_dict(
            {
                "paths": [{"knots": [0.0, 1.0], "values": [[0.0], [1.0]]}],
                "weights": [1.0],
            }
        )
        assert e.n_paths == 1
        with pytest.raises(ValueError, match="unknown field"):
            PathEnsemble.from_dict({"paths": [], "extra": 1})


class TestMuSubHat:
    def test_bounded_constants_vanish(self):
        xi = [PathEnsemble([const(0.3), const(-1.0)], [0.5, 0.5])]
        out = mu_sub_hat(xi, [1.0])
        assert out.value == 0.0

    def test_two_norm_levels(self):
        xi = [PathEnsemble([ramp_to(0.5), ramp_to(5.0)], [0.9, 0.1])]
        out = mu_sub_hat(xi, [1.0])
        assert out.value == 0.0
        assert out.m_star == 5.0
        at_one = out.defects[out.m_grid.index(1.0)]
        assert at_one == pytest.approx(0.1, abs=1e-15)

    def test_max_norm_gives_zero_tail(self):
        xi = [PathEnsemble([ramp_to(2.0), ramp_to(-3.0)])]
        out = mu_sub_hat(xi, [3.0])
        assert out.defects[out.m_grid.index(3.0)] == 0.0

    def test_rejects_nonpositive_levels(self):
        with pytest.raises(ValueError, match="positive"):
            mu_sub_hat([PathEnsemble([const(0.0)])], [0.0, 1.0])

    @given(small_ensemble(), st.lists(st.floats(0.1, 3), min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_refining_grid_never_increases(self, e, extra):
        base = mu_sub_hat([e], [1.0])
        refined = mu_sub_hat([e], sorted(set([1.0] + list(extra))))
        assert refined.value <= base.value + 1e-15


class TestMuSuecHat:
    def test_constants_vanish(self):
        xi = [PathEnsemble([const(0.0), const(4.0)], [0.5, 0.5])]
        out = mu_suec_hat(xi, [0.1, 1.0], [0.25])
        assert out.value == 0.0

    def test_slope_mixture_table(self):
        xi = [PathEnsemble([ramp_to(1.0), ramp_to(1.0, 0.01)], [0.7, 0.3])]
        out = mu_suec_hat(xi, [0.5], [0.001, 0.1])
        i = out.eps_grid.index(0.5)
        assert out.table[i][out.delta_grid.index(0.001)] == 0.0
        assert out.table[i][out.delta_grid.index(0.1)] == pytest.approx(0.3)
        assert out.value == 0.0  # min over delta at eps=0.5 is 0

    def test_eps_above_twice_norm_vanishes(self):
        xi = [PathEnsemble([ramp_to(1.0)])]
        out = mu_suec_hat(xi, [2.5], [0.01, 0.5, 1.0])
        assert out.value == 0.0

    @given(small_ensemble(), st.lists(st.floats(0.02, 1), min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_refining_delta_grid_never_increases(self, e, extra):
        base = mu_suec_hat([e], [0.5], [0.3])
        refined = mu_suec_hat([e], [0.5], sorted(set([0.3] + list(extra))))
        assert refined.value <= base.value + 1e-15


class TestPathProkhorov:
    def test_identical_ensembles(self):
        e = PathEnsemble([const(0.0), ramp_to(1.0)], [0.4, 0.6])
        assert path_prokhorov(e, e, 1.0) == 0.0

    def test_dirac_pair_formula(self):
        for D, lam in [(0.5, 1.0), (3.0, 1.0), (3.0, 6.0)]:
            a = PathEnsemble([const(0.0)])
            b = PathEnsemble([const(D)])
            assert path_prokhorov(a, b, lam) == pytest.approx(
                min(D / lam, 1.0), abs=1e-12
            )

    def test_mixture_vs_component(self):
        a, b = const(0.0), const(10.0)
        xi = PathEnsemble([a])
        eta = PathEnsemble([a, b], [0.5, 0.5])
        assert path_prokhorov(xi, eta, 1.0) == pytest.approx(0.5, abs=1e-12)

    @given(small_ensemble(), small_ensemble())
    @settings(max_examples=30, deadline=None)
    def test_lambda_monotone(self, e1, e2):
        vals = [path_prokhorov(e1, e2, lam) for lam in (0.5, 1.0, 2.0)]
        assert vals[1] <= vals[0] + 1e-9
        assert vals[2] <= vals[1] + 1e-9

    @given(small_ensemble(), small_ensemble(), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_mixture_bound(self, mu, nu, p):
        if mu.n_dim != nu.n_dim:
            return
        paths = list(mu.paths) + list(nu.paths)
        weights = np.concatenate([(1 - p) * mu.weights, p * nu.weights])
        mixed = PathEnsemble(paths, weights / weights.sum())
        assert path_prokhorov(mixed, mu, 1.0) <= p + 1e-9

    def test_metric_space_distances_are_exact(self):
        paths = [const(0.0), ramp_to(1.0), spike(0.5)]
        sp = path_metric_space(paths)
        for i in range(3):
            for j in range(3):
                assert sp.dist[i, j] == pytest.approx(
                    uniform_distance(paths[i], paths[j]), abs=1e-12
                )


class TestSampleWalks:
    def test_single_step_structure(self):
        e = sample_walks(1, 1, scale=2.0, seed=7)
        path = e.paths[0]
        assert list(path.knots) == [0.0, 1.0]
        assert abs(path.values[1, 0]) == pytest.approx(2.0)

    def test_seed_determinism(self):
        a = sample_walks(8, 5, scale=1.0, seed=123)
        b = sample_walks(8, 5, scale=1.0, seed=123)
        for x, y in zip(a.paths, b.paths):
            assert uniform_distance(x, y) == 0.0

    def test_zero_scale(self):
        e = sample_walks(4, 3, scale=0.0, seed=1)
        for p in e.paths:
            assert p.sup_norm == 0.0

    def test_diffusive_step_size(self):
        e = sample_walks(16, 2, scale=1.0, seed=5)
        incr = np.diff(e.paths[0].values[:, 0])
        assert np.allclose(np.abs(incr), 0.25)


class TestVerifyQsaa:
    def test_single_constant_ensemble_all_zero(self):
        xi = [PathEnsemble([const(0.2), const(0.3)], [0.5, 0.5])]
        report = verify_qsaa(
            xi, [1.0], [0.5], [0.25], [1.0], 0.05
        )
        assert report.status == "verified"
        assert report.tail.value == 0.0
        assert report.osc.value == 0.0
        for row in report.lambda_rows:
            assert row.covering <= 0.05 + 1e-12

    def test_spike_mixture_sandwich(self):
        xi = spike_family(p=0.2, K=5, width=0.01)
        report = verify_qsaa(
            xi, [0.5, 1.0, 2.0], [0.5], [0.05], [1.0], 0.01
        )
        assert report.status == "verified"
        assert report.tail.value == 0.0
        assert report.osc.value == pytest.approx(0.2, abs=1e-12)
        assert report.n_kept == 1 and report.n_discarded == 5
        for row in report.lambda_rows:
            assert row.covering == pytest.approx(0.2, abs=1e-9)
            assert row.covering <= row.guaranteed + 1e-12
        assert report.lower_ok

    def test_itemized_slacks_sum_to_guarantee(self):
        xi = spike_family()
        report = verify_qsaa(xi, [1.0], [0.5], [0.05], [1.0], 0.01)
        row = report.lambda_rows[0]
        total = row.slack_tail + row.slack_osc + row.slack_net + row.slack_eps
        assert row.guaranteed == pytest.approx(total, abs=1e-12)

    def test_walk_families_satisfy_sandwich(self):
        for n in (8, 32):
            xi = [sample_walks(n, 40, scale=1.0, seed=100 + n)]
            report = verify_qsaa(
                xi, [0.5, 1.0, 2.0], [0.25, 0.5], [0.01, 0.05], [2.0], 0.05
            )
            assert report.status in ("verified", "inconclusive")
            for row in report.lambda_rows:
                assert row.covering <= row.guaranteed + 1e-9


def random_paths(rng, n, n_dim):
    """n paths in R^n_dim on three knot grids: 9 and 17 uniform knots, and
    per-path random knots."""
    paths = []
    for i in range(n):
        if i % 3 == 2:
            knots = np.concatenate([[0.0], np.sort(rng.random(int(rng.integers(1, 12)))), [1.0]])
        else:
            knots = np.linspace(0.0, 1.0, 9 if i % 3 == 0 else 17)
        paths.append(PLPath(knots, rng.standard_normal((knots.size, n_dim))))
    return paths


#: a multiple of both sides of a tile, so that sizes around it end tiles
#: full, one short and one over
EDGE = 4 * PATH_TILE[1]


class TestPathMetricSpace:
    @pytest.mark.parametrize("n_dim", [1, 3, 16])
    @pytest.mark.parametrize("n", [1, 2, EDGE - 1, EDGE, EDGE + 1])
    def test_bit_identical_to_per_row_oracle(self, n, n_dim):
        paths = random_paths(np.random.default_rng(1000 * n + n_dim), n, n_dim)
        dist = path_metric_space(paths).dist
        assert dist.tobytes() == path_metric_per_row(paths).tobytes()

    def test_walks_with_repeated_values(self):
        """Lattice-valued walks: many equal distances and exact zeros."""
        paths = list(sample_walks(8, 40, scale=1.0, seed=3).paths)
        paths += list(sample_walks(16, 40, scale=1.0, seed=4).paths)
        dist = path_metric_space(paths).dist
        assert dist.tobytes() == path_metric_per_row(paths).tobytes()


class TestPathDistances:
    SIZES = [1, EDGE - 1, EDGE, EDGE + 1]

    @pytest.mark.parametrize("n_dim", [1, 3])
    @pytest.mark.parametrize("n_cols", SIZES)
    @pytest.mark.parametrize("n_rows", SIZES)
    def test_bit_identical_to_the_oracle_block(self, n_rows, n_cols, n_dim):
        rng = np.random.default_rng([n_rows, n_cols, n_dim])
        rows = random_paths(rng, n_rows, n_dim)
        cols = random_paths(rng, n_cols, n_dim)[::-1]
        block = path_metric_per_row(rows + cols)[:n_rows, n_rows:]
        assert path_distances(rows, cols).tobytes() == block.tobytes()

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [1, PATH_TILE[0] - 1, PATH_TILE[0], PATH_TILE[0] + 1])
    def test_row_blocks_match_the_oracle_block(self, n_rows, n_dim):
        rng = np.random.default_rng([n_rows, n_dim, 1])
        rows = random_paths(rng, n_rows, n_dim)
        cols = random_paths(rng, 2 * PATH_TILE[1] + 1, n_dim)
        block = path_metric_per_row(rows + cols)[:n_rows, n_rows:]
        assert path_distances(rows, cols).tobytes() == block.tobytes()

    def test_holds_one_row_block_of_values(self):
        """400 walks against the 400 members of their net, on T = 365 times:
        the rows' values are made one block of PATH_TILE[0] rows at a time,
        so the call peaks one (400, T) array of row values below the
        4.23 MiB it took when every row's values were made at once, less
        what one block holds while it is made: itself and the evaluation's
        temporaries, four blocks' worth."""
        walks = list(sample_walks(64, 400, seed=11).paths)
        members = aa_net(walks, 0.01, 4.0, 4.0, 0.025).members
        times = np.unique(np.concatenate([x.knots for x in [*walks, *members]]))
        assert (len(members), times.size) == (400, 365)
        tracemalloc.start()
        try:
            path_distances(walks, members)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_values = len(walks) * times.size * 8
        block = PATH_TILE[0] * times.size * 8
        assert peak <= 4.23 * 2**20 - row_values + 4 * block

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 2 * PATH_TILE[0] + 1),
        m=st.integers(1, 2 * PATH_TILE[1] + 1),
        n_times=st.integers(1, 5),
        scale=st.sampled_from([1.0, 1e-150, 1e-160, 1e-161, 1e-162, 1e-165, 1e-200, 1e-310]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_dimension_matches_the_general_kernel(self, n, m, n_times, scale, seed):
        """1-D paths, which take the square for the sum, give the bits of the
        same paths in the plane with a zero second axis, which sum, also
        where the squares of differences near 1e-160 are subnormal or
        underflow to 0, and where paths coincide."""
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n, n_times, 1)) * scale
        cols = rng.standard_normal((m, n_times, 1)) * scale
        cols[: m // 2] = rows[0]  # pairs at distance 0
        flat = stochastic_module._squared_distances(lambda a, b: rows[a:b], n, cols)
        pad = [(0, 0), (0, 0), (0, 1)]
        padded = np.pad(rows, pad)
        summed = stochastic_module._squared_distances(
            lambda a, b: padded[a:b], n, np.pad(cols, pad)
        )
        assert flat.tobytes() == summed.tobytes()

    @pytest.mark.parametrize("scale", [1e-158, 1e-160, 1e-162])
    def test_tiny_one_dimensional_paths_match_the_oracle(self, scale):
        rng = np.random.default_rng(7)
        rows = random_paths(rng, PATH_TILE[0] + 1, 1)
        cols = random_paths(rng, PATH_TILE[1] + 1, 1)
        rows = [PLPath(x.knots, x.values * scale) for x in rows]
        cols = [PLPath(x.knots, x.values * scale) for x in cols]
        block = path_metric_per_row(rows + cols)[:len(rows), len(rows):]
        assert path_distances(rows, cols).tobytes() == block.tobytes()


class TestVerifyQsaaWork:
    def test_moduli_table_matches_modulus(self):
        xi = [sample_walks(8, 6, seed=1), sample_walks(8, 5, seed=2)]
        out = mu_suec_hat(xi, [0.5], [0.1, 0.3])
        for e, table in zip(xi, out.moduli):
            expected = [[modulus(x, d) for d in out.delta_grid] for x in e.paths]
            assert table.tolist() == expected
        assert "moduli" not in to_jsonable(out)

    def test_one_flow_per_network_across_the_lambda_grid(self, monkeypatch):
        """The shared sweep solves fewer flows than one sweep per lam, and
        gives the same report."""
        calls = [0]
        solve = prokhorov_module.transport_flow

        def counted(*args):
            calls[0] += 1
            return solve(*args)

        def per_lambda(p, q, dist, grid):
            return [prokhorov_sweep(p, q, dist, [lam])[0] for lam in grid]

        monkeypatch.setattr(prokhorov_module, "transport_flow", counted)
        xi = [sample_walks(16, 30, seed=11), sample_walks(16, 30, seed=12)]
        args = (xi, [0.5, 1.0, 2.0], [0.25], [0.01], [2.0], 0.05)
        shared = verify_qsaa(*args)
        shared_calls, calls[0] = calls[0], 0
        # verify_qsaa reads the sweep off the prokhorov module at each call
        monkeypatch.setattr(prokhorov_module, "prokhorov_sweep", per_lambda)
        looped = verify_qsaa(*args)
        assert shared_calls < calls[0]
        assert to_jsonable(shared) == to_jsonable(looped)

    def test_path_laws_build_no_space_and_no_measure(self, monkeypatch):
        """The sweep runs on the walk x member block: no square space of
        paths, no measure on one."""
        built = []

        def refuse(cls):
            def init(self, *args, **kwargs):
                built.append(cls.__name__)
                raise AssertionError(f"{cls.__name__} built")

            monkeypatch.setattr(cls, "__init__", init)

        refuse(FiniteMetricSpace)
        refuse(DiscreteMeasure)
        xi = [sample_walks(16, 30, seed=11), sample_walks(16, 30, seed=12)]
        report = verify_qsaa(xi, [0.5, 1.0, 2.0], [0.25], [0.01], [2.0], 0.05)
        assert report.n_unique_paths > 30
        assert 0.0 < path_prokhorov(xi[0], xi[1], 1.0) <= 1.0
        assert built == []


class TestSweepWork:
    def test_value_bracketing_solves_fewer_flows_than_bisection(self):
        """A 400-point planar Dirichlet pair at lam = 1, as ``prokhorov-dist``
        gets it: the same answer from strictly fewer flows."""
        rng = np.random.default_rng(400)
        x = rng.random((400, 2))
        dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        p, q = rng.dirichlet(np.ones(400)), rng.dirichlet(np.ones(400))
        (got,) = prokhorov_sweep(p, q, dist, [1.0])
        (ref,) = prokhorov_sweep_bisect(p, q, dist, [1.0])
        assert got.alpha_star == ref.alpha_star
        assert got.certificate.flow.tobytes() == ref.certificate.flow.tobytes()
        assert got.flows_solved < ref.flows_solved
