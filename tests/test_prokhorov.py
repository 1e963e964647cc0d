import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompact import (
    CouplingCertificate,
    DiscreteMeasure,
    FiniteMetricSpace,
    IndexSet,
    ViolationCertificate,
    check_alpha,
    diameter_partition,
    mu_ut,
    prokhorov_distance,
    prokhorov_distances,
    prokhorov_net,
    prokhorov_oracle,
    prokhorov_sweep,
    tv_distance,
    verify_qprokh,
)
from qcompact import prokhorov as prokhorov_module
from qcompact.errors import InternalConsistencyError
from qcompact.metric import EUCLID_BLOCK
from qcompact.prokhorov import check_alpha_block

from oracles import feasible_by_subsets, prokhorov_sweep_bisect, tv_subsets


def two_point_space(d=1.0):
    return FiniteMetricSpace(np.array([[0.0, d], [d, 0.0]]))


def star_family(K=4, p=0.2):
    """K measures sharing mass 1-p at a hub plus p at a private satellite."""
    d = np.full((K + 1, K + 1), 20.0)
    d[0, :] = 10.0
    d[:, 0] = 10.0
    np.fill_diagonal(d, 0.0)
    space = FiniteMetricSpace(d)
    family = []
    for k in range(1, K + 1):
        mass = np.zeros(K + 1)
        mass[0] = 1.0 - p
        mass[k] = p
        family.append(DiscreteMeasure(space, mass))
    return space, family


@st.composite
def measure_pair(draw, max_points=8):
    """Two strictly positive measures on a shared space of distinct points."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    xs = draw(
        st.lists(st.integers(-8, 8), min_size=n, max_size=n, unique=True)
    )
    space = FiniteMetricSpace(coords=[[0.5 * x] for x in xs])
    raw = draw(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=n, max_size=n
        )
    )
    p = np.array([a for a, _ in raw]) + 1e-3
    q = np.array([b for _, b in raw]) + 1e-3
    return DiscreteMeasure(space, p / p.sum()), DiscreteMeasure(space, q / q.sum())


class TestDiscreteMeasure:
    def test_renormalizes_within_gate(self):
        sp = two_point_space()
        m = DiscreteMeasure(sp, [0.5, 0.5 + 4e-10])
        assert m.mass.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_total(self):
        sp = two_point_space()
        with pytest.raises(ValueError, match="sum"):
            DiscreteMeasure(sp, [0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(two_point_space(), [1.2, -0.2])

    def test_dirac_and_support(self):
        sp = two_point_space()
        d = DiscreteMeasure.dirac(sp, 1)
        assert list(d.support) == [1]
        assert d.prob(IndexSet.of([1])) == 1.0


class TestTvDistance:
    def test_identical(self):
        sp = two_point_space()
        P = DiscreteMeasure(sp, [0.3, 0.7])
        assert tv_distance(P, P) == 0.0

    def test_half(self):
        sp = two_point_space()
        assert tv_distance(
            DiscreteMeasure(sp, [0.5, 0.5]), DiscreteMeasure(sp, [1.0, 0.0])
        ) == pytest.approx(0.5, abs=1e-15)

    def test_disjoint_diracs(self):
        sp = two_point_space()
        assert tv_distance(
            DiscreteMeasure.dirac(sp, 0), DiscreteMeasure.dirac(sp, 1)
        ) == 1.0

    @given(measure_pair(max_points=6))
    def test_matches_subset_enumeration(self, pq):
        P, Q = pq
        assert tv_distance(P, Q) == pytest.approx(
            tv_subsets(P.mass, Q.mass), abs=1e-12
        )


    def test_builds_no_distance_matrix(self):
        """2000 planar points: the TV distance reads masses only, so the
        space, two measures and the distance take under 0.05 of an n^2
        matrix (1.13 when a coordinate space built its matrix at once)."""
        n = 2000
        rng = np.random.default_rng(0)
        coords, p, q = rng.random((n, 2)), rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        tracemalloc.start()
        try:
            space = FiniteMetricSpace(coords=coords)
            P, Q = DiscreteMeasure(space, p), DiscreteMeasure(space, q)
            tv = tv_distance(P, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tv == float(np.clip(P.mass - Q.mass, 0.0, None).sum())
        assert peak <= 0.05 * n * n * 8


class TestCheckAlpha:
    def test_identity_coupling_at_zero(self):
        sp = two_point_space()
        P = DiscreteMeasure(sp, [0.3, 0.7])
        out = check_alpha(P, P, 1.0, 0.0)
        assert isinstance(out, CouplingCertificate)
        assert out.slack_mass == pytest.approx(0.0, abs=1e-9)

    def test_uniform_vs_dirac_boundary(self):
        sp = two_point_space(1.0)
        P = DiscreteMeasure(sp, [0.5, 0.5])
        Q = DiscreteMeasure.dirac(sp, 0)
        bad = check_alpha(P, Q, 1.0, 0.4)
        assert isinstance(bad, ViolationCertificate)
        assert tuple(bad.subset) == (1,)
        assert bad.gap == pytest.approx(0.1, abs=1e-9)
        good = check_alpha(P, Q, 1.0, 0.5)
        assert isinstance(good, CouplingCertificate)
        assert good.slack_mass == pytest.approx(0.5, abs=1e-9)

    @given(measure_pair(max_points=5), st.floats(0.05, 1.0), st.floats(0.25, 4.0))
    def test_agrees_with_subset_enumeration(self, pq, alpha, lam):
        P, Q = pq
        out = check_alpha(P, Q, lam, alpha)
        expected = feasible_by_subsets(P.mass, Q.mass, P.space.dist, lam, alpha)
        assert isinstance(out, CouplingCertificate) == expected

    @given(measure_pair(max_points=5), st.floats(0.05, 0.9), st.floats(0.0, 0.5))
    def test_monotone_in_alpha(self, pq, alpha, bump):
        P, Q = pq
        if isinstance(check_alpha(P, Q, 1.0, alpha), CouplingCertificate):
            assert isinstance(
                check_alpha(P, Q, 1.0, alpha + bump), CouplingCertificate
            )

    def test_certificates_self_validate(self):
        sp = two_point_space(1.0)
        P = DiscreteMeasure(sp, [0.5, 0.5])
        Q = DiscreteMeasure.dirac(sp, 0)
        check_alpha(P, Q, 1.0, 0.5).validate(P, Q)
        check_alpha(P, Q, 1.0, 0.4).validate(P, Q)

    def test_recheck_copies_one_block_of_cut_rows(self, monkeypatch):
        """At alpha* on 1000 planar points the min-cut set holds 419 P-atoms.
        The recheck reads their distance rows one ``EUCLID_BLOCK`` at a time,
        where copying them all took 3.6 MiB; the whole check peaks at the
        dense coupling it returns."""
        n = 1000
        rng = np.random.default_rng(0)
        coords, p, q = rng.random((n, 2)), rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        dist = FiniteMetricSpace(coords=coords).dist
        alpha = prokhorov_sweep(p, q, dist, [1.0])[0].alpha_star
        rows, peaks = [], []
        neighborhood = prokhorov_module.closed_neighborhood

        def traced(d, cut, lam, a):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            near = neighborhood(d, cut, lam, a)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            rows.append(cut.size)
            return near

        monkeypatch.setattr(prokhorov_module, "closed_neighborhood", traced)
        tracemalloc.start()
        try:
            cert = check_alpha_block(p, q, dist, 1.0, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(cert, CouplingCertificate)
        assert rows == [419]
        assert max(peaks) <= 1.5 * EUCLID_BLOCK * n * 8
        assert peak <= 1.2 * n * n * 8


class TestProkhorovDistance:
    def test_self_distance_zero(self):
        sp = two_point_space()
        P = DiscreteMeasure(sp, [0.25, 0.75])
        assert prokhorov_distance(P, P, 1.0).alpha_star == 0.0

    def test_uniform_vs_dirac(self):
        sp = two_point_space(1.0)
        res = prokhorov_distance(
            DiscreteMeasure(sp, [0.5, 0.5]), DiscreteMeasure.dirac(sp, 0), 1.0
        )
        assert res.alpha_star == pytest.approx(0.5, abs=1e-12)

    def test_dirac_closed_form(self):
        for d in (0.25, 1.0, 3.0):
            sp = two_point_space(d)
            P, Q = DiscreteMeasure.dirac(sp, 0), DiscreteMeasure.dirac(sp, 1)
            for lam in (0.5, 1.0, 2.0, 8.0):
                got = prokhorov_distance(P, Q, lam).alpha_star
                assert got == pytest.approx(min(d / lam, 1.0), abs=1e-12)

    def test_certificate_attached(self):
        sp = two_point_space(1.0)
        P = DiscreteMeasure(sp, [0.5, 0.5])
        Q = DiscreteMeasure.dirac(sp, 0)
        res = prokhorov_distance(P, Q, 1.0)
        res.certificate.validate(P, Q)
        assert res.certificate.alpha == res.alpha_star

    @given(measure_pair(max_points=6), st.sampled_from([0.25, 1.0, 4.0]))
    @settings(max_examples=40)
    def test_matches_oracle(self, pq, lam):
        P, Q = pq
        assert prokhorov_distance(P, Q, lam).alpha_star == pytest.approx(
            prokhorov_oracle(P, Q, lam), abs=1e-9
        )

    @given(measure_pair())
    def test_lambda_monotone_and_tv_bound(self, pq):
        P, Q = pq
        tv = tv_distance(P, Q)
        lams = [0.25, 0.5, 1.0, 2.0, 4.0]
        vals = [prokhorov_distance(P, Q, l).alpha_star for l in lams]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9
        for v in vals:
            assert v <= tv + 1e-9

    @given(measure_pair())
    def test_tiny_lambda_recovers_tv(self, pq):
        P, Q = pq
        pos = P.space.positive_distances()
        if pos.size == 0:
            return
        lam = 1e-9 * float(pos.min())
        assert prokhorov_distance(P, Q, lam).alpha_star == pytest.approx(
            tv_distance(P, Q), abs=1e-6
        )

    def test_float_masses_recheck_their_own_answer(self):
        """Plain float masses leave a min-cut gap of about 1e-15 at the
        sweep's answer; that rounding must not fail the recheck."""
        rng = np.random.default_rng([13, 1])
        space = FiniteMetricSpace(coords=rng.random((400, 2)))
        raw = [rng.dirichlet(np.ones(400)) for _ in range(2)]
        P, Q = (DiscreteMeasure(space, m / m.sum()) for m in raw)
        res = prokhorov_distance(P, Q, 0.5)
        res.certificate.validate(P, Q)
        assert check_alpha(P, Q, 0.5, res.alpha_star).feasible

    def test_long_augmenting_path_needs_no_recursion(self):
        """P on the even points 2i of a line, listed from the right, and Q on
        the odd points 2i + 1: the greedy first phase matches each P-atom to
        its left neighbour, and the last augmenting path then runs through
        all 1202 atoms."""
        m = 601
        coords = np.concatenate([2.0 * np.arange(m)[::-1], 2.0 * np.arange(m) + 1.0])
        space = FiniteMetricSpace(coords=coords[:, None])
        P = DiscreteMeasure(space, np.r_[np.full(m, 1.0 / m), np.zeros(m)])
        Q = DiscreteMeasure(space, np.r_[np.zeros(m), np.full(m, 1.0 / m)])
        assert isinstance(check_alpha(P, Q, 1.0, 1.0), CouplingCertificate)
        assert prokhorov_distance(P, Q, 1.0).alpha_star == 1.0

    def test_coincident_points_move_mass_freely(self):
        # distance zero between atoms: closed inflation at radius 0 merges
        # them, so disjoint supports on coincident points cost nothing
        sp = FiniteMetricSpace(coords=[[0.0], [0.0], [3.0]])
        P = DiscreteMeasure.dirac(sp, 0)
        Q = DiscreteMeasure.dirac(sp, 1)
        for lam in (0.1, 1.0, 10.0):
            assert prokhorov_distance(P, Q, lam).alpha_star == 0.0

    @given(measure_pair())
    def test_symmetry(self, pq):
        P, Q = pq
        assert prokhorov_distance(P, Q, 1.0).alpha_star == pytest.approx(
            prokhorov_distance(Q, P, 1.0).alpha_star, abs=1e-9
        )

    @given(measure_pair(max_points=5), st.data())
    @settings(max_examples=30)
    def test_triangle_inequality(self, pq, data):
        P, Q = pq
        n = P.space.n_points
        raw = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
        r = np.asarray(raw) + 1e-3
        R = DiscreteMeasure(P.space, r / r.sum())
        d_pq = prokhorov_distance(P, Q, 1.0).alpha_star
        d_pr = prokhorov_distance(P, R, 1.0).alpha_star
        d_rq = prokhorov_distance(R, Q, 1.0).alpha_star
        assert d_pq <= d_pr + d_rq + 1e-9


class TestMuUt:
    def test_single_dirac_is_zero(self):
        sp = two_point_space()
        out = mu_ut([DiscreteMeasure.dirac(sp, 0)], [0.5, 1.0], k_max=1)
        assert out.upper == 0.0 and out.lower == 0.0

    def test_star_family_hits_satellite_mass(self):
        _, family = star_family(K=4, p=0.2)
        out = mu_ut(family, [1.0], k_max=1)
        assert out.exact
        assert out.upper == pytest.approx(0.2, abs=1e-12)
        assert out.lower == pytest.approx(0.2, abs=1e-12)

    def test_ball_beyond_diameter_contributes_zero(self):
        sp = two_point_space(1.0)
        fam = [DiscreteMeasure(sp, [0.5, 0.5])]
        out = mu_ut(fam, [5.0], k_max=1)
        assert out.upper == 0.0

    def test_upper_dominates_lower(self):
        _, family = star_family(K=3, p=0.35)
        out = mu_ut(family, [1.0, 5.0, 15.0], k_max=2)
        assert out.lower is not None and out.lower <= out.upper + 1e-12

    def test_note_mentions_restriction(self):
        sp = two_point_space()
        out = mu_ut([DiscreteMeasure.dirac(sp, 0)], [1.0], k_max=1)
        assert "grid" in out.note and "k_max" in out.note


class TestDiameterPartition:
    def test_cells_are_small_disjoint_and_cover(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(0, 1, size=(12, 2))
        sp = FiniteMetricSpace(coords=coords)
        cells = diameter_partition(sp, 0.4)
        seen = set()
        for cell in cells:
            idx = list(cell)
            assert not (set(idx) & seen)
            seen |= set(idx)
            sub = sp.dist[np.ix_(idx, idx)]
            assert sub.max(initial=0.0) < 0.4
        assert seen == set(range(12))


class TestProkhorovNet:
    def test_single_dirac_net_contains_itself(self):
        sp = FiniteMetricSpace(np.zeros((1, 1)))
        P = DiscreteMeasure.dirac(sp, 0)
        net = prokhorov_net([P], 1.0, 1.0)
        assert net.full_size == 1
        assert np.array_equal(net.assigned[0].mass, P.mass)
        assert prokhorov_distance(P, net.assigned[0], 1.0).alpha_star <= 1.0

    def test_net_is_counted_not_listed(self, monkeypatch):
        """Five cells at grain 20 make a net of 10,626 measures; only each
        member's companion is built."""
        rng = np.random.default_rng(5)
        sp = FiniteMetricSpace(coords=10.0 * np.arange(5.0))
        family = [DiscreteMeasure(sp, rng.dirichlet(np.ones(5))) for _ in range(3)]
        built = []
        init = DiscreteMeasure.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DiscreteMeasure, "__init__", counting_init)
        net = prokhorov_net(family, 1.0, 0.5)
        assert len(built) <= len(family)
        cells = diameter_partition(sp, 0.5)
        assert net.representatives == tuple(cell.members[0] for cell in cells)
        assert (len(cells), net.m_grain, net.full_size) == (5, 20, 10626)

    def test_two_point_rounding_example(self):
        sp = two_point_space(1.0)
        P = DiscreteMeasure(sp, [0.3, 0.7])
        net = prokhorov_net([P], 1.0, 0.5)
        assert net.representatives == (0, 1)
        assert net.m_grain == 8
        assert np.allclose(net.assigned[0].mass, [2 / 8, 6 / 8])
        rho = prokhorov_distance(P, net.assigned[0], 1.0).alpha_star
        assert rho <= 0.5 + 1e-12

    def test_covering_claim_on_random_families(self, rng):
        for trial in range(5):
            n = int(rng.integers(3, 9))
            coords = rng.uniform(0, 1, size=(n, 2))
            sp = FiniteMetricSpace(coords=coords)
            fam = []
            for _ in range(int(rng.integers(1, 4))):
                w = rng.uniform(0.01, 1.0, size=n)
                fam.append(DiscreteMeasure(sp, w / w.sum()))
            lam, eps = 1.0, 0.8
            net = prokhorov_net(fam, lam, eps)
            for P, Qr in zip(fam, net.assigned):
                rho = prokhorov_distance(P, Qr, lam).alpha_star
                assert rho <= net.eps + 1e-9


class TestVerifyQprokh:
    def test_single_measure_verifies(self):
        sp = two_point_space(1.0)
        report = verify_qprokh([DiscreteMeasure(sp, [0.5, 0.5])], [1.0], 0.5)
        assert report.status == "verified"
        for row in report.rows:
            assert row.claim_ok

    def test_star_family_sandwich(self):
        _, family = star_family(K=4, p=0.2)
        report = verify_qprokh(
            [m for m in family], [1.0, 4.0], 0.5, eps_grid=[1.0], k_max=4
        )
        assert report.status == "verified"
        assert report.mu_ut.upper == pytest.approx(0.2, abs=1e-12)

    def test_two_diracs_with_starved_budget_is_inconclusive(self):
        sp = two_point_space(1.0)
        fam = [DiscreteMeasure.dirac(sp, 0), DiscreteMeasure.dirac(sp, 1)]
        report = verify_qprokh(
            fam, [10.0], 0.5, eps_grid=[0.5], k_max=1
        )
        assert report.status == "inconclusive"
        assert "k_max" in report.hint

    @given(
        st.lists(
            st.one_of(st.floats(0.0, 1e6, exclude_min=True), st.sampled_from([0.5, 1.0, 3.0])),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=300)
    def test_quartiles_match_np_quantile(self, values):
        values = np.sort(np.array(values))
        want = np.quantile(values, [0.25, 0.5, 0.75]).tolist()
        got = prokhorov_module._quartiles(values)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_default_eps_grid_is_the_halved_quartiles(self):
        rng = np.random.default_rng(2)
        sp = FiniteMetricSpace(coords=rng.random((9, 2)))
        family = [DiscreteMeasure(sp, m) for m in rng.dirichlet(np.ones(9), size=3)]
        qs = np.quantile(sp.positive_distances(), [0.25, 0.5, 0.75]) / 2.0
        report = verify_qprokh(family, [1.0], 0.5)
        assert [e.eps for e in report.mu_ut.entries] == sorted(set(qs.tolist()))


LAMBDAS = (1 / 7, 1 / 3, 1e-3, 1e3, 0.5, 1.0, 2.0, 3.0)


@st.composite
def planar_pair(draw):
    """Two measures on up to 10 planar points, on a lattice (many tied
    distances) or at uniform coordinates, with possibly zero masses."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        coord = st.integers(0, 4).map(float)
    else:
        coord = st.floats(0.0, 1.0)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    space = FiniteMetricSpace(coords=pts)

    def mass():
        raw = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=float)
        raw[draw(st.integers(0, n - 1))] += 1.0
        return DiscreteMeasure(space, raw / raw.sum())

    return mass(), mass()


class TestProkhorovDistances:
    @given(planar_pair(), st.lists(st.sampled_from(LAMBDAS), min_size=1, max_size=5))
    @settings(max_examples=150)
    def test_matches_one_sweep_per_lambda(self, pq, grid):
        P, Q = pq
        for res, lam in zip(prokhorov_distances(P, Q, grid), grid, strict=True):
            ref = prokhorov_distance(P, Q, lam)
            assert res.lam == ref.lam
            assert res.alpha_star == ref.alpha_star
            assert res.breakpoints_scanned == ref.breakpoints_scanned
            assert res.certificate.flow.tobytes() == ref.certificate.flow.tobytes()
            assert res.certificate.slack_mass == ref.certificate.slack_mass

    def test_rejects_a_nonpositive_lambda(self):
        P = DiscreteMeasure.dirac(two_point_space(), 0)
        with pytest.raises(ValueError, match="lam must be > 0"):
            prokhorov_distances(P, P, [1.0, 0.0])

    def test_one_lambda_holds_few_matrices_beyond_the_space(self):
        """One lam on 1000 planar points with Dirichlet masses peaks under
        2.5 n^2 floats beyond the space's matrix: one sort of the distinct
        distances, their breakpoints and one mask at a time in the search,
        then the dense certificate and one mask in the recheck (3.9-4.0
        matrices when the quotients d / lam were an array and every flow
        returned a matrix)."""
        n = 1000
        rng = np.random.default_rng(0)
        space = FiniteMetricSpace(coords=rng.random((n, 2)))
        P = DiscreteMeasure(space, rng.dirichlet(np.ones(n)))
        Q = DiscreteMeasure(space, rng.dirichlet(np.ones(n)))
        space.dist
        tracemalloc.start()
        try:
            (res,) = prokhorov_distances(P, Q, [1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.flows_solved > 0
        assert peak <= 2.5 * n * n * 8

    @staticmethod
    def ladder(rungs):
        """P uniform on m points, Q uniform on m others; pair i of the ladder
        is at distance ``rungs[i]``, every other P-Q pair at 1.9, and points
        of one side 1 apart.  Adding the rungs in distance order lowers the
        flow deficiency by 1/m each."""
        m = len(rungs)
        d = np.full((2 * m, 2 * m), 1.0)
        d[:m, m:] = d[m:, :m] = 1.9
        for i, r in enumerate(rungs):
            d[i, m + i] = d[m + i, i] = r
        np.fill_diagonal(d, 0.0)
        space = FiniteMetricSpace(d)
        half = np.r_[np.ones(m), np.zeros(m)] / m
        return DiscreteMeasure(space, half), DiscreteMeasure(space, half[::-1])

    def test_thresholds_shared_across_lambdas(self):
        """Rungs 1.1^i and lam = 1.1^(2k): one threshold value names
        different edge sets under different lam."""
        P, Q = self.ladder([1.1**i for i in range(6)])
        grid = [1.0, 1.1**2, 1.1**4]
        got = [r.alpha_star for r in prokhorov_distances(P, Q, grid)]
        assert got == [prokhorov_distance(P, Q, lam).alpha_star for lam in grid]

    def test_division_merges_distances(self):
        """Rungs one ulp apart near 0.96: dividing by 1.9 merges some, so a
        breakpoint index names different edge sets under different lam."""
        rungs = [0.96]
        for _ in range(7):
            rungs.append(float(np.nextafter(rungs[-1], 2.0)))
        assert np.unique(np.array(rungs) / 1.9).size < len(rungs)
        P, Q = self.ladder(rungs)
        grid = [1.0, 1.9]
        got = [r.alpha_star for r in prokhorov_distances(P, Q, grid)]
        assert got == [prokhorov_distance(P, Q, lam).alpha_star for lam in grid]


@st.composite
def tie_prone_block(draw):
    """A block between up to 12 P-atoms and 12 Q-atoms on the integer or the
    1/8 lattice of the plane, so that distances tie with each other and with
    deficiencies; masses uniform, multiples of 1/D, or sparse Dirichlet."""
    step = draw(st.sampled_from([1.0, 0.125]))
    coord = st.integers(0, 8).map(lambda i: i * step)

    def atoms():
        n = draw(st.integers(1, 12))
        return np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))

    def mass(n):
        kind = draw(st.sampled_from(["uniform", "1/D", "dirichlet"]))
        if kind == "uniform":
            return np.full(n, 1.0 / n)
        if kind == "1/D":
            counts = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=float)
            counts[draw(st.integers(0, n - 1))] += 1.0
            return counts / counts.sum()
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w = rng.dirichlet(np.full(n, 0.3))
        w[rng.random(n) < 0.3] = 0.0
        w[rng.integers(n)] += 1e-3
        return w / w.sum()

    xp, xq = atoms(), atoms()
    dist = np.sqrt(((xp[:, None, :] - xq[None, :, :]) ** 2).sum(axis=2))
    return mass(len(xp)), mass(len(xq)), dist


class TestSweepSearch:
    @given(tie_prone_block(), st.lists(st.sampled_from(LAMBDAS), min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_matches_the_index_bisection(self, block, grid):
        """The value-bracketed search finds the bisection's breakpoint, so
        the answer and its certificate are the same bits."""
        p, q, dist = block
        got = prokhorov_sweep(p, q, dist, grid)
        for res, ref in zip(got, prokhorov_sweep_bisect(p, q, dist, grid), strict=True):
            assert res.alpha_star == ref.alpha_star
            assert res.certificate.flow.tobytes() == ref.certificate.flow.tobytes()
            assert res.certificate.slack_mass == ref.certificate.slack_mass
            assert res.breakpoints_scanned == ref.breakpoints_scanned

    def test_rounded_deficiency_keeps_the_answer_in_the_bracket(self):
        """At lam = 3 the deficiency is 1/6 on breakpoints 6 and 7 but is
        computed as 0.16666666666666663 and 0.16666666666666674, and
        breakpoint 7 is 0.5/3 = 0.16666666666666666: the infeasible probe at
        6 may not take breakpoint 7 for the first one above its deficiency.
        The FLOW_TOL pad keeps k* = 8, where the bisection finds it."""
        xp = np.array([[2, 3], [2, 5], [8, 2], [5, 1]]) / 8
        xq = np.array([[1, 8], [1, 3], [5, 3], [3, 0], [2, 7], [4, 6], [3, 5], [2, 3]]) / 8
        dist = np.sqrt(((xp[:, None, :] - xq[None, :, :]) ** 2).sum(axis=2))
        p = np.array([2, 3, 3, 2]) / 10
        q = np.array([2, 1, 4, 0, 4, 1, 4, 2]) / 18
        (got,) = prokhorov_sweep(p, q, dist, [3.0])
        (ref,) = prokhorov_sweep_bisect(p, q, dist, [3.0])
        assert got.alpha_star == ref.alpha_star == 0.16666666666666674
        assert got.certificate.flow.tobytes() == ref.certificate.flow.tobytes()

    def test_infinite_lam_couples_at_zero(self):
        """At lam = inf every finite distance is within lam * 0 (its quotient
        is 0), so alpha* is 0 and the recheck finds a full coupling."""
        rng = np.random.default_rng(5)
        p, q = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(5))
        dist = rng.random((6, 5)) * 1e300
        (res,) = prokhorov_sweep(p, q, dist, [np.inf])
        assert res.alpha_star == 0.0
        assert res.certificate.feasible
        assert abs(res.certificate.slack_mass) <= 1e-12

    def test_flows_solved_counts_new_networks_only(self, monkeypatch):
        """``flows_solved`` is the memo's growth for each lam, and a repeated
        lam solves nothing.  Each recheck reuses the search's solve of the
        network at alpha*, so it solves nothing either."""
        rng = np.random.default_rng(3)
        p, q = rng.dirichlet(np.ones(30)), rng.dirichlet(np.ones(30))
        dist = np.sqrt(((rng.random((30, 1, 2)) - rng.random((1, 30, 2))) ** 2).sum(axis=2))
        calls = [0]
        solve = prokhorov_module.transport_flow

        def counted(*args):
            calls[0] += 1
            return solve(*args)

        monkeypatch.setattr(prokhorov_module, "transport_flow", counted)
        first, again = prokhorov_sweep(p, q, dist, [1.0, 1.0])
        assert first.flows_solved > 0
        assert again.flows_solved == 0
        assert calls[0] == first.flows_solved
        assert again.alpha_star == first.alpha_star


class TestBlockForm:
    @given(planar_pair(), st.lists(st.sampled_from(LAMBDAS), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_sweep_on_the_space_matches_the_measures(self, pq, grid):
        P, Q = pq
        for res, ref in zip(
            prokhorov_sweep(P.mass, Q.mass, P.space.dist, grid),
            prokhorov_distances(P, Q, grid),
            strict=True,
        ):
            assert res.alpha_star == ref.alpha_star
            assert res.certificate.flow.tobytes() == ref.certificate.flow.tobytes()
            assert res.certificate.p_support == ref.certificate.p_support
            assert res.certificate.q_support == ref.certificate.q_support
            res.certificate.validate(P, Q)

    @given(planar_pair(), st.sampled_from(LAMBDAS))
    @settings(max_examples=100)
    def test_support_block_alone_gives_the_same_answer(self, pq, lam):
        """Only the P-support x Q-support block of the space enters."""
        P, Q = pq
        sp, sq = P.support, Q.support
        block = P.space.dist[np.ix_(sp, sq)]
        res = prokhorov_sweep(P.mass[sp], Q.mass[sq], block, [lam])[0]
        ref = prokhorov_distance(P, Q, lam)
        assert res.alpha_star == ref.alpha_star
        assert res.certificate.flow.tobytes() == ref.certificate.flow.tobytes()
        assert tuple(sp[list(res.certificate.p_support)]) == ref.certificate.p_support
        assert tuple(sq[list(res.certificate.q_support)]) == ref.certificate.q_support

    @staticmethod
    def line_block():
        """P at 0 and 10, Q at 0.1, 10.1 and 20 on a line: a 2 x 3 block."""
        p = np.array([0.5, 0.5])
        q = np.array([0.4, 0.5, 0.1])
        dist = np.abs(np.array([0.0, 10.0])[:, None] - np.array([0.1, 10.1, 20.0])[None, :])
        return p, q, dist

    def test_rectangular_block(self):
        p, q, dist = self.line_block()
        res = prokhorov_sweep(p, q, dist, [1.0])[0]
        assert res.alpha_star == pytest.approx(0.1, abs=1e-15)
        res.certificate.validate_block(p, q, dist)
        assert isinstance(check_alpha_block(p, q, dist, 1.0, 0.05), ViolationCertificate)

    def test_mass_moved_beyond_lam_alpha_is_rejected(self):
        """A 2 x 2 swap keeps every row and column sum but puts flow on the
        pairs at distance 10.1 and 9.9."""
        p, q, dist = self.line_block()
        cert = prokhorov_sweep(p, q, dist, [1.0])[0].certificate
        flow = cert.flow.copy()
        flow[0, 0] -= 0.2
        flow[1, 1] -= 0.2
        flow[0, 1] += 0.2
        flow[1, 0] += 0.2
        with pytest.raises(InternalConsistencyError, match="beyond lam\\*alpha"):
            dataclasses.replace(cert, flow=flow).validate_block(p, q, dist)

    def test_rejects_a_block_that_does_not_fit(self):
        p, q, dist = self.line_block()
        with pytest.raises(ValueError, match="does not fit"):
            prokhorov_sweep(p, q, dist.T, [1.0])
