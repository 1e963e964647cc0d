import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcompact
from qcompact import (
    InternalConsistencyError,
    chebyshev_center,
    chebyshev_centers,
    jung_check,
    jung_ratio,
)
from qcompact import ball as ball_module
from qcompact.ball import hull_bound, ragged_chebyshev_centers
from qcompact.tolerances import HULL_TOL

from oracles import meb_by_subsets, meb_grid_1e6, meb_welzl_recursive, support_certificate_nnls


def point_cloud(max_dim=3, max_points=7):
    return st.lists(
        st.lists(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            min_size=max_dim,
            max_size=max_dim,
        ),
        min_size=1,
        max_size=max_points,
    )


def _unit_vectors(n, dim):
    v = np.random.default_rng([n, dim]).standard_normal((n, dim))
    return v / np.sqrt((v * v).sum(axis=1))[:, None]


def assert_certificate(pts, out):
    """Every point inside and the support on the sphere, each up to a bound
    that scales with ``max(1, radius)``, and the center in the support hull
    up to one that also scales with the largest coordinate."""
    from scipy.optimize import nnls

    arr = np.asarray(pts, dtype=float)
    scale = max(1.0, out.radius)
    dists = np.linalg.norm(arr - out.center, axis=1)
    assert (dists <= out.radius + 1e-9 * scale).all()
    assert len(out.support) <= arr.shape[1] + 1
    for i in out.support:
        assert dists[i] == pytest.approx(out.radius, abs=1e-7 * scale)
    hull_scale = max(scale, np.abs(arr).max())
    assert out.hull_residual <= 1e-9 * hull_scale
    sup = arr[list(out.support)]
    _, resid = nnls(np.vstack([sup.T, np.ones(len(sup))]), np.append(out.center, 1.0))
    assert resid <= 1e-9 * hull_scale


def shrunk_loop(loop):
    """``loop`` with the heaviest support point of each ball left out, and
    the center moved to the circumcenter of the rest: a ball that misses
    that point."""

    def shrunk(pts, dup):
        _, slots, count, weights = loop(pts, dup)
        centers = np.empty((len(pts), pts.shape[2]))
        for i, m in enumerate(count):
            rest = np.delete(slots[i, :m], np.argmax(weights[i, :m]))
            center, w = ball_module._circumcenters(pts[i, rest][None])
            slots[i, : m - 1], centers[i], weights[i, : m - 1] = rest, center[0], w[0]
            weights[i, m - 1 :] = 0.0
        return centers, slots, count - 1, weights

    return shrunk


def perturbed_loop(loop):
    """``loop`` with every weight grown by 1e-6 of itself: a combination that
    misses the center."""

    def perturbed(pts, dup):
        center, slots, count, weights = loop(pts, dup)
        return center, slots, count, weights * (1.0 + 1e-6)

    return perturbed


class TestChebyshevCenter:
    def test_singleton(self):
        out = chebyshev_center([[2.0, -3.0]])
        assert out.radius == 0.0
        assert np.allclose(out.center, [2.0, -3.0])

    def test_symmetric_pair(self):
        out = chebyshev_center([[-1.0], [1.0]])
        assert out.radius == pytest.approx(1.0, abs=1e-12)
        assert out.center == pytest.approx(0.0, abs=1e-12)

    def test_equilateral_triangle(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
        out = chebyshev_center(pts)
        assert out.radius == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        assert set(out.support) == {0, 1, 2}
        assert out.hull_residual <= 1e-9
        assert out.radius == pytest.approx(meb_grid_1e6(pts), abs=1e-4)

    def test_collinear_interior_point(self):
        out = chebyshev_center([[0.0], [0.5], [1.0]])
        assert out.radius == pytest.approx(0.5, abs=1e-12)
        assert out.center == pytest.approx(0.5, abs=1e-12)

    def test_duplicates_are_harmless(self):
        out = chebyshev_center([[0.0, 0.0]] * 4 + [[2.0, 0.0]])
        assert out.radius == pytest.approx(1.0, abs=1e-12)

    def test_rejects_excessive_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            chebyshev_center(np.zeros((2, 17)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            chebyshev_center([[np.nan, 0.0]])

    @pytest.mark.parametrize("pts", [np.zeros((3, 0)), np.zeros((0, 2)), np.zeros((2, 2, 2))])
    def test_rejects_points_without_coordinates(self, pts):
        with pytest.raises(ValueError, match="point array"):
            chebyshev_center(pts)

    @given(point_cloud())
    @settings(max_examples=50)
    def test_matches_subset_oracle(self, pts):
        got = chebyshev_center(pts)
        _, want_r = meb_by_subsets(np.asarray(pts))
        assert got.radius == pytest.approx(want_r, abs=1e-8)

    @given(point_cloud())
    @settings(max_examples=50)
    def test_certificate_invariants(self, pts):
        assert_certificate(pts, chebyshev_center(pts))

    @given(point_cloud(max_dim=2, max_points=6), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=40)
    def test_translation_invariance(self, pts, dx, dy):
        base = chebyshev_center(pts)
        shifted = chebyshev_center(np.asarray(pts) + np.array([dx, dy]))
        assert shifted.radius == pytest.approx(base.radius, abs=1e-9)

    @given(point_cloud(max_dim=2, max_points=6), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=40)
    def test_rotation_invariance(self, pts, theta):
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        base = chebyshev_center(pts)
        rotated = chebyshev_center(np.asarray(pts) @ rot.T)
        assert rotated.radius == pytest.approx(base.radius, abs=1e-9)

    @given(point_cloud(max_dim=2, max_points=6), st.floats(0.1, 5.0))
    @settings(max_examples=40)
    def test_dilation_scales_radius(self, pts, scale):
        base = chebyshev_center(pts)
        scaled = chebyshev_center(np.asarray(pts) * scale)
        assert scaled.radius == pytest.approx(scale * base.radius, rel=1e-9, abs=1e-12)


    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e9, 1e12])
    def test_large_coordinates_certify(self, scale):
        """Containment is checked relative to the radius, like the hull
        residual: at 1e9 one ulp of a coordinate is already 1.2e-7."""
        pts = np.random.default_rng(1).standard_normal((50, 3)) * scale
        assert_certificate(pts, chebyshev_center(pts))

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e9, 1e12])
    def test_shrunk_ball_is_rejected(self, scale, monkeypatch):
        # the radius is read off the center against the support, so the
        # smaller ball through the support without its heaviest point stands
        # in for a shrunk one: that point lies outside it
        monkeypatch.setattr(ball_module, "_ball_loop", shrunk_loop(ball_module._ball_loop))
        pts = np.random.default_rng(1).standard_normal((50, 3)) * scale
        with pytest.raises(InternalConsistencyError, match="misses a point"):
            chebyshev_center(pts)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e9, 1e12])
    def test_perturbed_weights_are_rejected(self, scale, monkeypatch):
        monkeypatch.setattr(ball_module, "_ball_loop", perturbed_loop(ball_module._ball_loop))
        pts = np.random.default_rng(1).standard_normal((50, 3)) * scale
        with pytest.raises(InternalConsistencyError, match="support hull"):
            chebyshev_center(pts)

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8, 1e12])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_unit_spread_far_from_the_origin(self, dim, offset):
        """The loop runs relative to one input point and reads the radius in
        the caller's coordinates, so unit-spread clouds certify at any
        offset.  The seeds include clouds that ran the pivoting solver out of
        pivots: 43 and 91 at 1e4 in N = 2, 132 at 1e4 in N = 3, 8 at 1e6 in
        N = 2, 4 at 1e6 and 1e8 in N = 3, 11 at 1e8 in N = 2.  At 1e12 one
        ulp is 1.2e-4, so only the two gates are asserted."""
        for seed in [*range(16), 43, 91, 132]:
            pts = np.random.default_rng(seed).standard_normal((10, dim)) + offset
            out = chebyshev_center(pts)
            dists = np.sqrt(((pts - out.center) ** 2).sum(axis=1))
            assert dists.max() <= out.radius + HULL_TOL * max(1.0, out.radius), seed
            assert out.hull_residual <= hull_bound(pts, out.radius), seed

    def test_far_single_points_certify(self):
        """The hull residual's rounding grows with the coordinates, not the
        radius: a single point near 1e9 leaves 7.7e-7, and its bound is
        ``HULL_TOL`` times its largest coordinate."""
        clouds = [np.array([[1e9 + 1, 2e9, 3e9]])]
        clouds += [np.random.default_rng(s).standard_normal((1, 3)) * 1e9 for s in range(200)]
        for pts in clouds:
            out = chebyshev_center(pts)
            assert out.radius == 0.0
            assert out.hull_residual <= hull_bound(pts, 0.0)
            assert_certificate(pts, out)


class TestPivoting:
    @pytest.mark.parametrize(
        "dim, n", [(2, 300), (4, 200), (8, 80), (12, 40), (16, 30)]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_whole_input_recursion(self, dim, n, seed):
        pts = np.random.default_rng([dim, seed]).standard_normal((n, dim))
        out = chebyshev_center(pts)
        _, want_r = meb_welzl_recursive(pts)
        assert out.radius == pytest.approx(want_r, rel=1e-12, abs=0.0)
        assert_certificate(pts, out)

    def test_large_cloud_in_dimension_16(self):
        pts = np.random.default_rng(16).standard_normal((5000, 16))
        assert_certificate(pts, chebyshev_center(pts))

    def test_pivot_cap_raises(self, monkeypatch):
        pts = np.random.default_rng(5).standard_normal((300, 4))
        assert_certificate(pts, chebyshev_center(pts))
        monkeypatch.setattr(ball_module, "MAX_STEPS", 1)
        with pytest.raises(InternalConsistencyError, match="steps"):
            chebyshev_center(pts)

    def test_small_sets_need_no_pivot(self, monkeypatch):
        # a point settles in one step; for a pair, the first step walks from
        # one point to the midpoint, where it joins the support, and the
        # second finds both weights positive
        monkeypatch.setattr(ball_module, "MAX_STEPS", 1)
        assert_certificate([[0.3, -1.0, 2.0]], chebyshev_center([[0.3, -1.0, 2.0]]))
        pair = np.random.default_rng(6).standard_normal((2, 3))
        with pytest.raises(InternalConsistencyError, match="steps"):
            chebyshev_center(pair)
        monkeypatch.setattr(ball_module, "MAX_STEPS", 2)
        assert_certificate(pair, chebyshev_center(pair))

    def test_cli_import_leaves_scipy_unloaded(self):
        code = (
            "import sys, qcompact.cli\n"
            "assert 'scipy' not in sys.modules, 'scipy imported with the CLI'\n"
            "from qcompact import chebyshev_center\n"
            "c = chebyshev_center([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])\n"
            "print(len(c.support), c.hull_residual <= 1e-9)\n"
        )
        assert _run_python(code).split() == ["3", "True"]

    @pytest.mark.parametrize(
        "case",
        ["cheby", "cover-profile", "verify-qaa", "verify-qaa-max-dim", "cube", "prokhorov-dist"],
    )
    def test_generic_balls_leave_scipy_unloaded(self, case, tmp_path):
        # the loop's own weights certify cospherical sets too (the cube's 8
        # vertices); verify-qaa's window balls come from the batched loop,
        # in 3-D and at its largest dimension.  No job loads OpenSSL's
        # hashes (_hashlib) to hash its inputs, a measure job neither.
        rng = np.random.default_rng(8)
        if case == "prokhorov-dist":
            space = {"coords": rng.random((30, 2)).tolist()}
            (tmp_path / "space.json").write_text(json.dumps(space))
            data, q = [{"space": "space.json", "mass": m.tolist()}
                       for m in rng.dirichlet(np.ones(30), size=2)]
            (tmp_path / "q.json").write_text(json.dumps(q))
            args = [str(tmp_path / "q.json"), "--lambda-grid", "0.5,1"]
        elif case.startswith("verify-qaa"):
            dim = ball_module.MAX_DIM if case.endswith("max-dim") else 3
            values = np.cumsum(rng.standard_normal((12, 17, dim)) / 4.0, axis=1)
            paths = [{"knots": np.linspace(0, 1, 17).tolist(), "values": v.tolist()} for v in values]
            bound_m = math.ceil(np.sqrt((values**2).sum(axis=2)).max())
            data = {"paths": paths}
            args = ["--delta-grid", "0.1,0.2", "--bound-m", str(bound_m), "--eps", "0.05"]
        elif case == "cube":
            data = {"coords": [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}
            args = []
        else:
            dim, k_max = (16, None) if case == "cheby" else (8, "6")
            data = {"coords": rng.standard_normal((80, dim)).tolist()}
            args = ["--k-max", k_max] if k_max else []
        inp = tmp_path / "input.json"
        inp.write_text(json.dumps(data))
        command = {"cube": "cheby", "verify-qaa-max-dim": "verify-qaa"}.get(case, case)
        argv = [command, str(inp), *args, "--out", str(tmp_path / "report.json")]
        code = (
            "import sys\n"
            "import numpy\n"
            "eager_random = 'numpy.random' in sys.modules\n"
            "from qcompact.cli import main\n"
            f"status = main({argv!r})\n"
            "print(status, 'scipy' in sys.modules, '_hashlib' in sys.modules, eager_random)\n"
        )
        status, scipy_loaded, hashlib_loaded, eager_random = _run_python(code).split()
        assert (status, scipy_loaded) == ("0", "False")
        if not BUILTIN_SHA256:
            pytest.skip("no built-in SHA-256 module: inputs are hashed through hashlib")
        if eager_random == "True":
            # numpy 1.x imports numpy.random with numpy, and with it OpenSSL
            # through secrets and hmac
            pytest.skip("numpy imports numpy.random, and so _hashlib, on import")
        assert hashlib_loaded == "False"


#: whether CPython's own SHA-256 module exists, which ``sha256_file`` takes
#: over hashlib's
BUILTIN_SHA256 = any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256"))


def _run_python(code: str, cwd=None) -> str:
    """stdout of ``python -c code``, run in ``cwd``, in a fresh process that
    imports this qcompact."""
    src = os.path.dirname(os.path.dirname(qcompact.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, check=True, capture_output=True,
        text=True,
    )
    return out.stdout


class TestSupportCertificate:
    @given(
        st.sampled_from([2, 3, 8, 16]),
        st.sampled_from([None, 0.5, 1.0, 1.5]),
        st.integers(4, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    # four coplanar candidates on the sphere in 3-D: the center is the
    # midpoint of rows 13 and 21 and a positive combination of 1, 21 and 25
    @example(dim=3, lattice=1.0, n=34, seed=36639)
    def test_matches_nnls_oracle(self, dim, lattice, n, seed):
        cloud = np.random.default_rng(seed).standard_normal((n, dim))
        # coarse lattices put several points on one sphere, which nnls certifies
        if lattice is not None:
            cloud = np.round(cloud / lattice) * lattice
        # unique sorted rows, so the certificate indexes the rows the oracle sees
        pts = np.unique(cloud, axis=0)
        out = chebyshev_center(pts)
        want, want_resid, cand = support_certificate_nnls(pts, out.center, out.radius)
        # affinely independent candidates weigh the center one way only
        if np.linalg.matrix_rank(pts[cand[1:]] - pts[cand[0]]) == cand.size - 1:
            assert out.support == want
        bound = hull_bound(pts, out.radius)
        assert out.hull_residual <= bound
        assert want_resid <= bound
        assert_certificate(pts, out)

    @pytest.mark.parametrize(
        "pts",
        [
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)],
            np.vstack([np.eye(16), -np.eye(16)]),
            *(_unit_vectors(n, 16) for n in (200, 1000, 5000)),
        ],
        ids=["square", "cube", "cross-polytope-16", "sphere-16-200", "sphere-16-1000",
             "sphere-16-5000"],
    )
    def test_cospherical_input_certifies_without_scipy(self, pts, monkeypatch):
        # a None entry in sys.modules makes any import of scipy fail
        with monkeypatch.context() as m:
            for name in [n for n in sys.modules if n.split(".")[0] == "scipy"] + ["scipy"]:
                m.setitem(sys.modules, name, None)
            out = chebyshev_center(pts)
        assert_certificate(pts, out)


def assert_batched_balls(sets, centers, radii):
    """Each ball is that of ``chebyshev_center`` on its set, bit for bit,
    has the radius of the subset oracle and contains its set, each up to
    ``HULL_TOL * max(1, radius)``, and has a valid support hull up to
    ``hull_bound``."""
    for pts, center, radius in zip(sets, centers, radii):
        want = chebyshev_center(pts)
        assert radius == want.radius and np.array_equal(center, want.center)
        bound = HULL_TOL * max(1.0, radius)
        assert abs(radius - meb_by_subsets(pts)[1]) <= bound
        assert np.sqrt(((pts - center) ** 2).sum(axis=1)).max() <= radius + bound
        _, resid, _ = support_certificate_nnls(pts, center, radius)
        assert resid <= hull_bound(pts, radius)


class TestChebyshevCenters:
    @given(
        st.integers(1, 16),
        st.integers(1, 12),
        st.integers(1, 4),
        st.sampled_from([None, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_matches_scalar_solver_and_subset_oracle(self, dim, n, nb, lattice, seed):
        sets = np.random.default_rng(seed).standard_normal((nb, n, dim))
        # coarse lattices give duplicates, collinear and cospherical sets
        if lattice is not None:
            sets = np.round(sets / lattice) * lattice
        assert_batched_balls(sets, *chebyshev_centers(sets))

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_sets_larger_than_the_working_set_pivot(self, dim):
        # sets of more than N+2 points
        sets = np.random.default_rng(dim).standard_normal((40, dim + 6, dim))
        centers, radii = chebyshev_centers(sets)
        for pts, center, radius in zip(sets, centers, radii):
            want = chebyshev_center(pts)
            assert radius == want.radius and np.array_equal(center, want.center)

    @pytest.mark.parametrize(
        "pts",
        [
            [[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0, 0.0], [1.0, 0.5]],
            [[0.3, -1.0, 2.0]] * 5,
            [[t, 2.0 * t, -t] for t in (0.0, 1.0, 0.25, 3.0, 0.5)],
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0],
             [0.0, 0.0, 0.0]],
            np.random.default_rng(9).standard_normal((8, 3)) * 1e9,
        ],
        ids=["duplicates", "all-equal", "collinear", "cospherical-square",
             "simplex-and-centroid", "scaled-1e9"],
    )
    def test_degenerate_sets_certify(self, pts):
        sets = np.asarray(pts, dtype=float)[None]
        assert_batched_balls(sets, *chebyshev_centers(sets))

    def test_far_sets_certify(self):
        """Unit-spread sets at offsets 1e4, 1e6 and 1e9 in N = 2 and 3, whose
        hull residuals reach about 1e-8 from rounding alone at 1e9: each
        ball is that of ``chebyshev_center``, and its gates bound it by
        ``hull_bound``, which scales with the coordinates."""
        for dim in (2, 3):
            for offset in (1e4, 1e6, 1e9):
                sets = np.random.default_rng([dim, int(offset)]).standard_normal((50, 3, dim))
                sets += offset
                centers, radii = chebyshev_centers(sets)
                for pts, center, radius in zip(sets, centers, radii):
                    want = chebyshev_center(pts)
                    assert radius == want.radius and np.array_equal(center, want.center)
                    bound = HULL_TOL * max(1.0, radius)
                    assert np.sqrt(((pts - center) ** 2).sum(axis=1)).max() <= radius + bound
                    _, resid, _ = support_certificate_nnls(pts, center, radius)
                    assert resid <= hull_bound(pts, radius)

    def test_stale_slots_leave_the_support_masked(self):
        """A row that leaves T stays in a slot past the support's count.  On
        this set, masking through those stale slots too gives a ball that
        misses a point, and letting a stale slot unmask a row of T lets that
        row join T twice, so that ``np.linalg.solve`` meets a singular
        system."""
        pts = np.random.default_rng(0).standard_normal((40000, 12, 6))[2341]
        centers, radii = chebyshev_centers(pts[None])
        want = chebyshev_center(pts)
        assert radii[0] == want.radius and np.array_equal(centers[0], want.center)
        assert_certificate(pts, want)

    @pytest.mark.parametrize("corrupt", ["center", "weights"])
    def test_failed_gates_raise(self, corrupt, monkeypatch):
        loop = (shrunk_loop if corrupt == "center" else perturbed_loop)(ball_module._ball_loop)
        monkeypatch.setattr(ball_module, "_ball_loop", loop)
        sets = np.random.default_rng(4).standard_normal((7, 6, 3))
        with pytest.raises(InternalConsistencyError, match="misses a point|support hull"):
            chebyshev_centers(sets)

    def test_step_cap_raises(self, monkeypatch):
        sets = np.random.default_rng(5).standard_normal((20, 12, 2))
        monkeypatch.setattr(ball_module, "MAX_STEPS", 1)
        with pytest.raises(InternalConsistencyError, match="steps"):
            chebyshev_centers(sets)

    def test_chunks_do_not_change_the_balls(self, monkeypatch):
        sets = np.random.default_rng(6).standard_normal((30, 7, 3))
        whole = chebyshev_centers(sets)
        monkeypatch.setattr(ball_module, "BATCH_CHUNK", 1)
        one_by_one = chebyshev_centers(sets)
        assert np.array_equal(whole[0], one_by_one[0])
        assert np.array_equal(whole[1], one_by_one[1])

    def test_memory_stays_below_the_input(self):
        """Blocks of ``BATCH_CHUNK`` elements keep the traced peak below the
        bytes of the stack itself; the whole stack at once took 11 times
        them."""
        sets = np.random.default_rng(7).standard_normal((40000, 8, 3))
        tracemalloc.start()
        try:
            chebyshev_centers(sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sets.nbytes

    @pytest.mark.parametrize(
        "sets, message",
        [
            (np.zeros((2, 3)), "array of point sets"),
            (np.zeros((0, 3, 2)), "array of point sets"),
            (np.full((1, 2, 2), np.inf), "finite"),
            (np.zeros((1, 2, 17)), "dimension"),
            (np.zeros((2, 3, 0)), "array of point sets"),
        ],
    )
    def test_rejects_bad_input(self, sets, message):
        with pytest.raises(ValueError, match=message):
            chebyshev_centers(sets)


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestRaggedCenters:
    """Sets of different sizes go into one stack, each padded with copies of
    its first row; the loop leaves the copies out as duplicates."""

    @given(
        st.integers(1, 16),
        st.lists(st.integers(1, 16), min_size=1, max_size=6),
        st.sampled_from([0.0, 1e6]),
        st.sampled_from([None, 0.5, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_padded_sets_match_single_calls(self, dim, sizes, offset, lattice, seed):
        rng = np.random.default_rng(seed)
        sets = [rng.standard_normal((n, dim)) for n in sizes]
        # coarse lattices give sets with duplicate rows
        if lattice is not None:
            sets = [np.round(s / lattice) * lattice for s in sets]
        sets = [s + offset for s in sets]
        width = max(sizes)
        padded = np.stack([np.concatenate([s, np.repeat(s[:1], width - len(s), axis=0)])
                           for s in sets])
        stacked = chebyshev_centers(padded)
        ragged = ragged_chebyshev_centers(np.concatenate(sets), sizes)
        for b, pts in enumerate(sets):
            want = chebyshev_center(pts)
            for centers, radii in (stacked, ragged):
                assert same_bits(centers[b], want.center)
                assert same_bits(radii[b], want.radius)

    def test_chunks_do_not_change_the_balls(self, monkeypatch):
        rng = np.random.default_rng(11)
        sizes = rng.integers(1, 9, 30)
        points = rng.standard_normal((sizes.sum(), 3))
        whole = ragged_chebyshev_centers(points, sizes)
        monkeypatch.setattr(ball_module, "BATCH_CHUNK", 1)
        one_by_one = ragged_chebyshev_centers(points, sizes)
        assert same_bits(whole[0], one_by_one[0]) and same_bits(whole[1], one_by_one[1])

    @pytest.mark.parametrize(
        "points, sizes, message",
        [
            (np.zeros((3, 2)), [], "set sizes"),
            (np.zeros((3, 2)), [2, 0, 1], ">= 1"),
            (np.zeros((3, 2)), [2, 2], "add up"),
            (np.zeros(3), [3], "point array"),
            (np.full((2, 2), np.nan), [2], "finite"),
            (np.zeros((2, 17)), [2], "dimension"),
        ],
    )
    def test_rejects_bad_input(self, points, sizes, message):
        with pytest.raises(ValueError, match=message):
            ragged_chebyshev_centers(points, sizes)


class TestJung:
    @pytest.mark.parametrize("pts", [np.zeros((3, 0)), np.zeros((2, 2, 2)), [[np.inf, 0.0]]])
    def test_rejects_bad_input_before_the_scan(self, pts):
        with pytest.raises(ValueError, match="point array|finite"):
            jung_check(pts)

    def test_ratio_values(self):
        assert jung_ratio(1) == pytest.approx(0.5, abs=1e-15)
        assert jung_ratio(2) == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        assert jung_ratio(3) == pytest.approx(math.sqrt(3.0 / 8.0), abs=1e-15)

    def test_segment_attains_lower_bound(self):
        chk = jung_check([[0.0], [4.0]])
        assert chk.ok
        assert chk.radius == pytest.approx(chk.lower, abs=1e-12)
        assert chk.radius == pytest.approx(2.0, abs=1e-12)

    def test_equilateral_attains_upper_bound(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
        chk = jung_check(pts)
        assert chk.ok
        assert chk.radius == pytest.approx(chk.upper, abs=1e-9)

    def test_regular_tetrahedron_attains_upper_bound(self):
        pts = [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
        chk = jung_check(pts)
        assert chk.ok
        assert chk.radius == pytest.approx(chk.upper, abs=1e-9)

    def test_diameter_pair_realizes_diameter(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 1.0]])
        chk = jung_check(pts)
        i, j = chk.diameter_pair
        assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(chk.diameter)

    @given(point_cloud(max_dim=3, max_points=8))
    @settings(max_examples=60)
    def test_sandwich_everywhere(self, pts):
        chk = jung_check(pts)
        assert chk.ok
        assert chk.lower <= chk.radius + 1e-9
        assert chk.radius <= chk.upper + 1e-9

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e9, 1e12])
    def test_large_coordinates_pass(self, scale):
        """The sandwich is checked up to ``HULL_TOL * max(1, radius)``: at 1e9
        a two-point radius can fall below diam/2 by 6e-8 from rounding."""
        for seed in range(60):
            pts = np.random.default_rng(seed).standard_normal((2, 2)) * scale
            assert jung_check(pts).ok, seed
        assert jung_check(np.random.default_rng(1).standard_normal((50, 3)) * scale).ok

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e9, 1e12])
    def test_shrunk_radius_fails(self, scale, monkeypatch):
        solve = ball_module.chebyshev_center

        def shrunk(points):
            cert = solve(points)
            return dataclasses.replace(cert, radius=cert.radius * (1.0 - 1e-6))

        monkeypatch.setattr(ball_module, "chebyshev_center", shrunk)
        pts = np.random.default_rng(0).standard_normal((2, 2)) * scale
        assert not jung_check(pts).ok

    @given(point_cloud(max_dim=3, max_points=8))
    @settings(max_examples=40)
    def test_diameter_matches_full_matrix(self, pts):
        self._check_against_full_matrix(np.asarray(pts, dtype=float))

    def test_diameter_ties_keep_first_pair(self):
        grid = np.array([[x, y] for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0, 2.0)])
        self._check_against_full_matrix(grid)
        self._check_against_full_matrix(grid[::-1])

    @staticmethod
    def _check_against_full_matrix(arr):
        diff = arr[:, None, :] - arr[None, :, :]
        dmat = np.sqrt((diff * diff).sum(axis=2))
        pair = np.unravel_index(int(np.argmax(dmat)), dmat.shape)
        chk = jung_check(arr)
        assert chk.diameter == float(dmat[pair])
        assert chk.diameter_pair == (int(pair[0]), int(pair[1]))
