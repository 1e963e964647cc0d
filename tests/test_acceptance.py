"""End-to-end acceptance gate.

Each test here pins one headline guarantee of the library at desk scale,
with explicit instance counts and tolerances.  They are intentionally
self-contained and seeded: rerunning the suite reproduces the exact
instances.
"""

import json
import math

import numpy as np
import pytest

from qcompact import (
    DiscreteMeasure,
    FiniteMetricSpace,
    PLPath,
    aa_net,
    chebyshev_center,
    cover_profile,
    exact_kcenter,
    jung_check,
    jung_ratio,
    mu_uec_family,
    path_prokhorov,
    prokhorov_distance,
    prokhorov_net,
    prokhorov_oracle,
    sample_walks,
    tv_distance,
    uniform_distance,
    verify_qaa,
    verify_qsaa,
)
from qcompact.cli import main as cli_main


def random_space(rng, max_points=12, distinct=False):
    n = int(rng.integers(2, max_points + 1))
    if distinct:
        grid = rng.choice(41 * 41, size=n, replace=False)
        coords = np.stack([grid // 41, grid % 41], axis=1) / 8.0
    else:
        coords = rng.uniform(0.0, 4.0, size=(n, 2))
    return FiniteMetricSpace(coords=coords)


def random_measure(rng, space, allow_zeros=True):
    w = rng.uniform(0.0 if allow_zeros else 0.05, 1.0, size=space.n_points)
    if allow_zeros and space.n_points > 1 and rng.random() < 0.4:
        kill = rng.integers(0, space.n_points)
        w[kill] = 0.0
    if w.sum() <= 0:
        w[:] = 1.0
    return DiscreteMeasure(space, w / w.sum())


def ramp_family(h=0.01, step=0.005):
    fam = []
    for s in np.arange(0.0, 1.0, step):
        knots = sorted({0.0, float(s), float(min(s + h, 1.0)), 1.0})
        vals = [[float(min(max((t - s) / h, 0.0), 1.0))] for t in knots]
        fam.append(PLPath(knots, vals))
    return fam


def test_c01_prokhorov_matches_bruteforce_oracle():
    """200 random pairs, <= 12 points, lambda in {0.25, 1, 4}: agree to 1e-9."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        space = random_space(rng)
        P, Q = random_measure(rng, space), random_measure(rng, space)
        for lam in (0.25, 1.0, 4.0):
            got = prokhorov_distance(P, Q, lam).alpha_star
            want = prokhorov_oracle(P, Q, lam)
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-9
    print(f"\n  c1: worst |flow - oracle| = {worst:.3e} over 600 evaluations")


def test_c02_lambda_monotone_tv_dominant_and_tv_limit():
    """500 pairs, 6 lambdas: nonincreasing, <= TV, and tiny-lambda -> TV."""
    rng = np.random.default_rng(202)
    lams = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    for _ in range(500):
        space = random_space(rng, max_points=9, distinct=True)
        P, Q = random_measure(rng, space), random_measure(rng, space)
        tv = tv_distance(P, Q)
        vals = [prokhorov_distance(P, Q, lam).alpha_star for lam in lams]
        for hi, lo in zip(vals, vals[1:]):
            assert lo <= hi + 1e-9
        for v in vals:
            assert v <= tv + 1e-9
        lam_tiny = 1e-9 * float(space.positive_distances().min())
        tiny = prokhorov_distance(P, Q, lam_tiny).alpha_star
        assert abs(tiny - tv) <= 1e-6
    print("\n  c2: 500 pairs x 6 lambdas monotone, TV-dominated, TV limit ok")


def test_c03_dirac_closed_form():
    """rho(delta_x, delta_y) = min(d/lambda, 1) to 1e-12 on a 20x20 grid."""
    ds = np.linspace(0.05, 4.0, 20)
    lams = np.linspace(0.1, 8.0, 20)
    worst = 0.0
    for d in ds:
        space = FiniteMetricSpace(np.array([[0.0, d], [d, 0.0]]))
        P = DiscreteMeasure.dirac(space, 0)
        Q = DiscreteMeasure.dirac(space, 1)
        for lam in lams:
            got = prokhorov_distance(P, Q, float(lam)).alpha_star
            want = min(d / lam, 1.0)
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-12
    print(f"\n  c3: worst closed-form error {worst:.3e} over 400 cells")


def test_c04_net_covering_claim():
    """20 random families: every member within eps of its net companion."""
    rng = np.random.default_rng(404)
    for trial in range(20):
        n = int(rng.integers(4, 16))
        space = FiniteMetricSpace(coords=rng.uniform(0, 1, size=(n, 2)))
        family = [
            random_measure(rng, space, allow_zeros=False)
            for _ in range(int(rng.integers(1, 6)))
        ]
        lam = float(rng.uniform(0.5, 2.0))
        eps = float(rng.uniform(0.4, 0.9))
        net = prokhorov_net(family, lam, eps)
        for P, Qr in zip(family, net.assigned):
            rho = prokhorov_distance(P, Qr, lam).alpha_star
            assert rho <= net.eps + 1e-9
    print("\n  c4: 20 families, all members within eps of their net measure")


def test_c05_jung_sandwich_fuzz_and_simplex_equality():
    """1000 fuzzed point sets across N in {1,2,3,8}; simplex equality."""
    rng = np.random.default_rng(505)
    for dim in (1, 2, 3, 8):
        for _ in range(250):
            pts = rng.uniform(-3, 3, size=(int(rng.integers(2, 9)), dim))
            chk = jung_check(pts)
            assert chk.ok
            assert chk.diameter / 2 - 1e-9 <= chk.radius
            assert chk.radius <= jung_ratio(dim) * chk.diameter + 1e-9
    simplexes = {
        1: np.array([[0.0], [1.0]]),
        2: np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]),
        3: np.array(
            [
                [1.0, 1.0, 1.0],
                [1.0, -1.0, -1.0],
                [-1.0, 1.0, -1.0],
                [-1.0, -1.0, 1.0],
            ]
        ),
    }
    for dim, pts in simplexes.items():
        chk = jung_check(pts)
        assert abs(chk.radius - chk.upper) <= 1e-9
    print("\n  c5: 1000 fuzz sets sandwiched; simplex upper-bound equality N=1,2,3")


def test_c06_interpolation_bridges():
    """1000 random configurations per bridge inequality, 1e-12 tolerance."""
    rng = np.random.default_rng(606)
    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        c1, c2 = rng.uniform(-2, 2, size=(2, dim))
        mid = 0.5 * (c1 + c2)
        r = float(np.linalg.norm(c1 - mid)) + float(rng.uniform(0.0, 1.0))
        bridge = PLPath([0.0, 1.0], np.stack([c1, c2]))
        const = PLPath([0.0, 1.0], np.stack([mid, mid]))
        assert uniform_distance(bridge, const) <= r + 1e-12
    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.0, 0.5))
        c1, c2 = rng.uniform(-2, 2, size=(2, dim))
        shift1 = rng.uniform(-1, 1, size=dim)
        shift2 = rng.uniform(-1, 1, size=dim)
        for s in (shift1, shift2):
            norm = np.linalg.norm(s)
            if norm > 0:
                s *= min(1.0, eps / norm)
        L = PLPath([0.0, 1.0], np.stack([c1, c2]))
        M = PLPath([0.0, 1.0], np.stack([c1 + shift1, c2 + shift2]))
        assert uniform_distance(L, M) <= eps + 1e-12
    print("\n  c6: 2000 bridge configurations within 1e-12 of their bounds")


def test_c07_aa_net_certificate():
    """Ramp family (h=0.01, 200 samples) plus 10 random families: certified."""
    fam = ramp_family(h=0.01, step=0.005)
    assert len(fam) == 200
    net = aa_net(fam, 0.05, mu_uec_family(fam, 0.05), 1.0, 0.005)
    assert net.sampling_slack == 0.0
    for s in net.per_sample:
        assert s.achieved <= s.bound + 1e-9

    rng = np.random.default_rng(707)
    dims = [1, 2, 3, 1, 2, 3, 1, 2, 3, 1]
    for dim in dims:
        paths = []
        for _ in range(int(rng.integers(1, 5))):
            inner = np.sort(rng.choice(np.arange(1, 20), size=int(rng.integers(0, 4)), replace=False))
            knots = [0.0] + [float(t) / 20 for t in inner] + [1.0]
            vals = rng.uniform(-2, 2, size=(len(knots), dim))
            paths.append(PLPath(knots, vals))
        delta = float(rng.choice([0.1, 0.2, 0.4]))
        alpha = mu_uec_family(paths, delta)
        bound_m = max(x.sup_norm for x in paths) + 1e-12
        net = aa_net(paths, delta, alpha, bound_m, 0.02)
        assert net.sampling_slack == 0.0
        for s in net.per_sample:
            assert s.achieved <= s.bound + 1e-9
    print("\n  c7: every per-sample distance within the certified bound, w = 0")


def test_c08_half_factor_witness_in_dim_one():
    """Steep ramps: oscillation defect 1 but net covering radius about 1/2."""
    fam = ramp_family(h=0.01, step=0.005)
    report = verify_qaa(fam, [0.025], 1.0, 0.005)
    row = report.rows[0]
    assert report.status == "verified"
    assert abs(row.alpha - 1.0) <= 0.02
    assert 0.45 <= row.covering <= 0.55
    print(
        f"\n  c8: defect {row.alpha:.3f}, covering {row.covering:.3f} "
        f"(one-dimensional half-factor witness)"
    )


def test_c09_stochastic_sandwich():
    """Spike mixture hits its exact numbers; walk families satisfy the sandwich."""
    flat = PLPath.constant([0.0])
    spikes = []
    for k in range(1, 6):
        c = k / 6.0
        knots = sorted({0.0, c - 0.005, c, c + 0.005, 1.0})
        vals = [[1.0] if t == c else [0.0] for t in knots]
        spikes.append(PLPath(knots, vals))
    from qcompact import PathEnsemble

    xi = [PathEnsemble([flat, s], [0.8, 0.2]) for s in spikes]
    report = verify_qsaa(xi, [0.5, 1.0, 2.0], [0.5], [0.05], [1.0], 0.01)
    assert report.status == "verified"
    assert report.tail.value == 0.0
    assert abs(report.osc.value - 0.2) <= 1e-12
    for row in report.lambda_rows:
        assert abs(row.covering - 0.2) <= 0.02
        assert max(report.tail.value, report.osc.value) <= (
            report.lower_sup_covering + report.eps
        )
        assert row.covering <= row.guaranteed + 1e-9

    for n in (16, 64, 256):
        walks = [sample_walks(n, 200, scale=1.0, seed=9000 + n)]
        rep = verify_qsaa(walks, [0.5, 1.0, 2.0], [0.25], [0.01], [2.0], 0.05)
        assert rep.status in ("verified", "inconclusive")
        for row in rep.lambda_rows:
            assert row.covering <= row.guaranteed + 1e-9
        assert max(rep.tail.value, rep.osc.value) <= rep.lower_sup_covering + rep.eps
    print("\n  c9: spike mixture exact; walk families sandwiched at n=16,64,256")


def test_c10_kcenter_certificates():
    """100 instances: p_k <= opt <= r_k <= 2 opt for every k <= 4."""
    rng = np.random.default_rng(1010)
    for _ in range(100):
        space = random_space(rng, max_points=12)
        prof = cover_profile(space.dist, 4)
        for entry in prof.entries:
            opt, _ = exact_kcenter(space.dist, entry.k)
            assert entry.packing <= opt + 1e-9
            assert opt <= entry.radius + 1e-9
            assert entry.radius <= 2 * opt + 1e-9
    print("\n  c10: 100 instances certified, greedy within factor 2 throughout")


def test_c11_cli_determinism(tmp_path):
    """Every CLI command, rerun with the same inputs, emits identical bytes."""

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    space = write("space.json", {"coords": [[0.0], [1.0], [2.5]]})
    p = write("p.json", {"space": "space.json", "mass": [0.5, 0.3, 0.2]})
    q = write("q.json", {"space": "space.json", "mass": [0.1, 0.2, 0.7]})
    path = write(
        "path.json", {"knots": [0.0, 0.4, 1.0], "values": [[0.0], [1.0], [0.2]]}
    )
    family = write(
        "family.json",
        {
            "paths": [
                {"knots": [0.0, 1.0], "values": [[0.0], [0.4]]},
                {"knots": [0.0, 1.0], "values": [[0.3], [0.3]]},
            ]
        },
    )
    points = write("points.json", {"coords": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]]})
    ensemble = write(
        "ens.json",
        {
            "weights": [0.6, 0.4],
            "paths": [
                {"knots": [0.0, 1.0], "values": [[0.0], [0.2]]},
                {"knots": [0.0, 1.0], "values": [[0.5], [0.5]]},
            ],
        },
    )
    commands = {
        "prokhorov-dist": [p, q, "--lambda-grid", "0.5,1.0,2.0"],
        "tv-dist": [p, q],
        "mu-ut": [p, q, "--eps-grid", "0.5,1.5", "--k-max", "2"],
        "cover-profile": [space, "--k-max", "2"],
        "modulus": [path, "--delta-grid", "0.1,0.3"],
        "cheby": [points],
        "jung-check": [points],
        "aa-net": [
            family, "--delta", "0.3", "--alpha", "0.12",
            "--bound-m", "1.0", "--eps", "0.05",
        ],
        "verify-qprokh": [p, q, "--lambda-grid", "1.0", "--eps", "0.8"],
        "verify-qaa": [
            family, "--delta-grid", "0.3", "--bound-m", "1.0", "--eps", "0.05",
        ],
        "verify-qsaa": [
            ensemble, "--lambda-grid", "1.0", "--eps-grid", "0.5",
            "--delta-grid", "0.25", "--m-grid", "1.0", "--eps", "0.05",
        ],
        "gen-walks": [
            "--n-steps", "8", "--n-paths", "4", "--scale", "1.0", "--seed", "3",
        ],
    }
    assert len(commands) == 12
    for name, args in commands.items():
        out1 = tmp_path / f"{name}-1.json"
        out2 = tmp_path / f"{name}-2.json"
        rc1 = cli_main([name, *args, "--out", str(out1)])
        rc2 = cli_main([name, *args, "--out", str(out2)])
        assert rc1 == 0 and rc2 == 0, name
        assert out1.read_bytes() == out2.read_bytes(), name
    print("\n  c11: 12 commands, byte-identical reruns")
