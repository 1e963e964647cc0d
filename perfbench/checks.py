"""Output checks, run after the timed passes.

Each check reads a job's report and the instance files, and returns a list
of problems (empty when the report is right).  Checks read only a report's
``results`` (gen-walks writes a bare ensemble, not an envelope).  The
Prokhorov certificates are re-validated with the program's own
``CouplingCertificate.validate``, so this module imports qcompact; the
benchmark loads it only once timing is over.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np

#: slack on containment and on the reported covering guarantee
TOL = 1e-9


def _load(path: str):
    with open(path) as handle:
        return json.load(handle)


def _measure_mass(inst: str, name: str) -> np.ndarray:
    mass = np.asarray(_load(os.path.join(inst, name))["mass"], dtype=float)
    return mass / mass.sum()


def _tv(inst: str, p: str, q: str) -> float:
    return float(np.clip(_measure_mass(inst, p) - _measure_mass(inst, q), 0.0, None).sum())


def _status(results: dict, code: int) -> list[str]:
    status = results["report"]["status"]
    expected = {"verified": 0, "inconclusive": 3}.get(status)
    if expected is None:
        return [f"status {status!r}"]
    if code != expected:
        return [f"status {status!r} but exit code {code}"]
    return []


def check_gen_walks(report: dict, inst: str, code: int, path: str) -> list[str]:
    paths = report["paths"]
    if len(paths) != 200 or any(len(p["knots"]) != 65 for p in paths):
        return ["ensemble is not 200 paths of 64 steps"]
    return []


def check_verify_qsaa(report: dict, inst: str, code: int, path: str) -> list[str]:
    results = report["results"]
    problems = _status(results, code)
    for row in results["report"]["lambda_rows"]:
        if not row["covering"] <= row["guaranteed"] + TOL:
            problems.append(f"lambda {row['lam']}: covering above its guarantee")
    return problems


def check_prokhorov_dist(report: dict, inst: str, code: int, path: str) -> list[str]:
    """Certificates and bounds of one report.  The benchmark runs one
    ``prokhorov-dist`` job per lambda, so monotonicity in lambda is checked
    over every ``prokhorov-*.json`` report beside this one."""
    from qcompact import CouplingCertificate, DiscreteMeasure, FiniteMetricSpace, QCompactError

    space = FiniteMetricSpace(coords=_load(os.path.join(inst, "space400.json"))["coords"],
                              validate_triangle=False)
    P = DiscreteMeasure(space, _measure_mass(inst, "p400.json"))
    Q = DiscreteMeasure(space, _measure_mass(inst, "q400.json"))
    tv = _tv(inst, "p400.json", "q400.json")
    problems = []
    for row in report["results"]["rows"]:
        c = row["certificate"]
        cert = CouplingCertificate(
            lam=c["lam"], alpha=c["alpha"], p_support=tuple(c["p_support"]),
            q_support=tuple(c["q_support"]), flow=np.asarray(c["flow"], dtype=float),
            slack_mass=c["slack_mass"],
        )
        try:
            cert.validate(P, Q)
        except (QCompactError, ValueError) as exc:
            problems.append(f"lambda {row['lambda']}: certificate rejected: {exc}")
        alpha = row["alpha_star"]
        if alpha > tv + 1e-12:
            problems.append(f"lambda {row['lambda']}: alpha_star {alpha} above tv {tv}")
    rows = []
    for sibling in glob.glob(os.path.join(os.path.dirname(path), "prokhorov-*.json")):
        rows += _load(sibling)["results"]["rows"]
    alphas = [r["alpha_star"] for r in sorted(rows, key=lambda r: r["lambda"])]
    if any(b > a for a, b in zip(alphas, alphas[1:])):
        problems.append("alpha_star increases with lambda")
    return problems


def check_verify_qprokh(report: dict, inst: str, code: int, path: str) -> list[str]:
    return _status(report["results"], code)


def check_tv_dist(report: dict, inst: str, code: int, path: str) -> list[str]:
    tv = _tv(inst, "p1000.json", "q1000.json")
    got = report["results"]["tv"]
    return [] if abs(got - tv) <= 1e-12 else [f"tv {got} but numpy gives {tv}"]


def check_cheby(report: dict, inst: str, code: int, path: str) -> list[str]:
    pts = np.asarray(_load(os.path.join(inst, "cheby16.json"))["coords"], dtype=float)
    ball = report["results"]["ball"]
    center, radius = np.asarray(ball["center"]), ball["radius"]
    problems = []
    if np.sqrt(((pts - center) ** 2).sum(axis=1)).max() > radius + TOL:
        problems.append("a point lies outside the ball")
    diff = pts[:, None, :] - pts[None, :, :]
    if radius < np.sqrt((diff * diff).sum(axis=2)).max() / 2.0:
        problems.append("radius below half the diameter")
    return problems


def check_cover_profile(report: dict, inst: str, code: int, path: str) -> list[str]:
    entries = report["results"]["profile"]["entries"]
    radii = [e["radius"] for e in entries]
    problems = []
    if any(b > a for a, b in zip(radii, radii[1:])):
        problems.append("r_k increases")
    if any(e["packing"] > e["radius"] for e in entries):
        problems.append("p_k above r_k")
    return problems


def check_verify_qaa(report: dict, inst: str, code: int, path: str) -> list[str]:
    return _status(report["results"], code)


CHECKS = {
    "gen-walks": check_gen_walks,
    "verify-qsaa": check_verify_qsaa,
    "prokhorov-dist": check_prokhorov_dist,
    "verify-qprokh": check_verify_qprokh,
    "tv-dist": check_tv_dist,
    "cheby": check_cheby,
    "cover-profile": check_cover_profile,
    "verify-qaa": check_verify_qaa,
}


def check_report(command: str, path: str, inst: str, code: int) -> list[str]:
    """Problems with one report, or ``["unreadable report: ..."]``."""
    try:
        report = _load(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    try:
        return CHECKS[command](report, inst, code, path)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"report lacks an expected field: {exc!r}"]
