"""Workload definitions: seeded instance files and the job list of one pass.

Every workload is a fixed, ordered list of CLI jobs.  ``generate`` writes the
instance files a workload needs into a directory, using only the workload
seed, and returns the jobs.  Job arguments name files through two
placeholders, ``{inst}`` (the instance directory) and ``{out}`` (the
directory of the pass that runs the job), filled in just before the job runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("walks", "measures", "points")

#: commands whose exit code 3 (inconclusive sandwich) is an allowed outcome
SANDWICH_COMMANDS = ("verify-qprokh", "verify-qaa", "verify-qsaa")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``qcompact <command> <args...> --out {out}/<report>``."""

    metric: str  # per-command latency name, such as "verify_qsaa_s"
    command: str
    args: tuple[str, ...]
    report: str

    @property
    def exit_ok(self) -> tuple[int, ...]:
        return (0, 3) if self.command in SANDWICH_COMMANDS else (0,)

    def argv(self, inst: str, out: str) -> list[str]:
        """CLI arguments with the placeholders filled in."""
        fill = [a.format(inst=inst, out=out) for a in self.args]
        return [self.command, *fill, "--out", os.path.join(out, self.report)]


def _write(path: str, obj) -> None:
    with open(path, "w") as handle:
        json.dump(obj, handle, separators=(",", ":"), sort_keys=True)


#: measure masses are whole multiples of this, so that they and every sum of
#: them below 2 are exact floats
MASS_TICK = 2.0**-52


def _dirichlet(rng: np.random.Generator, n: int) -> list[float]:
    """Dirichlet masses, rounded down to whole ticks, that sum to exactly 1.

    ``prokhorov_distance`` rejects its own answer when rounding in the masses'
    sums exceeds a bare 1e-15 (see README, known defects); exact masses keep
    the benchmark's operations from failing on that defect.
    """
    ticks = np.floor(rng.dirichlet(np.ones(n)) / MASS_TICK).astype(np.int64)
    ticks[np.argmax(ticks)] += round(1.0 / MASS_TICK) - int(ticks.sum())
    return (ticks * MASS_TICK).tolist()


def _moved(rng: np.random.Generator, cloud: np.ndarray) -> list:
    """``cloud`` translated by a seeded offset, which keeps its distances
    and the order of its points along every axis."""
    return (cloud + rng.uniform(-1.0, 1.0, cloud.shape[1])).tolist()


def _walks(rng: np.random.Generator, inst: str) -> list[Job]:
    # the two ensembles are made by the CLI itself, from seeds drawn here
    seed_a, seed_b = (int(s) for s in rng.integers(0, 2**31, size=2))
    gen = ("--n-steps", "64", "--n-paths", "200", "--scale", "1")
    return [
        Job("gen_walks_s", "gen-walks", (*gen, "--seed", str(seed_a)), "walks_a.json"),
        Job("gen_walks_s", "gen-walks", (*gen, "--seed", str(seed_b)), "walks_b.json"),
        Job(
            "verify_qsaa_s",
            "verify-qsaa",
            (
                "{out}/walks_a.json", "{out}/walks_b.json",
                "--lambda-grid", "0.5,1,2", "--eps-grid", "0.25",
                "--delta-grid", "0.01", "--m-grid", "2.0", "--eps", "0.05",
            ),
            "qsaa.json",
        ),
    ]


def _measures(rng: np.random.Generator, inst: str) -> list[Job]:
    # shared space files: every measure names the same file, so the CLI loads
    # each space once per job
    _write(os.path.join(inst, "space400.json"), {"coords": rng.random((400, 2)).tolist()})
    for name in ("p", "q"):
        _write(
            os.path.join(inst, f"{name}400.json"),
            {"space": "space400.json", "mass": _dirichlet(rng, 400)},
        )
    # verify-qprokh builds its whole measure net when the net is small, and
    # the net grows 10x with each further cell of the lam=2 partition (91,
    # 969, 10626, 118755 measures for 3 to 6 cells).  The family's space is
    # therefore one fixed cloud that the seed only moves; the masses are new
    # per seed.
    _write(os.path.join(inst, "space300.json"),
           {"coords": _moved(rng, np.random.default_rng(0).random((300, 2)))})
    family = []
    for i in range(6):
        family.append(f"{{inst}}/fam{i}.json")
        _write(
            os.path.join(inst, f"fam{i}.json"),
            {"space": "space300.json", "mass": _dirichlet(rng, 300)},
        )
    # inline spaces: each file carries its own copy of the common space, so
    # the CLI builds (and triangle-checks) it twice
    coords = rng.random((1000, 2)).tolist()
    for name in ("p", "q"):
        _write(
            os.path.join(inst, f"{name}1000.json"),
            {"space": {"coords": coords}, "mass": _dirichlet(rng, 1000)},
        )
    # one prokhorov-dist job per lambda: with all three in one job, the job's
    # peak RSS moved by 25 MiB over seeds and by 5 MiB between repeats
    return [
        *(
            Job(
                "prokhorov_dist_s",
                "prokhorov-dist",
                ("{inst}/p400.json", "{inst}/q400.json", "--lambda-grid", lam),
                f"prokhorov-{lam}.json",
            )
            for lam in ("0.5", "1", "2")
        ),
        Job(
            "verify_qprokh_s",
            "verify-qprokh",
            (*family, "--lambda-grid", "0.5,1,2", "--eps", "0.5"),
            "qprokh.json",
        ),
        Job("tv_dist_s", "tv-dist", ("{inst}/p1000.json", "{inst}/q1000.json"), "tv.json"),
    ]


def _points(rng: np.random.Generator, inst: str) -> list[Job]:
    # The recursive ball solver's cost varies 2-4x between Gaussian clouds of
    # one size (interquartile range 1-2x the median over ten clouds), far
    # more than any bound this benchmark could hold.  So the two
    # whole-cloud jobs use one fixed Gaussian cloud each, and the seed only
    # moves it: that keeps the solver's path, hence its work, the same.
    fixed = np.random.default_rng(0)
    _write(os.path.join(inst, "cheby16.json"),
           {"coords": _moved(rng, fixed.standard_normal((80, 16)))})
    _write(os.path.join(inst, "cover8.json"),
           {"coords": _moved(rng, fixed.standard_normal((300, 8)))})
    knots = np.linspace(0.0, 1.0, 33)
    steps = rng.standard_normal((60, 32, 3)) / np.sqrt(32.0)
    values = np.concatenate([np.zeros((60, 1, 3)), np.cumsum(steps, axis=1)], axis=1)
    _write(
        os.path.join(inst, "family3d.json"),
        {"paths": [{"knots": knots.tolist(), "values": v.tolist()} for v in values]},
    )
    # the norm bound must hold for every path, so round the family's own
    # largest sup norm up to 6 decimals
    bound_m = np.ceil(np.sqrt((values**2).sum(axis=2)).max() * 1e6) / 1e6
    return [
        Job("cheby_s", "cheby", ("{inst}/cheby16.json",), "cheby.json"),
        Job(
            "cover_profile_s",
            "cover-profile",
            ("{inst}/cover8.json", "--k-max", "6"),
            "cover.json",
        ),
        Job(
            "verify_qaa_s",
            "verify-qaa",
            (
                "{inst}/family3d.json", "--delta-grid", "0.05,0.1,0.2",
                "--bound-m", repr(float(bound_m)), "--eps", "0.05",
            ),
            "qaa.json",
        ),
    ]


_GENERATORS = {"walks": _walks, "measures": _measures, "points": _points}


def generate(workload: str, seed: int, inst: str) -> list[Job]:
    """Write ``workload``'s instance files for ``seed`` into ``inst``; return its jobs.

    The job list itself is written as ``jobs.json``, so that the instance
    hashes cover the arguments as well as the files.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = _GENERATORS[workload](rng, inst)
    _write(
        os.path.join(inst, "jobs.json"),
        [[j.metric, j.command, list(j.args), j.report] for j in jobs],
    )
    return jobs


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def instance_hashes(inst: str) -> dict[str, str]:
    """sha256 of every file in an instance directory, by file name."""
    return {name: sha256(os.path.join(inst, name)) for name in sorted(os.listdir(inst))}
