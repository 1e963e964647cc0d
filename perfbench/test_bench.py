"""Self-checks of the benchmark: seeded instances, and the span mapping that
the per-module metrics rest on.

Run from the root of a checkout (one traced pass per workload, about a
minute): ``python -m pytest perfbench -q``
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import run
import tracer
import workloads

W, M, P = "walks", "measures", "points"

#: wrapped functions and the workloads on which each must record a span
FIRES = {
    "cli.main": {W, M, P},
    "serialize.dumps_deterministic": {W, M, P},
    "serialize.write_atomic": {W, M, P},
    "serialize.sha256_file": {W, M, P},
    "metric.FiniteMetricSpace": {W, M, P},
    "maxflow.transport_flow": {W, M},
    "prokhorov.DiscreteMeasure": {W, M},
    "prokhorov.tv_distance": {M},
    "prokhorov.check_alpha": {W, M},
    "prokhorov.prokhorov_distance": {W, M},
    "prokhorov.mu_ut": {M},
    "prokhorov.diameter_partition": {M},
    "prokhorov.prokhorov_net": {M},
    "prokhorov.verify_qprokh": {M},
    "ball.chebyshev_center": {W, P},
    "cover.cover_profile": {P},
    "cover.covering_radius": {W},
    "paths.PLPath": {W, P},
    "paths.uniform_distance": {W, P},
    "paths.modulus": {W, P},
    "paths.mu_uec_family": {P},
    "paths.aa_net": {W, P},
    "paths.verify_qaa": {P},
    "stochastic.PathEnsemble": {W},
    "stochastic.mu_sub_hat": {W},
    "stochastic.mu_suec_hat": {W},
    "stochastic.path_metric_space": {W},
    "stochastic.sample_walks": {W},
    "stochastic.verify_qsaa": {W},
}


@pytest.fixture(scope="module")
def traced():
    """Spans of one traced pass per workload, after its outputs passed the checks."""
    os.makedirs(os.path.join(run.HERE, "_runs"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selfcheck-", dir=os.path.join(run.HERE, "_runs"))
    try:
        out = {}
        for workload in workloads.WORKLOADS:
            jobs, inst, *_ = run.setup(workload, 1, os.path.join(work, workload), 0)
            p = run.run_pass(jobs, inst, os.path.join(work, workload, "pass"), traced=True)
            assert run.check_passes(jobs, inst, [p]) == ([], [])
            out[workload] = []
            for job_run in p.runs:
                with open(job_run.spans) as handle:
                    out[workload].append(json.load(handle))
        yield out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _calls(jobs: list[dict]) -> dict[str, int]:
    calls: dict[str, int] = {}
    for job in jobs:
        for rec in job["spans"]:
            calls[rec[2]] = calls.get(rec[2], 0) + 1
    return calls


def test_same_seed_same_instances(tmp_path):
    for workload in workloads.WORKLOADS:
        hashes = []
        for name, seed in (("a", 1), ("b", 1), ("c", 2)):
            inst = tmp_path / f"{workload}-{name}"
            inst.mkdir()
            workloads.generate(workload, seed, str(inst))
            hashes.append(workloads.instance_hashes(str(inst)))
        assert hashes[0] == hashes[1]
        assert hashes[0] != hashes[2]


def test_install_rebinds_every_alias():
    # after install, no qcompact module may still hold an unwrapped original
    code = (
        "import sys, qcompact.cli\n"
        "from tracer import Tracer\n"
        "installed = Tracer('t').install()\n"
        "originals = {id(o): n for n, (o, w) in installed.items()}\n"
        "left = sorted(f'{m}.{k}' for m, mod in list(sys.modules.items())\n"
        "              if m.startswith('qcompact') for k, v in vars(mod).items()\n"
        "              if id(v) in originals)\n"
        "print(len(installed), left)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([run.SRC, run.HERE]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split(maxsplit=1)
    assert out == [str(len(tracer.WRAPPED)), "[]\n"]


def test_every_wrapped_function_records_where_its_module_runs(traced):
    assert set(FIRES) == {tracer.span_name(m, t) for m, t, _ in tracer.WRAPPED}
    missing = [
        f"{name} on {workload}"
        for name, where in FIRES.items()
        for workload in sorted(where)
        if _calls(traced[workload]).get(name, 0) == 0
    ]
    assert missing == []


def test_modules_stay_off_the_workloads_that_bypass_them(traced):
    layers = {w: tracer.layer_metrics(jobs) for w, jobs in traced.items()}
    assert layers[P]["maxflow.calls"] == 0
    assert layers[M]["ball.calls"] == 0
    assert layers[W]["ball.calls_1d"] > 0
    assert layers[M]["ball.calls_1d"] == layers[P]["ball.calls_1d"] == 0


def test_module_self_times_add_up_to_the_job(traced):
    for jobs in traced.values():
        for job in jobs:
            root = job["spans"][0]
            assert root[1] == -1 and root[2] == "trace.job"
            total = sum(tracer.module_self_times(job["spans"]).values())
            assert total == pytest.approx(root[4] - root[3], abs=1e-6)
            assert set(tracer.module_self_times(job["spans"])) <= set(tracer.MODULES)


def test_exact_masses_sum_to_one():
    for seed in (1, 2):
        inst = tempfile.mkdtemp()
        try:
            workloads.generate(M, seed, inst)
            for name in ("p400.json", "q400.json", "fam0.json", "p1000.json"):
                with open(os.path.join(inst, name)) as handle:
                    mass = json.load(handle)["mass"]
                ticks = [m / workloads.MASS_TICK for m in mass]
                assert all(t == int(t) >= 0 for t in ticks)
                assert sum(int(t) for t in ticks) * workloads.MASS_TICK == 1.0
        finally:
            shutil.rmtree(inst, ignore_errors=True)


@pytest.fixture
def qcompact():
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import qcompact

    return qcompact


def test_known_defect_recheck_rejects_float_masses(qcompact):
    """The defect that the measures workload's exact masses step round.

    With Dirichlet masses left as plain floats (seed 13 of ``measures``
    before rounding to ticks), the sweep's alpha fails the 1e-15 recheck in
    ``check_alpha``.  The same instance with exact masses passes.  When the
    defect is fixed, the first call stops raising: then drop this test, and
    the benchmark may go back to plain float masses.
    """
    rng = np.random.default_rng([13, workloads.WORKLOADS.index(M)])
    space = qcompact.FiniteMetricSpace(coords=rng.random((400, 2)), validate_triangle=False)
    raw = [rng.dirichlet(np.ones(400)) for _ in range(2)]
    P, Q = (qcompact.DiscreteMeasure(space, m / m.sum()) for m in raw)
    with pytest.raises(qcompact.InternalConsistencyError):
        qcompact.prokhorov_distance(P, Q, 0.5)
    ticks = [np.floor(m / workloads.MASS_TICK) for m in raw]
    for t in ticks:
        t[np.argmax(t)] += 1.0 / workloads.MASS_TICK - t.sum()
    P, Q = (qcompact.DiscreteMeasure(space, t * workloads.MASS_TICK) for t in ticks)
    assert qcompact.prokhorov_distance(P, Q, 0.5).certificate.feasible
