"""End-to-end benchmark of the qcompact command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload walks --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38

Each workload is a closed loop: one client runs the workload's job list in a
fixed order, one ``python -m qcompact.cli`` process at a time.  After one
whole pass it goes round the list again, starting each job only if the
job's median latency so far lets it end within ``--seconds``; the last pass
may stop short.  Instance files come from ``--seed`` alone.  Reports go to a fresh directory under
``perfbench/_runs`` that is removed at exit.  Outputs are checked after the
timed passes.  A job that exits with an unexpected code is a failed
operation: it counts in ``failed``.  A report that fails a check also counts
in ``failed``, and makes the run incorrect (``correct`` false, exit 1).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each untraced pass is followed by a
traced one (every job run in process under ``traced_job.py``) and the JSON
object holds the per-module metrics.  ``--workload all`` runs every workload
and exits 1 if any report failed a check.  The lines before the JSON object name every
metric with its unit, the per-command latencies with their sample counts,
and the run environment.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACED_JOB = os.path.join(HERE, "traced_job.py")

#: set-ups per run; setup_s is their median
SETUP_REPS = 5
#: a seed kept out of tuning, for confirming later claims
HELDOUT_SEED = 20261017
#: a job that runs longer than this is killed and counts as failed
JOB_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: the cheapest complete CLI run: imports every module, writes a report
WARMUP_ARGS = ("gen-walks", "--n-steps", "1", "--n-paths", "1", "--scale", "1", "--seed", "0")


@dataclass
class JobRun:
    code: int
    wall_s: float
    maxrss_kb: int
    report: str
    err: str
    spans: str | None


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    runs: list[JobRun] = field(default_factory=list)


def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def spawn(argv: list[str], err_path: str) -> tuple[int, float, int]:
    """Run argv to completion; return (exit code, wall seconds, ru_maxrss in KiB)."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=job_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Setup(NamedTuple):
    jobs: list
    inst: str
    hashes: dict
    seconds: float
    warmup_code: int


def setup(workload: str, seed: int, work: str, rep: int) -> Setup:
    """Generate the instances into ``work/inst<rep>`` and run one warm-up CLI process."""
    t0 = time.perf_counter()
    inst = os.path.join(work, f"inst{rep}")
    os.makedirs(inst)
    jobs = workloads.generate(workload, seed, inst)
    hashes = workloads.instance_hashes(inst)
    warm = os.path.join(work, f"warmup{rep}.json")
    code, _, _ = spawn([sys.executable, "-m", "qcompact.cli", *WARMUP_ARGS, "--out", warm],
                       warm + ".err")
    return Setup(jobs, inst, hashes, time.perf_counter() - t0, code)


def run_pass(jobs: list, inst: str, out: str, traced: bool, fits=None) -> Pass:
    """Run the job list in order.  With ``fits``, job ``i`` starts only if
    ``fits(i)`` holds; the pass ends, short, at the first job that does not."""
    os.makedirs(out)
    result = Pass(traced)
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if fits is not None and not fits(i):
            break
        args = job.argv(inst, out)
        spans = None
        if traced:
            spans = os.path.join(out, f"spans{i}.json")
            argv = [sys.executable, TRACED_JOB, spans, f"{os.path.basename(out)}/{i}", "--", *args]
        else:
            argv = [sys.executable, "-m", "qcompact.cli", *args]
        err = os.path.join(out, f"job{i}.err")
        code, wall, rss = spawn(argv, err)
        result.runs.append(JobRun(code, wall, rss, os.path.join(out, job.report), err, spans))
    result.wall_s = time.perf_counter() - t0
    return result


def _last_line(path: str) -> str:
    with open(path, errors="replace") as handle:
        lines = handle.read().strip().splitlines()
    return lines[-1] if lines else "no message"


def check_passes(jobs: list, inst: str, passes: list[Pass]) -> tuple[list[str], list[str]]:
    """Check every job run, after timing.

    Returns two lists of lines.  ``failed`` has one line per run that exited
    with an unexpected code: a failed operation, which left no output to
    check.  ``wrong`` has one line per run whose report failed a check or
    differs from the job's first report.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    first: dict[int, str | None] = {}
    verdicts: dict[tuple, list[str]] = {}
    failed, wrong = [], []
    for k, p in enumerate(passes):
        for i, (job, run) in enumerate(zip(jobs, p.runs)):
            where = f"{'traced ' if p.traced else ''}pass {k} job {i} ({job.command})"
            if run.code not in job.exit_ok:
                failed.append(f"{where}: exit code {run.code}: {_last_line(run.err)}")
                continue
            try:
                digest = workloads.sha256(run.report)
            except OSError:
                digest = None
            found = []
            if digest != first.setdefault(i, digest):
                found.append("report differs from the first repeat")
            key = (digest, run.code)
            if key not in verdicts:
                verdicts[key] = checks.check_report(job.command, run.report, inst, run.code)
            found += verdicts[key]
            if found:
                wrong.append(f"{where}: " + "; ".join(found))
    return failed, wrong


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int, load_before: tuple) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
    }


def _samples(passes: list[Pass], i: int) -> list[float]:
    """Wall times of job ``i`` over the passes that ran it."""
    return [p.runs[i].wall_s for p in passes if len(p.runs) > i]


def end_to_end(jobs: list, passes: list[Pass], setup_s: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics, and one line per command with its median latency.

    ``batch_s`` is the sum over the job list of each job's median latency:
    the typical time of one pass, which also uses the jobs of the last,
    short pass.  The per-command latencies are printed, not returned: on a
    shared 2-core machine their spread from run to run exceeds any bound
    the benchmark may set, so ``batch_s`` gates their sum.
    """
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "batch_s": (sum(statistics.median(_samples(passes, i)) for i in range(len(jobs))), "s"),
        "peak_rss_mb": (max(r.maxrss_kb for p in passes for r in p.runs) / 1024.0, "MiB"),
    }
    lines = []
    for name in dict.fromkeys(j.metric for j in jobs):
        samples = [t for i, j in enumerate(jobs) if j.metric == name for t in _samples(passes, i)]
        lines.append(f"{name:<36} {statistics.median(samples):14.6g} s   median of {len(samples)}")
    return metrics, lines


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    """Per-module metrics: medians over traced passes of per-pass totals."""
    per_pass = []
    for p in traced:
        spans = []
        for run in p.runs:
            try:
                with open(run.spans) as handle:
                    spans.append(json.load(handle))
            except (OSError, ValueError):
                pass  # the job failed; check_passes reports it
        per_pass.append(tracer.layer_metrics(spans))
    values = {name: statistics.median([m[name] for m in per_pass]) for name in per_pass[0]}
    values["trace.batch_s"] = statistics.median([p.wall_s for p in traced])
    values["trace.untraced_batch_s"] = statistics.median([p.wall_s for p in untraced])
    values["trace.overhead_ratio"] = values["trace.batch_s"] / values["trace.untraced_batch_s"]
    return {name: (value, tracer.unit(name)) for name, value in values.items()}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; print its report lines; return the result object."""
    load_before = os.getloadavg()
    os.makedirs(os.path.join(HERE, "_runs"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(HERE, "_runs"))
    try:
        setups = [setup(workload, seed, work, r) for r in range(SETUP_REPS)]
        jobs, inst, hashes = setups[0][:3]
        setup_problems = [f"warm-up exit code {s.warmup_code}" for s in setups if s.warmup_code]
        if any(s.hashes != hashes for s in setups):
            setup_problems.append("instance files differ between set-ups of one seed")

        passes: list[Pass] = []
        t0 = time.perf_counter()
        deadline = t0 + seconds

        def out() -> str:
            return os.path.join(work, f"pass{len(passes)}")

        def fits(i: int) -> bool:
            # job i starts only if its median latency so far ends it in time
            return time.perf_counter() + statistics.median(_samples(passes, i)) <= deadline

        if trace:
            # whole untraced-traced pairs; a pair starts only if a pair of
            # the mean length so far would end within the time
            rounds = 0
            while not rounds or (time.perf_counter() - t0) * (rounds + 1) / rounds <= seconds:
                passes.append(run_pass(jobs, inst, out(), False))
                passes.append(run_pass(jobs, inst, out(), True))
                rounds += 1
        else:
            # one whole pass, then jobs in list order while each fits
            passes.append(run_pass(jobs, inst, out(), False))
            while len(passes[-1].runs) == len(jobs) and time.perf_counter() < deadline:
                passes.append(run_pass(jobs, inst, out(), False, fits))
        failed_runs, wrong_runs = check_passes(jobs, inst, passes)
        untraced = [p for p in passes if not p.traced]
        attempted = sum(len(p.runs) for p in passes)
        failed = len(failed_runs) + len(wrong_runs)

        if trace:
            metrics = per_layer(untraced, [p for p in passes if p.traced])
            latency_lines = []
        else:
            metrics, latency_lines = end_to_end(jobs, untraced, [s.seconds for s in setups])
        print(f"# workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}  "
              f"passes {len(untraced)}")
        print("pass_s " + " ".join(
            f"{p.wall_s:.3f}{'t' if p.traced else ''}{'' if len(p.runs) == len(jobs) else '~'}"
            for p in passes))
        print("env " + json.dumps(environment(workload, seed, load_before), sort_keys=True))
        for name, (value, unit) in metrics.items():
            print(f"{name:<36} {value:14.6g} {unit}")
        for line in latency_lines:
            print(line)
        exit3 = sum(1 for p in passes for r in p.runs if r.code == 3)
        print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g}   exit-3 jobs {exit3}")
        for line in failed_runs:
            print("FAILED " + line)
        for line in setup_problems + wrong_runs:
            print("WRONG " + line)
        return {
            "correct": not (setup_problems or wrong_runs),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qcompact", "cli.py")):
        print(f"error: no qcompact sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
