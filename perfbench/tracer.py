"""Spans around calls into qcompact's public functions, recorded from outside.

The program has no tracing of its own, so a traced job wraps every public
function named in ``WRAPPED`` and records one span per call: name, start,
end, parent span and job id.  Modules bind most kernels by value
(``from .maxflow import transport_flow``), so ``Tracer.install`` replaces
every ``qcompact.*`` module attribute that is the original function object,
and patches methods on their class.  Spans stay in memory until the job
writes them out.

A span's name is ``<module>.<function>``; its module is the part before the
first dot.  Self time is a span's duration minus the part of it that its
children cover.

This module imports neither numpy nor qcompact, so that a traced job's
``cli.import`` span holds the whole import cost.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: modules that spans are attributed to; "trace" is the root span of a job,
#: whose self time is the tracer's own set-up
MODULES = ("cli", "serialize", "metric", "maxflow", "prokhorov", "ball",
           "cover", "paths", "stochastic", "trace")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_flow(args, kwargs, result):
    return {"edges": int(_arg(args, kwargs, 2, "allowed").sum())}


def _count_ball(args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 0, "points")), "dim": len(result.center)}


def _count_space(args, kwargs, result):
    space = args[0]
    n = space.n_points
    tri = bool(kwargs.get("validate_triangle", True))
    return {"points": n, "triangle_ops": n**3 if tri else 0}


def _count_breakpoints(args, kwargs, result):
    return {"breakpoints": int(result.breakpoints_scanned)}


def _count_paths(args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 0, "paths"))}


def _count_bytes(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "text").encode("utf-8"))}


def _count_members(args, kwargs, result):
    return {"members": len(result.members)}


#: (module, public function or Class.method, counter) — every public function
#: the CLI reaches on the benchmark's workloads, so that the self time of
#: ``cli.main`` is argument parsing, JSON parsing and the report envelope
WRAPPED = (
    ("cli", "main", None),
    ("serialize", "dumps_deterministic", None),
    ("serialize", "write_atomic", _count_bytes),
    ("serialize", "sha256_file", None),
    ("metric", "FiniteMetricSpace.__init__", _count_space),
    ("maxflow", "transport_flow", _count_flow),
    ("prokhorov", "DiscreteMeasure.__init__", None),
    ("prokhorov", "tv_distance", None),
    ("prokhorov", "check_alpha", None),
    ("prokhorov", "prokhorov_distance", _count_breakpoints),
    ("prokhorov", "mu_ut", None),
    ("prokhorov", "diameter_partition", None),
    ("prokhorov", "prokhorov_net", None),
    ("prokhorov", "verify_qprokh", None),
    ("ball", "chebyshev_center", _count_ball),
    ("cover", "cover_profile", None),
    ("cover", "covering_radius", None),
    ("paths", "PLPath.__init__", None),
    ("paths", "uniform_distance", None),
    ("paths", "modulus", None),
    ("paths", "mu_uec_family", None),
    ("paths", "aa_net", _count_members),
    ("paths", "verify_qaa", None),
    ("stochastic", "PathEnsemble.__init__", None),
    ("stochastic", "mu_sub_hat", None),
    ("stochastic", "mu_suec_hat", None),
    ("stochastic", "path_metric_space", _count_paths),
    ("stochastic", "sample_walks", None),
    ("stochastic", "verify_qsaa", None),
)


def span_name(module: str, target: str) -> str:
    """``metric.FiniteMetricSpace.__init__`` is recorded as ``metric.FiniteMetricSpace``."""
    return f"{module}.{target.split('.')[0]}"


class Tracer:
    """In-memory span recorder for one job.

    A span is ``[span_id, parent_id, name, start, end, counters]``; the root
    span has parent ``-1``.
    """

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []
        self._stack = [-1]

    def open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1], name, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> dict:
        """Wrap every ``WRAPPED`` function; return ``{span name: (original, wrapper)}``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qcompact" or n.startswith("qcompact."))]
        installed = {}
        for module, target, count in WRAPPED:
            owner = sys.modules[f"qcompact.{module}"]
            *cls, attr = target.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name(module, target), original, count)
            if cls:
                setattr(owner, attr, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            installed[span_name(module, target)] = (original, wrapper)
        return installed

    def dump(self) -> dict:
        return {"job": self.job_id, "spans": self.spans}


# ---------------------------------------------------------------------------
# analysis of recorded spans (runs in the benchmark process)
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus the union of its children."""
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, _c in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = []
    for sid, _parent, _name, t0, t1, _c in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def module_self_times(spans: list[list]) -> dict[str, float]:
    """Self time summed by module; the values add up to the root span."""
    out: dict[str, float] = defaultdict(float)
    for rec, own in zip(spans, self_times(spans)):
        out[rec[2].split(".")[0]] += own
    return dict(out)


def unit(metric: str) -> str:
    """Unit of a per-layer metric."""
    special = {"serialize.report_bytes": "bytes", "prokhorov.flows_per_distance": "flows/call",
               "trace.overhead_ratio": "ratio"}
    return special.get(metric, "s" if metric.endswith("_s") else "count")


def layer_metrics(jobs: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the given traced jobs (one pass)."""
    calls: dict[str, int] = defaultdict(int)
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    mod_own: dict[str, float] = defaultdict(float)
    cnt: dict[str, float] = defaultdict(float)
    for job in jobs:
        spans = job["spans"]
        for rec, s in zip(spans, self_times(spans)):
            name, counters = rec[2], rec[5]
            calls[name] += 1
            dur[name] += rec[4] - rec[3]
            own[name] += s
            mod_own[name.split(".")[0]] += s
            if counters:
                if name == "ball.chebyshev_center" and counters["dim"] == 1:
                    cnt["ball.calls_1d"] += 1
                for key, value in counters.items():
                    if key != "dim":
                        cnt[f"{name}:{key}"] += value
    n_dist = calls["prokhorov.prokhorov_distance"]
    n_flow = calls["maxflow.transport_flow"]
    return {
        "cli.import_s": dur["cli.import"],
        "cli.self_s": own["cli.main"],
        "serialize.dump_s": dur["serialize.dumps_deterministic"],
        "serialize.write_s": dur["serialize.write_atomic"],
        "serialize.hash_s": dur["serialize.sha256_file"],
        "serialize.report_bytes": cnt["serialize.write_atomic:bytes"],
        "metric.spaces": calls["metric.FiniteMetricSpace"],
        "metric.build_s": dur["metric.FiniteMetricSpace"],
        "metric.triangle_ops": cnt["metric.FiniteMetricSpace:triangle_ops"],
        "maxflow.calls": n_flow,
        "maxflow.self_s": mod_own["maxflow"],
        "maxflow.edges": cnt["maxflow.transport_flow:edges"],
        "prokhorov.distance_calls": n_dist,
        "prokhorov.sweep_self_s": own["prokhorov.prokhorov_distance"],
        "prokhorov.check_alpha_s": dur["prokhorov.check_alpha"],
        "prokhorov.flows_per_distance": n_flow / n_dist if n_dist else 0.0,
        "prokhorov.breakpoints": cnt["prokhorov.prokhorov_distance:breakpoints"],
        "prokhorov.mu_ut_s": dur["prokhorov.mu_ut"],
        "prokhorov.net_s": dur["prokhorov.prokhorov_net"],
        "ball.calls": calls["ball.chebyshev_center"],
        "ball.calls_1d": cnt["ball.calls_1d"],
        "ball.self_s": mod_own["ball"],
        "ball.points_in": cnt["ball.chebyshev_center:points"],
        "cover.profile_self_s": own["cover.cover_profile"],
        "paths.modulus_calls": calls["paths.modulus"],
        "paths.modulus_s": dur["paths.modulus"],
        "paths.aa_net_self_s": own["paths.aa_net"],
        "paths.uniform_distance_s": dur["paths.uniform_distance"],
        "paths.net_members": cnt["paths.aa_net:members"],
        "stochastic.sample_walks_s": dur["stochastic.sample_walks"],
        "stochastic.defects_s": dur["stochastic.mu_sub_hat"] + dur["stochastic.mu_suec_hat"],
        "stochastic.path_metric_space_s": dur["stochastic.path_metric_space"],
        "stochastic.path_metric_space_points": cnt["stochastic.path_metric_space:points"],
        "stochastic.verify_self_s": own["stochastic.verify_qsaa"],
    }
