"""Batch command-line front end.

Twelve subcommands load JSON instances, run one computation or theorem
verification, and write a deterministic report: same config, inputs, and
seed always produce byte-identical output.  Exit codes: 0 success, 1 input
error, 2 hard verification failure, 3 inconclusive sandwich.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional

import numpy as np

# the package's modules run on first use, so a job runs only its command's
from . import ball, cover, metric, paths, prokhorov, serialize, stochastic
from .errors import InternalConsistencyError
from .tolerances import ORACLE_TOL

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILED = 2
EXIT_INCONCLUSIVE = 3

#: exit code of a sandwich report, by its status
STATUS_EXIT = {"verified": EXIT_OK, "inconclusive": EXIT_INCONCLUSIVE, "failed": EXIT_FAILED}

#: spaces small enough to cross-check against the subset-enumeration oracle
ORACLE_LIMIT = 12

# The interpreter's collections at exit skip every object a finished job
# holds (numpy's, mostly).  Nothing here waits on a collection to be freed:
# report files are closed by their ``with`` blocks, and atexit handlers and
# the flush of the standard streams still run.
atexit.register(gc.freeze)


class CLIError(Exception):
    """Bad input: malformed file, unknown field, violated precondition."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    command: str
    inputs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    out: Optional[str] = None
    format: str = "json"
    seed: Optional[int] = None


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise CLIError(f"{where}: unknown field {sorted(unknown)[0]!r}")


def _convert(convert, value, name: str, kind: str):
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise CLIError(f"{name}: expected {kind}")


def _as_grid(value, name: str) -> list[float]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    grid = _convert(lambda vs: [float(v) for v in vs], value, name, "a list of numbers")
    if not grid:
        raise CLIError(f"{name}: must be nonempty")
    if any(not np.isfinite(g) or g <= 0.0 for g in grid):
        raise CLIError(f"{name}: entries must be finite and > 0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise CLIError(f"{name}: must be strictly increasing")
    return grid


def _as_pos_real(value, name: str) -> float:
    x = _convert(float, value, name, "a number")
    if not np.isfinite(x) or x <= 0.0:
        raise CLIError(f"{name}: must be finite and > 0")
    return x


def _as_nonneg_real(value, name: str) -> float:
    x = _convert(float, value, name, "a number")
    if not np.isfinite(x) or x < 0.0:
        raise CLIError(f"{name}: must be finite and >= 0")
    return x


def _as_pos_int(value, name: str) -> int:
    k = _convert(int, value, name, "an integer")
    if k < 1:
        raise CLIError(f"{name}: must be >= 1")
    return k


def _validate_params(command: str, raw: dict) -> dict:
    spec = COMMANDS[command].params
    _reject_unknown(raw, spec, f"params for {command}")
    out = {}
    for name, (validator, required) in spec.items():
        if name in raw and raw[name] is not None:
            out[name] = validator(raw[name], name)
        elif required:
            raise CLIError(f"params for {command}: missing {name!r}")
    return out


def _validate_inputs(command: str, raw: dict, base: str) -> dict:
    """The input paths of ``command``, each joined to ``base``."""
    spec = COMMANDS[command].inputs
    _reject_unknown(raw, [r for r, _ in spec], f"inputs for {command}")
    out = {}
    for role, is_list in spec:
        if role not in raw:
            raise CLIError(f"inputs for {command}: missing {role!r}")
        value = raw[role]
        if is_list:
            if not isinstance(value, list) or not value or not all(
                isinstance(v, str) for v in value
            ):
                raise CLIError(
                    f"inputs for {command}: {role!r} must be a nonempty list of paths"
                )
            out[role] = [os.path.abspath(os.path.join(base, v)) for v in value]
        elif not isinstance(value, str):
            raise CLIError(f"inputs for {command}: {role!r} must be a path string")
        else:
            out[role] = os.path.abspath(os.path.join(base, value))
    return out


def _run_config(obj, flags: dict, base: str, where: str) -> RunConfig:
    """The one check of a run object, whether a config file holds it or the
    flags build it.  The ``--out``/``--format``/``--seed`` values in
    ``flags`` are laid over it first, so they pass the same checks as the
    object's own; input paths are joined to ``base``, and errors name
    ``where``."""
    if not isinstance(obj, dict):
        raise CLIError(f"{where}: config must be a JSON object")
    obj = {**obj, **flags}
    _reject_unknown(obj, [f.name for f in fields(RunConfig)], where)
    command = obj.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise CLIError(f"{where}: unknown command {command!r}")
    if "format" in obj and obj["format"] not in ("json", "csv"):
        raise CLIError(f"{where}: format must be 'json' or 'csv'")
    seed = obj.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise CLIError(f"{where}: seed must be a nonnegative integer")
    if obj.get("out") is not None and not isinstance(obj["out"], str):
        raise CLIError(f"{where}: out must be a path string")
    for key in ("inputs", "params"):
        if not isinstance(obj.get(key, {}), dict):
            raise CLIError(f"{where}: {key} must be a JSON object")
    return RunConfig(
        command=command,
        inputs=_validate_inputs(command, obj.get("inputs", {}), base),
        params=_validate_params(command, obj.get("params", {})),
        # a field left out keeps RunConfig's default
        **{key: obj[key] for key in ("out", "format", "seed") if key in obj},
    )


# ---------------------------------------------------------------------------
# instance loading
# ---------------------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise CLIError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise CLIError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _parse(build, obj, where: str):
    """``build(obj)``, with a TypeError or ValueError reported as bad input at
    ``where``."""
    try:
        return build(obj)
    except (TypeError, ValueError) as exc:
        raise CLIError(f"{where}: {exc}")


def _load_space(path: str) -> metric.FiniteMetricSpace:
    return _parse(metric.FiniteMetricSpace.from_dict, _load_json(path), path)


def _load_measure(path: str, space_cache: dict) -> prokhorov.DiscreteMeasure:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise CLIError(f"{path}: measure must be a JSON object")
    _reject_unknown(obj, {"space", "mass"}, path)
    if "space" not in obj or "mass" not in obj:
        raise CLIError(f"{path}: need 'space' and 'mass'")
    spec = obj["space"]
    if isinstance(spec, str):
        ref = os.path.join(os.path.dirname(os.path.abspath(path)), spec)
        if ref not in space_cache:
            space_cache[ref] = _load_space(ref)
        space = space_cache[ref]
    else:
        # an inline space is keyed on its canonical JSON, which no file path
        # (always absolute here) can equal
        key = json.dumps(spec, sort_keys=True)
        if key not in space_cache:
            space_cache[key] = _parse(metric.FiniteMetricSpace.from_dict, spec, f"{path}: space")
        space = space_cache[key]
    return _parse(lambda mass: prokhorov.DiscreteMeasure(space, mass), obj["mass"], path)


def _load_measures(files: list[str]) -> list[prokhorov.DiscreteMeasure]:
    """Measures on one common space; a space file they share is read once, and
    identical inline spaces are built once."""
    cache: dict = {}
    measures = [_load_measure(p, cache) for p in files]
    for m, p in zip(measures[1:], files[1:]):
        if not m.space.same_as(measures[0].space):
            raise CLIError(f"{p}: space differs from {files[0]}")
    return measures


def _load_coords(path: str) -> np.ndarray:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "coords" not in obj:
        raise CLIError(f"{path}: need a 'coords' array")
    _reject_unknown(obj, {"coords"}, path)
    coords = _parse(lambda c: np.asarray(c, dtype=float), obj["coords"], path)
    if coords.ndim == 1:
        coords = coords[:, None]
    if coords.ndim != 2 or 0 in coords.shape or not np.isfinite(coords).all():
        raise CLIError(f"{path}: coords must be a nonempty finite 2-d array")
    return coords


def _load_family(path: str) -> list[paths.PLPath]:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "paths" not in obj:
        raise CLIError(f"{path}: need a 'paths' array")
    _reject_unknown(obj, {"paths"}, path)
    if not isinstance(obj["paths"], list) or not obj["paths"]:
        raise CLIError(f"{path}: 'paths' must be a nonempty array")
    return [
        _parse(paths.PLPath.from_dict, entry, f"{path}: paths[{i}]")
        for i, entry in enumerate(obj["paths"])
    ]


def _hash_entry(path: str) -> dict:
    return {"path": os.path.basename(path), "sha256": serialize.sha256_file(path)}


def _input_hashes(cfg: RunConfig) -> dict:
    out: dict[str, Any] = {}
    for role, value in cfg.inputs.items():
        if isinstance(value, list):
            out[role] = [_hash_entry(p) for p in value]
        else:
            out[role] = _hash_entry(value)
    return out


# ---------------------------------------------------------------------------
# command handlers: return (results, CSV rows or None, exit code)
# ---------------------------------------------------------------------------


def _run_prokhorov_dist(cfg: RunConfig):
    P, Q = _load_measures([cfg.inputs["p"], cfg.inputs["q"]])
    n = P.space.n_points
    rows = []
    grid = cfg.params["lambda_grid"]
    for lam, res in zip(grid, prokhorov.prokhorov_distances(P, Q, grid)):
        oracle_checked = n <= ORACLE_LIMIT
        if oracle_checked:
            ref = prokhorov.prokhorov_oracle(P, Q, lam)
            if abs(ref - res.alpha_star) > ORACLE_TOL:
                raise InternalConsistencyError(
                    f"sweep value {res.alpha_star!r} disagrees with the "
                    f"subset oracle {ref!r} at lam={lam!r}"
                )
        rows.append(
            {
                "lambda": lam,
                "alpha_star": res.alpha_star,
                "certificate_kind": "coupling",
                "certificate": res.certificate,
                "oracle_checked": oracle_checked,
            }
        )
    table = [(r["lambda"], r["alpha_star"]) for r in rows]
    return {"n_points": n, "rows": rows}, table, EXIT_OK


def _run_tv_dist(cfg: RunConfig):
    P, Q = _load_measures([cfg.inputs["p"], cfg.inputs["q"]])
    return {"tv": prokhorov.tv_distance(P, Q)}, None, EXIT_OK


def _run_mu_ut(cfg: RunConfig):
    measures = _load_measures(cfg.inputs["measures"])
    result = prokhorov.mu_ut(measures, cfg.params["eps_grid"], cfg.params["k_max"])
    return {"mu_ut": result}, None, EXIT_OK


def _run_cover_profile(cfg: RunConfig):
    space = _load_space(cfg.inputs["space"])
    profile = cover.cover_profile(space.dist, cfg.params["k_max"], coords=space.coords)
    table = [(e.k, e.radius, e.packing) for e in profile.entries]
    return {"profile": profile}, table, EXIT_OK


def _run_modulus(cfg: RunConfig):
    path = _parse(paths.PLPath.from_dict, _load_json(cfg.inputs["path"]), cfg.inputs["path"])
    grid = cfg.params["delta_grid"]
    rows = [
        {"delta": d, "modulus": float(m)} for d, m in zip(grid, paths.moduli([path], grid)[0])
    ]
    return {"sup_norm": path.sup_norm, "rows": rows}, None, EXIT_OK


def _run_cheby(cfg: RunConfig):
    coords = _load_coords(cfg.inputs["points"])
    return {"ball": ball.chebyshev_center(coords)}, None, EXIT_OK


def _run_jung_check(cfg: RunConfig):
    coords = _load_coords(cfg.inputs["points"])
    if coords.shape[0] < 2:
        raise CLIError("jung-check needs at least 2 points")
    check = ball.jung_check(coords)
    return {"jung": check}, None, EXIT_OK if check.ok else EXIT_FAILED


def _run_aa_net(cfg: RunConfig):
    family = _load_family(cfg.inputs["family"])
    p = cfg.params
    net = paths.aa_net(family, p["delta"], p["alpha"], p["bound_m"], p["eps"])
    table = [(i, s.achieved, s.bound) for i, s in enumerate(net.per_sample)]
    # the net's fields and its lattice values, which only this report lists
    report = {f.name: getattr(net, f.name) for f in fields(net)}
    report["grid_points"] = net.grid_points
    return {"net": report}, table, EXIT_OK


def _run_verify_qprokh(cfg: RunConfig):
    measures = _load_measures(cfg.inputs["measures"])
    p = cfg.params
    report = prokhorov.verify_qprokh(
        measures,
        p["lambda_grid"],
        p["eps"],
        eps_grid=p.get("mu_eps_grid"),
        k_max=p.get("k_max"),
    )
    return {"report": report}, None, STATUS_EXIT[report.status]


def _run_verify_qaa(cfg: RunConfig):
    family = _load_family(cfg.inputs["family"])
    p = cfg.params
    report = paths.verify_qaa(family, p["delta_grid"], p["bound_m"], p["eps"])
    return {"report": report}, None, STATUS_EXIT[report.status]


def _run_verify_qsaa(cfg: RunConfig):
    ensembles = [
        _parse(stochastic.PathEnsemble.from_dict, _load_json(path), path)
        for path in cfg.inputs["ensembles"]
    ]
    p = cfg.params
    report = stochastic.verify_qsaa(
        ensembles,
        p["lambda_grid"],
        p["eps_grid"],
        p["delta_grid"],
        p["m_grid"],
        p["eps"],
    )
    return {"report": report}, None, STATUS_EXIT[report.status]


def _run_gen_walks(cfg: RunConfig):
    if cfg.seed is None:
        raise CLIError("gen-walks requires --seed")
    p = cfg.params
    ensemble = stochastic.sample_walks(p["n_steps"], p["n_paths"], p["scale"], cfg.seed)
    return ensemble.to_dict(), None, EXIT_OK


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One subcommand: the flag parser, config validation and dispatch all
    read it.  ``params`` maps each parameter to ``(validator, required)``;
    its flag is ``--`` plus the name with ``_`` as ``-``.  ``csv`` is the CSV
    header (empty: JSON only).  Without ``envelope`` the results are the
    whole output."""

    help: str
    run: Callable[[RunConfig], tuple]
    inputs: tuple[tuple[str, bool], ...] = ()  # (role, is_list)
    params: dict[str, tuple[Callable, bool]] = field(default_factory=dict)
    csv: tuple[str, ...] = ()
    envelope: bool = True


COMMANDS: dict[str, Command] = {
    "prokhorov-dist": Command(
        "scaled Prokhorov distance between two measures",
        _run_prokhorov_dist,
        inputs=(("p", False), ("q", False)),
        params={"lambda_grid": (_as_grid, True)},
        csv=("lambda", "alpha_star"),
    ),
    "tv-dist": Command(
        "total variation distance between two measures",
        _run_tv_dist,
        inputs=(("p", False), ("q", False)),
    ),
    "mu-ut": Command(
        "uniform-tightness defect bracket for a family",
        _run_mu_ut,
        inputs=(("measures", True),),
        params={"eps_grid": (_as_grid, True), "k_max": (_as_pos_int, True)},
    ),
    "cover-profile": Command(
        "greedy covering/packing profile of a space",
        _run_cover_profile,
        inputs=(("space", False),),
        params={"k_max": (_as_pos_int, True)},
        csv=("k", "r_k", "p_k"),
    ),
    "modulus": Command(
        "oscillation of a PL path at window widths",
        _run_modulus,
        inputs=(("path", False),),
        params={"delta_grid": (_as_grid, True)},
    ),
    "cheby": Command(
        "minimal enclosing ball of a point set",
        _run_cheby,
        inputs=(("points", False),),
    ),
    "jung-check": Command(
        "diameter/radius sandwich for a point set",
        _run_jung_check,
        inputs=(("points", False),),
    ),
    "aa-net": Command(
        "interpolation net for a bounded equicontinuous family",
        _run_aa_net,
        inputs=(("family", False),),
        params={
            "delta": (_as_pos_real, True),
            "alpha": (_as_nonneg_real, True),
            "bound_m": (_as_pos_real, True),
            "eps": (_as_pos_real, True),
        },
        csv=("sample", "achieved", "bound"),
    ),
    "verify-qprokh": Command(
        "tightness vs covering-radius sandwich for measures",
        _run_verify_qprokh,
        inputs=(("measures", True),),
        params={
            "lambda_grid": (_as_grid, True),
            "eps": (_as_pos_real, True),
            "mu_eps_grid": (_as_grid, False),
            "k_max": (_as_pos_int, False),
        },
    ),
    "verify-qaa": Command(
        "equicontinuity vs covering sandwich for paths",
        _run_verify_qaa,
        inputs=(("family", False),),
        params={
            "delta_grid": (_as_grid, True),
            "bound_m": (_as_pos_real, True),
            "eps": (_as_pos_real, True),
        },
    ),
    "verify-qsaa": Command(
        "stochastic sandwich for path ensembles",
        _run_verify_qsaa,
        inputs=(("ensembles", True),),
        params={
            "lambda_grid": (_as_grid, True),
            "eps_grid": (_as_grid, True),
            "delta_grid": (_as_grid, True),
            "m_grid": (_as_grid, True),
            "eps": (_as_pos_real, True),
        },
    ),
    # the artifact is the ensemble itself, directly loadable as an input
    "gen-walks": Command(
        "sample a seeded ensemble of scaled random walks",
        _run_gen_walks,
        params={
            "n_steps": (_as_pos_int, True),
            "n_paths": (_as_pos_int, True),
            "scale": (_as_nonneg_real, True),
        },
        envelope=False,
    ),
}


def _emit(cfg: RunConfig, output) -> None:
    """Write ``output``, a CSV text or a report tree for the JSON writer, to
    ``cfg.out`` or stdout.  A report file is streamed; stdout gets the whole
    text or, if the report does not serialize, nothing."""
    if not cfg.out:
        text = output if isinstance(output, str) else serialize.dumps_deterministic(output)
        sys.stdout.write(text)
        return
    try:
        if isinstance(output, str):
            serialize.write_atomic(cfg.out, output)
        else:
            serialize.write_report(cfg.out, output)
    except OSError as exc:
        raise CLIError(f"{cfg.out}: cannot write: {exc.strerror or exc}")


def run(cfg: RunConfig) -> int:
    command = COMMANDS[cfg.command]
    if cfg.format == "csv" and not command.csv:
        with_csv = sorted(name for name, c in COMMANDS.items() if c.csv)
        raise CLIError(
            f"{cfg.command} has no CSV form; use --format json "
            f"(CSV is available for: {', '.join(with_csv)})"
        )
    results, table, code = command.run(cfg)
    if cfg.format == "csv":
        _emit(cfg, serialize.csv_text(command.csv, table))
    elif not command.envelope:
        _emit(cfg, results)
    else:
        report = {
            "command": cfg.command,
            "inputs": _input_hashes(cfg),
            "params": cfg.params,
            "seed": cfg.seed,
            "results": results,
            "status_code": code,
        }
        _emit(cfg, report)
    return code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--format", choices=["json", "csv"])
    sub.add_argument("--seed", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="qcompact", description=__doc__)
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        _add_common(sub)
        for role, is_list in command.inputs:
            sub.add_argument(role, nargs="+" if is_list else None)
        for param, (_, required) in command.params.items():
            flag = "--" + param.replace("_", "-")
            sub.add_argument(flag, required=required, dest=param)
    return parser


def _config_parser() -> _Parser:
    parser = _Parser(prog="qcompact")
    parser.add_argument("--config", required=True)
    _add_common(parser)
    return parser


def _names_config(parser: _Parser, arg: str) -> bool:
    """Whether ``parser`` reads ``arg`` as ``--config``.  This is argparse's
    rule: ``arg`` is a flag or ``flag=value``, and ``--config`` is the only
    long option that starts with the flag, so abbreviations count."""
    flag = arg.split("=", 1)[0]
    options = [o for a in parser._actions for o in a.option_strings if o.startswith(flag)]
    return flag.startswith("--") and options == ["--config"]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _config_parser()
        if any(_names_config(parser, a) for a in argv):
            args = parser.parse_args(argv)
            obj = _load_json(args.config)
            base, where = os.path.dirname(os.path.abspath(args.config)), args.config
        else:
            parser = build_parser()
            args = parser.parse_args(argv)
            if args.command is None:
                parser.print_help()
                return EXIT_INPUT
            command = COMMANDS[args.command]
            obj = {
                "command": args.command,
                "inputs": {role: getattr(args, role) for role, _ in command.inputs},
                "params": {name: getattr(args, name) for name in command.params},
            }
            base, where = os.getcwd(), "command line"
        # a common flag left out keeps the run object's value
        flags = {k: v for k in ("out", "format", "seed") if (v := getattr(args, k)) is not None}
        return run(_run_config(obj, flags, base, where))
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
