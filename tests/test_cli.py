import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import qcompact
from qcompact import cli
from qcompact.cli import _load_measures, main

from test_golden import CASES, INPUTS, run_case


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    """A directory of well-formed input files shared by the CLI tests."""
    space = {"coords": [[0.0], [1.0]]}
    out = {
        "space": write_json(tmp_path / "space.json", space),
        "p": write_json(
            tmp_path / "p.json", {"space": "space.json", "mass": [0.5, 0.5]}
        ),
        "q": write_json(
            tmp_path / "q.json", {"space": "space.json", "mass": [1.0, 0.0]}
        ),
        "path": write_json(
            tmp_path / "saw.json",
            {"knots": [0.0, 0.5, 1.0], "values": [[0.0], [1.0], [0.0]]},
        ),
        "family": write_json(
            tmp_path / "family.json",
            {
                "paths": [
                    {"knots": [0.0, 1.0], "values": [[0.0], [0.0]]},
                    {"knots": [0.0, 1.0], "values": [[0.2], [0.2]]},
                ]
            },
        ),
        "points": write_json(
            tmp_path / "points.json", {"coords": [[-1.0, 0.0], [1.0, 0.0]]}
        ),
        "ensemble": write_json(
            tmp_path / "ens.json",
            {
                "weights": [0.5, 0.5],
                "paths": [
                    {"knots": [0.0, 1.0], "values": [[0.0], [0.0]]},
                    {"knots": [0.0, 1.0], "values": [[0.1], [0.1]]},
                ],
            },
        ),
        "dir": tmp_path,
    }
    return out


def as_config(argv):
    """A golden case's flags written as a config object: the positional
    arguments are its inputs, ``--format`` and ``--seed`` its fields, and
    every other flag a param, with its value as JSON numbers."""
    command, *args = argv
    config = {"command": command, "inputs": {}, "params": {}}
    positional = []
    while args:
        arg = args.pop(0)
        if not arg.startswith("--"):
            positional.append(arg)
            continue
        name, text = arg[2:].replace("-", "_"), args.pop(0)
        if name in ("format", "seed"):
            config[name] = text if name == "format" else int(text)
        elif name.endswith("_grid"):
            config["params"][name] = [json.loads(v) for v in text.split(",")]
        else:
            config["params"][name] = json.loads(text)
    for role, is_list in cli.COMMANDS[command].inputs:
        config["inputs"][role] = positional if is_list else positional.pop(0)
    return config


def run_json(args, out_file):
    rc = main(args + ["--out", str(out_file)])
    payload = json.loads(out_file.read_text()) if out_file.exists() else None
    return rc, payload


class TestHappyPaths:
    def test_prokhorov_dist(self, files, tmp_path):
        rc, env = run_json(
            [
                "prokhorov-dist", files["p"], files["q"],
                "--lambda-grid", "0.5,1.0,2.0",
            ],
            tmp_path / "out.json",
        )
        assert rc == 0
        assert env["command"] == "prokhorov-dist"
        rows = env["results"]["rows"]
        assert [r["lambda"] for r in rows] == [0.5, 1.0, 2.0]
        assert rows[1]["alpha_star"] == pytest.approx(0.5)
        assert rows[0]["certificate_kind"] == "coupling"
        assert rows[0]["oracle_checked"] is True
        assert set(env) == {
            "command", "inputs", "params", "seed",
            "results", "status_code",
        }
        for item in env["inputs"].values():
            assert len(item["sha256"]) == 64

    def test_tv_dist(self, files, tmp_path):
        rc, env = run_json(["tv-dist", files["p"], files["q"]], tmp_path / "o.json")
        assert rc == 0
        assert env["results"]["tv"] == pytest.approx(0.5)

    def test_mu_ut(self, files, tmp_path):
        rc, env = run_json(
            [
                "mu-ut", files["p"], files["q"],
                "--eps-grid", "0.5,2.0", "--k-max", "2",
            ],
            tmp_path / "o.json",
        )
        assert rc == 0
        assert env["results"]["mu_ut"]["upper"] >= env["results"]["mu_ut"]["lower"]

    def test_cover_profile(self, files, tmp_path):
        rc, env = run_json(
            ["cover-profile", files["space"], "--k-max", "2"], tmp_path / "o.json"
        )
        assert rc == 0
        assert env["results"]["profile"]["entries"][0]["radius"] == pytest.approx(1.0)

    def test_modulus(self, files, tmp_path):
        rc, env = run_json(
            ["modulus", files["path"], "--delta-grid", "0.2"], tmp_path / "o.json"
        )
        assert rc == 0
        assert env["results"]["rows"][0]["modulus"] == pytest.approx(0.4)

    def test_cheby(self, files, tmp_path):
        rc, env = run_json(["cheby", files["points"]], tmp_path / "o.json")
        assert rc == 0
        assert env["results"]["ball"]["radius"] == pytest.approx(1.0)

    def test_jung_check(self, files, tmp_path):
        rc, env = run_json(["jung-check", files["points"]], tmp_path / "o.json")
        assert rc == 0
        assert env["results"]["jung"]["ok"] is True

    def test_jung_check_at_large_coordinates(self, tmp_path):
        pts = np.random.default_rng(0).standard_normal((2, 2)) * 1e9
        points = write_json(tmp_path / "pts.json", {"coords": pts.tolist()})
        rc, env = run_json(["jung-check", points], tmp_path / "o.json")
        assert rc == 0
        assert env["results"]["jung"]["ok"] is True

    @pytest.mark.parametrize("command", ["cheby", "jung-check"])
    @pytest.mark.parametrize(
        "seed, shape, offset", [(2, (3, 3), 1e6), (43, (10, 2), 1e4)], ids=["1e6", "1e4"]
    )
    def test_ball_far_from_the_origin(self, command, seed, shape, offset, tmp_path):
        # unit-spread clouds that once ran the ball solver out of pivots
        pts = np.random.default_rng(seed).standard_normal(shape) + offset
        points = write_json(tmp_path / "pts.json", {"coords": pts.tolist()})
        # jung-check exits 0 only when the sandwich holds
        assert run_json([command, points], tmp_path / "o.json")[0] == 0

    def test_aa_net(self, files, tmp_path):
        rc, env = run_json(
            [
                "aa-net", files["family"], "--delta", "0.3",
                "--alpha", "0.0", "--bound-m", "1.0", "--eps", "0.05",
            ],
            tmp_path / "o.json",
        )
        assert rc == 0
        worst = max(s["achieved"] for s in env["results"]["net"]["per_sample"])
        assert worst <= 0.05 + 1e-12

    def test_verify_qprokh(self, files, tmp_path):
        rc, env = run_json(
            [
                "verify-qprokh", files["p"], files["q"],
                "--lambda-grid", "0.5,1.0", "--eps", "0.6",
            ],
            tmp_path / "o.json",
        )
        assert rc == 0
        assert env["results"]["report"]["status"] == "verified"

    def test_verify_qaa(self, files, tmp_path):
        rc, env = run_json(
            [
                "verify-qaa", files["family"], "--delta-grid", "0.2",
                "--bound-m", "1.0", "--eps", "0.05",
            ],
            tmp_path / "o.json",
        )
        assert rc == 0
        assert env["results"]["report"]["status"] == "verified"

    def test_verify_qsaa(self, files, tmp_path):
        rc, env = run_json(
            [
                "verify-qsaa", files["ensemble"],
                "--lambda-grid", "0.5,1.0", "--eps-grid", "0.5",
                "--delta-grid", "0.25", "--m-grid", "1.0", "--eps", "0.05",
            ],
            tmp_path / "o.json",
        )
        assert rc == 0
        assert env["results"]["report"]["status"] == "verified"

    def test_gen_walks_roundtrips_into_verify(self, files, tmp_path):
        walks = tmp_path / "walks.json"
        rc = main(
            [
                "gen-walks", "--n-steps", "4", "--n-paths", "3",
                "--scale", "1.0", "--seed", "9", "--out", str(walks),
            ]
        )
        assert rc == 0
        obj = json.loads(walks.read_text())
        assert set(obj) == {"paths", "weights"}
        rc2, env = run_json(
            [
                "verify-qsaa", str(walks),
                "--lambda-grid", "1.0", "--eps-grid", "0.5",
                "--delta-grid", "0.05", "--m-grid", "2.0", "--eps", "0.1",
            ],
            tmp_path / "o.json",
        )
        assert rc2 == 0


class TestCsvOutputs:
    def test_prokhorov_dist_csv(self, files, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(
            [
                "prokhorov-dist", files["p"], files["q"],
                "--lambda-grid", "1.0", "--format", "csv", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,alpha_star"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.5)

    def test_cover_profile_csv(self, files, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(
            [
                "cover-profile", files["space"], "--k-max", "2",
                "--format", "csv", "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.read_text().splitlines()[0] == "k,r_k,p_k"

    def test_aa_net_csv(self, files, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(
            [
                "aa-net", files["family"], "--delta", "0.3", "--alpha", "0.0",
                "--bound-m", "1.0", "--eps", "0.05",
                "--format", "csv", "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.read_text().splitlines()[0] == "sample,achieved,bound"

    def test_csv_rejected_elsewhere(self, files, tmp_path, capsys):
        rc = main(
            ["tv-dist", files["p"], files["q"], "--format", "csv",
             "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 1
        assert "CSV" in capsys.readouterr().err


class TestInputErrors:
    def test_missing_file(self, tmp_path, capsys):
        rc = main(["cheby", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "no such file" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"coords": [[0.0],\n  [1.0]')
        rc = main(["cheby", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bad.json:" in err and ":2:" in err or "line" in err

    def test_unsorted_grid(self, files, tmp_path, capsys):
        rc = main(
            [
                "prokhorov-dist", files["p"], files["q"],
                "--lambda-grid", "2.0,1.0", "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 1
        assert "increasing" in capsys.readouterr().err

    def test_gen_walks_requires_seed(self, tmp_path, capsys):
        rc = main(
            [
                "gen-walks", "--n-steps", "4", "--n-paths", "2",
                "--scale", "1.0", "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_space_mismatch(self, files, tmp_path, capsys):
        other_space = write_json(
            tmp_path / "space3.json", {"coords": [[0.0], [1.0], [2.0]]}
        )
        r = write_json(
            tmp_path / "r.json",
            {"space": "space3.json", "mass": [0.2, 0.3, 0.5]},
        )
        rc = main(["tv-dist", files["p"], r, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "space" in capsys.readouterr().err

    def test_unknown_measure_field(self, files, tmp_path, capsys):
        bad = write_json(
            tmp_path / "bad_measure.json",
            {"space": "space.json", "mass": [1.0, 0.0], "label": "x"},
        )
        rc = main(["tv-dist", files["p"], bad, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "label" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, instance, args",
        [
            ("tv-dist", {"space": "space.json", "mass": {"a": 1}}, ["q"]),
            ("cheby", {"coords": {"x": [0.0]}}, []),
            ("cover-profile", {"dist": {"a": 1}}, ["--k-max", "2"]),
            (
                "aa-net",
                {"paths": [{"knots": {"a": 0.0}, "values": [[0.0], [0.0]]}]},
                ["--delta", "0.5", "--alpha", "0.5", "--bound-m", "1", "--eps", "0.1"],
            ),
            (
                "verify-qsaa",
                {"weights": [1.0], "paths": 5},
                ["ensemble", "--lambda-grid", "1", "--eps-grid", "0.25",
                 "--delta-grid", "0.5", "--m-grid", "2", "--eps", "0.1"],
            ),
        ],
    )
    def test_field_of_the_wrong_type(self, files, capsys, command, instance, args):
        """An object or a number where an array belongs is bad input, not a
        traceback."""
        bad = write_json(files["dir"] / "wrong_type.json", instance)
        args = [files.get(a, a) for a in args]
        assert main([command, bad, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "command, args",
        [("cheby", []), ("jung-check", []), ("cover-profile", ["--k-max", "2"])],
    )
    def test_points_without_coordinates(self, files, capsys, command, args):
        """Rows with no coordinates are bad input, named in one line, not a
        numpy reduction error."""
        bad = write_json(files["dir"] / "no_coords.json", {"coords": [[], [], []]})
        assert main([command, bad, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: coords must be a nonempty"), err
        assert err.count("\n") == 1, err

    def test_overflowing_coordinates(self, tmp_path):
        """Finite coordinates whose distances overflow print one error line
        that names them, and no numpy warning, in a fresh process."""
        big = write_json(tmp_path / "big.json", {"coords": [[1e200, 0.0], [-1e200, 0.0]]})
        p = write_json(tmp_path / "p.json", {"space": "big.json", "mass": [0.5, 0.5]})
        src = os.path.dirname(os.path.dirname(qcompact.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        out = subprocess.run(
            [sys.executable, "-m", "qcompact.cli", "tv-dist", p, p],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert out.stderr == f"error: {big}: coordinates too large: a distance overflows\n"

    def test_out_naming_a_directory(self, files, tmp_path, capsys):
        target = tmp_path / "reports"
        target.mkdir()
        rc = main(["tv-dist", files["p"], files["q"], "--out", str(target)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {target}: cannot write: Is a directory\n"
        assert target.is_dir() and not any(target.iterdir())

    def test_out_to_the_null_device_writes_in_place(self, files):
        assert main(["tv-dist", files["p"], files["q"], "--out", os.devnull]) == 0
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)

    def test_report_that_fails_in_its_last_row(self, files, tmp_path, capsys, monkeypatch):
        """A NaN in the last row of a report's array: a file target keeps its
        bytes and gets no temporary file left beside it, stdout and the null
        device get nothing, and the error is that of a report never begun."""
        flow = np.full((40, 3), 0.25)
        flow[-1, -1] = np.nan
        command = cli.COMMANDS["tv-dist"]
        fake = dataclasses.replace(command, run=lambda cfg: ({"flow": flow}, None, 0))
        monkeypatch.setitem(cli.COMMANDS, "tv-dist", fake)
        target = tmp_path / "reports" / "tv.json"
        target.parent.mkdir()
        target.write_text("old\n")
        for out in ([], ["--out", str(target)], ["--out", os.devnull]):
            assert main(["tv-dist", files["p"], files["q"], *out]) == 1
            assert capsys.readouterr() == ("", "error: cannot serialize non-finite float nan\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in target.parent.iterdir()] == ["tv.json"]


class TestInlineSpaces:
    """Measures that carry their space inline share one built space when the
    copies are identical JSON."""

    SPACE = {"dist": [[0.0, 1.0], [1.0, 0.0]], "coords": [[0.0], [1.0]]}

    def test_identical_inline_spaces_are_built_once(self, tmp_path):
        p = write_json(tmp_path / "p.json", {"space": self.SPACE, "mass": [0.5, 0.5]})
        # same space, keys in the other order
        reordered = {"coords": self.SPACE["coords"], "dist": self.SPACE["dist"]}
        q = write_json(tmp_path / "q.json", {"space": reordered, "mass": [1.0, 0.0]})
        first, second = _load_measures([p, q])
        assert first.space is second.space

    def test_different_inline_spaces_still_differ(self, tmp_path, capsys):
        p = write_json(
            tmp_path / "p.json", {"space": {"coords": [[0.0], [1.0]]}, "mass": [0.5, 0.5]}
        )
        q = write_json(
            tmp_path / "q.json", {"space": {"coords": [[0.0], [2.0]]}, "mass": [1.0, 0.0]}
        )
        rc = main(["tv-dist", p, q, "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {q}: space differs from {p}\n"

    def test_distance_file_and_inline_coordinates_at_large_scale(self, tmp_path):
        """A space given by its rounded distances matches the same points
        given inline as coordinates, up to the rounding at their scale."""
        c = np.random.default_rng(0).standard_normal((6, 2)) * 1e6
        d = np.hypot(c[:, None, 0] - c[None, :, 0], c[:, None, 1] - c[None, :, 1])
        write_json(tmp_path / "d.json", {"dist": d.tolist()})
        mass = [1.0 / 6] * 6
        p = write_json(tmp_path / "p.json", {"space": "d.json", "mass": mass})
        q = write_json(
            tmp_path / "q.json", {"space": {"coords": c.tolist()}, "mass": [1.0] + [0.0] * 5}
        )
        rc, payload = run_json(["tv-dist", p, q], tmp_path / "o.json")
        assert rc == 0
        assert payload["results"]["tv"] == pytest.approx(5.0 / 6)

    def test_space_file_and_identical_inline_copy_load_together(self, files, tmp_path):
        inline = write_json(
            tmp_path / "inline.json", {"space": {"coords": [[0.0], [1.0]]}, "mass": [1.0, 0.0]}
        )
        first, second = _load_measures([files["p"], inline])
        assert first.space is not second.space and first.space.same_as(second.space)
        rc, payload = run_json(["tv-dist", files["p"], inline], tmp_path / "o.json")
        assert rc == 0
        assert payload["results"]["tv"] == pytest.approx(0.5)


class TestExitThree:
    def test_starved_verify_qprokh_is_inconclusive(self, tmp_path):
        space = write_json(tmp_path / "s.json", {"coords": [[0.0], [1.0]]})
        d0 = write_json(tmp_path / "d0.json", {"space": "s.json", "mass": [1.0, 0.0]})
        d1 = write_json(tmp_path / "d1.json", {"space": "s.json", "mass": [0.0, 1.0]})
        out = tmp_path / "o.json"
        rc = main(
            [
                "verify-qprokh", d0, d1, "--lambda-grid", "10.0",
                "--eps", "0.5", "--mu-eps-grid", "0.5", "--k-max", "1",
                "--out", str(out),
            ]
        )
        assert rc == 3
        env = json.loads(out.read_text())
        assert env["results"]["report"]["status"] == "inconclusive"
        assert env["status_code"] == 3


class TestConfigMode:
    def make_config(self, files, tmp_path, out_name="out.json", **more):
        cfg = {
            "command": "prokhorov-dist",
            "inputs": {"p": "p.json", "q": "q.json"},
            "params": {"lambda_grid": [0.5, 1.0]},
            "out": str(tmp_path / out_name),
            **more,
        }
        return write_json(files["dir"] / "cfg.json", cfg)

    @pytest.mark.parametrize(
        "name",
        sorted(n for n, (argv, code) in CASES.items() if code in (0, 3) and argv[0] != "--config"),
    )
    def test_config_matches_flags(self, name, tmp_path, monkeypatch):
        """Each golden case that runs, written as a config object next to its
        inputs and run from another directory, prints what its flags print
        and exits with their code."""
        argv, code = CASES[name]
        shutil.copytree(INPUTS, tmp_path / "inputs")
        write_json(tmp_path / "inputs" / "case.json", as_config(argv))
        monkeypatch.chdir(tmp_path / "inputs")
        via_flags = run_case(argv)
        assert via_flags[0] == code and via_flags[1] and not via_flags[2]
        monkeypatch.chdir(tmp_path)
        assert run_case(["--config", "inputs/case.json"]) == via_flags

    @pytest.mark.parametrize("flag", [["--conf"], ["--c"], ["--conf="]])
    def test_abbreviated_config_flag(self, flag, files, tmp_path):
        cfg = self.make_config(files, tmp_path)
        assert main(["--config", cfg]) == 0
        want = (tmp_path / "out.json").read_bytes()
        argv = [flag[0] + cfg] if flag[0].endswith("=") else [flag[0], cfg]
        assert main([*argv, "--out", str(tmp_path / "abbrev.json")]) == 0
        assert (tmp_path / "abbrev.json").read_bytes() == want

    def test_abbreviated_format_flag_overrides_config(self, files, tmp_path):
        cfg = self.make_config(files, tmp_path, out_name="out.csv")
        assert main(["--config", cfg, "--form", "csv"]) == 0
        rc = main(
            ["prokhorov-dist", files["p"], files["q"], "--lambda-grid", "0.5,1.0",
             "--format", "csv", "--out", str(tmp_path / "flags.csv")]
        )
        assert rc == 0
        assert (tmp_path / "out.csv").read_text() == (tmp_path / "flags.csv").read_text()

    def test_seed_and_out_flags_override_the_config(self, files, tmp_path):
        cfg = self.make_config(files, tmp_path, seed=3)
        assert main(["--config", cfg, "--seed", "5", "--out", str(tmp_path / "flag.json")]) == 0
        assert not (tmp_path / "out.json").exists()
        rc, want = run_json(
            ["prokhorov-dist", files["p"], files["q"], "--lambda-grid", "0.5,1.0", "--seed", "5"],
            tmp_path / "flags.json",
        )
        assert rc == 0 and want["seed"] == 5
        assert (tmp_path / "flag.json").read_bytes() == (tmp_path / "flags.json").read_bytes()
        assert main(["--config", cfg, "--seed", "0"]) == 0
        assert json.loads((tmp_path / "out.json").read_text())["seed"] == 0

    @pytest.mark.parametrize("more", [[], ["--format", "csv"], ["--out", "flag.json"]])
    def test_negative_seed_override_is_rejected(self, more, files, tmp_path, capsys, monkeypatch):
        """The override passes the check the file's own seed does."""
        cfg = self.make_config(files, tmp_path, seed=3)
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        assert main(["--config", cfg, "--seed", "-5", *more]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: seed must be a nonnegative integer\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_rerun_is_byte_identical(self, files, tmp_path):
        cfg = self.make_config(files, tmp_path)
        assert main(["--config", cfg]) == 0
        first = (tmp_path / "out.json").read_bytes()
        assert main(["--config", cfg]) == 0
        assert (tmp_path / "out.json").read_bytes() == first

    def test_unknown_config_key(self, files, tmp_path, capsys):
        cfg = write_json(
            files["dir"] / "bad_cfg.json",
            {"command": "tv-dist", "inputs": {"p": "p.json", "q": "q.json"},
             "params": {}, "notes": "hi"},
        )
        rc = main(["--config", cfg])
        assert rc == 1
        assert "notes" in capsys.readouterr().err

    def test_config_fields_of_the_wrong_type(self, files, capsys):
        base = {"command": "tv-dist", "inputs": {"p": "p.json", "q": "q.json"}, "params": {}}
        for field, value, message in [
            ("command", ["tv-dist"], "unknown command ['tv-dist']"),
            ("out", 5, "out must be a path string"),
            ("inputs", None, "inputs must be a JSON object"),
            ("inputs", "p.json", "inputs must be a JSON object"),
            ("params", [], "params must be a JSON object"),
            ("params", 5, "params must be a JSON object"),
        ]:
            cfg = write_json(files["dir"] / "typed_cfg.json", {**base, field: value})
            assert main(["--config", cfg]) == 1
            assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    def test_threads_is_rejected(self, files, tmp_path, capsys):
        rc = main(["tv-dist", files["p"], files["q"], "--threads", "2"])
        assert rc == 1
        assert "--threads" in capsys.readouterr().err
        cfg = write_json(
            files["dir"] / "threads_cfg.json",
            {"command": "tv-dist", "inputs": {"p": "p.json", "q": "q.json"},
             "params": {}, "threads": 0},
        )
        assert main(["--config", cfg]) == 1
        assert "threads" in capsys.readouterr().err

    def test_list_lattice_is_rejected(self, files, capsys):
        args = ["--delta", "0.5", "--alpha", "0.5", "--bound-m", "1", "--eps", "0.1"]
        assert main(["aa-net", files["family"], *args, "--list-lattice"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --list-lattice\n"
        cfg = write_json(
            files["dir"] / "lattice_cfg.json",
            {"command": "aa-net", "inputs": {"family": "family.json"},
             "params": {"delta": 0.5, "alpha": 0.5, "bound_m": 1, "eps": 0.1,
                        "list_lattice": True}},
        )
        assert main(["--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: params for aa-net: unknown field 'list_lattice'\n"
        )

    def test_config_inputs_resolve_relative_to_config(self, files, tmp_path):
        sub = tmp_path / "elsewhere"
        sub.mkdir()
        cfg = self.make_config(files, tmp_path, out_name="rel.json")
        old = os.getcwd()
        os.chdir(sub)
        try:
            rc = main(["--config", cfg])
        finally:
            os.chdir(old)
        assert rc == 0
        assert (tmp_path / "rel.json").exists()
