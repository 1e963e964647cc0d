"""Golden reports: every CLI command run on small committed inputs, with its
stdout, stderr and exit code compared byte for byte against
``tests/golden/expected``, and run again with its report written to a file.

Inputs live in ``tests/golden/inputs`` and are named relative to it; reports
record only input basenames and hashes, so the bytes do not depend on where
the repository is checked out.  After an intended report change, rewrite the
expected files with ``PYTHONPATH=src python tests/test_golden.py`` and review
the diff.
"""

import contextlib
import io
import os
import pathlib

import pytest

from qcompact.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

#: case name -> (argv, exit code)
CASES = {
    "prokhorov-dist": (["prokhorov-dist", "p.json", "q.json", "--lambda-grid", "0.25,1,4"], 0),
    "tv-dist": (["tv-dist", "p.json", "q.json"], 0),
    "mu-ut": (["mu-ut", "p.json", "q.json", "r.json", "--eps-grid", "0.5,1.5", "--k-max", "3"], 0),
    "cover-profile": (["cover-profile", "space.json", "--k-max", "4"], 0),
    "modulus": (["modulus", "path.json", "--delta-grid", "0.1,0.25,0.5"], 0),
    "cheby": (["cheby", "points.json"], 0),
    "jung-check": (["jung-check", "points.json"], 0),
    "aa-net": (
        ["aa-net", "family.json", "--delta", "0.25", "--alpha", "0.5",
         "--bound-m", "2", "--eps", "0.2"],
        0,
    ),
    "verify-qprokh": (
        ["verify-qprokh", "p.json", "q.json", "r.json", "--lambda-grid", "0.5,1",
         "--eps", "0.6"],
        0,
    ),
    "verify-qprokh-inconclusive": (
        ["verify-qprokh", "p.json", "r.json", "--lambda-grid", "10", "--eps", "0.5",
         "--mu-eps-grid", "0.5", "--k-max", "1"],
        3,
    ),
    "verify-qaa": (
        ["verify-qaa", "family.json", "--delta-grid", "0.25,0.5", "--bound-m", "2",
         "--eps", "0.2"],
        0,
    ),
    "verify-qsaa": (
        ["verify-qsaa", "walks_a.json", "walks_b.json", "--lambda-grid", "0.5,1",
         "--eps-grid", "0.5", "--delta-grid", "0.25", "--m-grid", "2", "--eps", "0.1"],
        0,
    ),
    "gen-walks": (
        ["gen-walks", "--n-steps", "8", "--n-paths", "5", "--scale", "1.0", "--seed", "7"],
        0,
    ),
    "config": (["--config", "config.json"], 0),
    "prokhorov-dist-csv": (
        ["prokhorov-dist", "p.json", "q.json", "--lambda-grid", "0.25,1,4",
         "--format", "csv"],
        0,
    ),
    "cover-profile-csv": (["cover-profile", "space.json", "--k-max", "4", "--format", "csv"], 0),
    "aa-net-csv": (
        ["aa-net", "family.json", "--delta", "0.25", "--alpha", "0.5",
         "--bound-m", "2", "--eps", "0.2", "--format", "csv"],
        0,
    ),
    "error-csv-rejected": (["tv-dist", "p.json", "q.json", "--format", "csv"], 1),
    "error-missing-flag": (["prokhorov-dist", "p.json", "q.json"], 1),
    "error-unknown-command": (["frobnicate", "p.json"], 1),
    "error-unknown-config-key": (["--config", "bad_config.json"], 1),
    "error-config-command-not-a-string": (["--config", "bad_command_config.json"], 1),
    "error-config-inputs-null": (["--config", "null_inputs_config.json"], 1),
    "error-config-params-list": (["--config", "list_params_config.json"], 1),
    "error-unsorted-grid": (["modulus", "path.json", "--delta-grid", "0.5,0.1"], 1),
    "error-gen-walks-no-seed": (
        ["gen-walks", "--n-steps", "8", "--n-paths", "5", "--scale", "1.0"], 1
    ),
    "error-jung-one-point": (["jung-check", "one_point.json"], 1),
    "error-aa-net-alpha": (
        ["aa-net", "family.json", "--delta", "0.25", "--alpha", "5",
         "--bound-m", "2", "--eps", "0.2"],
        1,
    ),
}


def _out_file(name: str, argv: list) -> pathlib.Path:
    suffix = ".csv" if "csv" in argv else ".json"
    return EXPECTED / (name + suffix)


def run_case(argv: list) -> tuple[int, str, str]:
    """Run the CLI in the inputs directory; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _read(path: pathlib.Path) -> str:
    return path.read_text() if path.exists() else ""


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    argv, want_code = CASES[name]
    monkeypatch.chdir(INPUTS)
    code, out, err = run_case(argv)
    assert code == want_code
    assert out == _read(_out_file(name, argv))
    assert err == _read(EXPECTED / (name + ".err"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_written_to_a_file(name, monkeypatch, tmp_path):
    """Each case again with ``--out``: the file, which the report writer
    streams, holds the golden stdout bytes, and a failing case writes none."""
    argv, want_code = CASES[name]
    monkeypatch.chdir(INPUTS)
    target = tmp_path / "report"
    code, out, err = run_case([*argv, "--out", str(target)])
    assert code == want_code
    assert out == ""
    assert err == _read(EXPECTED / (name + ".err"))
    golden = _out_file(name, argv)
    if golden.exists():
        assert target.read_bytes() == golden.read_bytes()
    else:
        assert not target.exists()
    assert [p.name for p in tmp_path.iterdir()] == (["report"] if golden.exists() else [])


def regenerate() -> None:
    os.chdir(INPUTS)
    EXPECTED.mkdir(exist_ok=True)
    for old in EXPECTED.iterdir():
        old.unlink()
    for name, (argv, want_code) in sorted(CASES.items()):
        code, out, err = run_case(argv)
        if code != want_code:
            raise SystemExit(f"{name}: exit {code}, expected {want_code}: {err}")
        if out:
            _out_file(name, argv).write_text(out)
        if err:
            (EXPECTED / (name + ".err")).write_text(err)


if __name__ == "__main__":
    regenerate()
