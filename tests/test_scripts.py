"""Smoke test of the experiment scripts in ``scripts/``: each runs at a tiny
size in a fresh interpreter and writes its JSON table or line."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import qcompact

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"

#: script -> arguments that keep it to about a second
RUNS = {
    "walk_compactness.py": ["--steps", "8,16", "--paths", "20"],
    "tightness_sandwich.py": ["--satellites", "3", "--masses", "0.1,0.4"],
    "ramp_net_experiment.py": ["--widths", "0.2,0.1", "--step", "0.05", "--eps", "0.05"],
}


def run_script(script, *args) -> str:
    """The standard output of ``script`` run with ``args`` on this package."""
    src = os.path.dirname(os.path.dirname(qcompact.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    ).stdout


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_writes_its_table(script, tmp_path):
    out = tmp_path / "table.json"
    run_script(script, *RUNS[script], "--out", str(out))
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2
    assert all(row["status"] == "verified" for row in rows)


def test_prokhorov_scale_prints_one_json_line():
    lines = run_script("prokhorov_scale.py", "--n", "60", "--lam", "1", "--seed", "0").splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert (row["n"], row["lam"], row["seed"]) == (60, 1.0, 0)
    assert 0.0 < row["alpha_star"] < 1.0 and row["flows"] > 0
    assert row["seconds"] > 0.0 and row["peak_rss_mib"] > 0.0
