"""Smoke test of the experiment scripts in ``scripts/``: each runs at a tiny
size in a fresh interpreter and writes its JSON table."""

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


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_writes_its_table(script, tmp_path):
    out = tmp_path / "table.json"
    src = os.path.dirname(os.path.dirname(qcompact.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    subprocess.run(
        [sys.executable, str(SCRIPTS / script), *RUNS[script], "--out", str(out)],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2
    assert all(row["status"] == "verified" for row in rows)
