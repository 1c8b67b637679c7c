"""Smoke runs of the scripts under scripts/ and of `python -m decolab`, each in
its own interpreter."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("name,args,outputs", [
    ("run_fig1.py", ["--t-end", "50", "--dim", "8", "--out-dir", "fig"],
     ["fig/p00.csv", "fig/coh01.csv", "fig/p11.csv"]),
    ("run_trajectories.py", ["--n-traj", "100", "--t-end", "0.5", "--dim", "8",
                             "--csv-out", "ens.csv"], ["ens.csv"]),
    ("run_bounds.py", ["--json-out", "bounds.json"], ["bounds.json"]),
    ("byte_sweep.py", ["--out-dir", "sweep", "--dim", "5"],
     ["sweep/simulate-gup-nonmarkov-g0.03-fock1-d5.csv",
      "sweep/wigner-breuer-g0-sup01-d5.json", "sweep/ens-gup-nonmarkov-ou.csv",
      "sweep/analytic-breuer-g0.03.csv", "sweep/fit-ramsey-no-sigma.json",
      "sweep/bounds-paper.json"]),
])
def test_script_runs_and_writes_its_outputs(tmp_path, name, args, outputs):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for out in outputs:
        assert (tmp_path / out).stat().st_size > 0


def test_module_entry_point_runs_without_warnings(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "decolab", "bounds",
                           "--t1-us", "85.8", "--t2-us", "147.3"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "gup" in json.loads(proc.stdout)
