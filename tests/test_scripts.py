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


def test_byte_sweep_against_reports_the_largest_differences(tmp_path):
    proc = run_script("byte_sweep.py", "--out-dir", "old", "--dim", "5", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    old = tmp_path / "old"
    # one CSV cell 1e-6 off relative, one JSON number 0.5 off absolute, one
    # string changed, one file only in the new sweep
    csv = old / "analytic-breuer-g0.03.csv"
    lines = csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1.0 + 1e-6))
    lines[1] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    js = old / "bounds-paper.json"
    data = json.loads(js.read_text())
    data["breuer"]["gamma_inv"]["value"] += 0.5
    data["breuer"]["gamma_inv"]["unit"] = "ms"
    js.write_text(json.dumps(data))
    (old / "fit-exp-sigma.json").unlink()
    # one run that took the other propagator
    js = old / "simulate-breuer-g0-sup01-d5.json"
    data = json.loads(js.read_text())
    data["diagnostics"]["propagator"] = "rk4"
    js.write_text(json.dumps(data))
    proc = run_script("byte_sweep.py", "--out-dir", "new", "--dim", "5",
                      "--against", "old", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = {line.split()[-1]: line.split()[:-1] for line in proc.stdout.splitlines()
              if line.startswith(("abs ", "only in "))}
    assert report["fit-exp-sigma.json"] == ["only", "in", "new"]
    d_abs, d_rel, other = (float(report["analytic-breuer-g0.03.csv"][i]) for i in (1, 3, 5))
    assert other == 0 and d_rel == pytest.approx(1e-6, rel=1e-3)
    d_abs, d_rel, other = (float(report["bounds-paper.json"][i]) for i in (1, 3, 5))
    assert other == 1 and d_abs == pytest.approx(0.5)
    unchanged = report["simulate-breuer-g0-sup01-d5.csv"]
    assert unchanged == ["abs", "0", "rel", "0", "other", "0"]
    moved = [line for line in proc.stdout.splitlines() if line.startswith("propagator ")]
    assert moved == ["propagator rk4 -> exact-blocks  simulate-breuer-g0-sup01-d5"]
