"""The scripts run end to end on tiny inputs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_detection_experiment_writes_metrics_and_a_ppi(tmp_path):
    done = run_script("run_detection_experiment.py", "--trials", "1",
                      "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "ppi_thinned_trial0.svg").read_text().startswith("<svg")
    assert (tmp_path / "ppi_thinned_trial0.csv").read_text().startswith("kind,")
    for mode in ("ula", "random", "thinned", "wide"):
        assert (tmp_path / mode / "metrics.csv").exists()


def test_resolution_experiment_prints_every_mode():
    done = run_script("run_resolution_experiment.py", "--trials", "1")
    assert done.returncode == 0, done.stderr
    for mode in ("ula", "random", "thinned", "wide"):
        assert mode in done.stdout


def test_compare_outputs_finds_this_checkout_equal_to_itself():
    done = run_script("compare_outputs.py", "--parent", str(ROOT), "--seed", "3",
                      "--desk-trials", "1", "--full-trials", "1")
    assert done.returncode == 0, done.stderr
    for mode in ("desk ula", "desk random", "desk thinned", "desk wide",
                 "full ula", "full wide"):
        assert (f"{mode}: 1 trials, support equal in 1, amplitudes equal in 1, "
                f"residual_history equal in 1") in done.stdout
    assert "6 of 6 trials with equal supports" in done.stdout


def test_compare_outputs_exits_1_on_a_support_mismatch(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    trial = {"support": np.array([[3, 1]]), "amplitudes": np.array([1j]),
             "residual_history": np.array([0.5])}
    moved = dict(trial, support=np.array([[3, 2]]))
    sides = iter([{("desk", "ula", 0): trial, ("desk", "ula", 1): trial},
                  {("desk", "ula", 0): trial, ("desk", "ula", 1): moved}])
    monkeypatch.setattr(script, "outputs_of", lambda checkout, args: next(sides))
    assert script.main(["--parent", str(ROOT), "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "differs: desk ula trial 1: support" in out
    assert "1 of 2 trials with equal supports" in out
