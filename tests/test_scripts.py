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
                f"residual_history equal in 1, signal_norm equal in 1, "
                f"residual_norm equal in 1\n") in done.stdout
        assert (f"{mode}: largest relative difference over 1 trials with equal supports: "
                f"amplitudes 0.0e+00, residual_history 0.0e+00, signal_norm 0.0e+00, "
                f"residual_norm 0.0e+00\n") in done.stdout
    assert "6 of 6 trials with equal supports" in done.stdout


def _compare_outputs_on(monkeypatch, parent, change):
    """compare_outputs.main on the given per-trial outputs of both sides."""
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    sides = iter([parent, change])
    monkeypatch.setattr(script, "outputs_of", lambda checkout, args: next(sides))
    return script.main(["--parent", str(ROOT), "--seed", "1"])


_TRIAL = {"support": np.array([[3, 1], [5, 0]]), "amplitudes": np.array([1j, -0.25]),
          "residual_history": np.array([0.5, 0.125]), "signal_norm": np.float64(2.0),
          "residual_norm": np.float64(0.75)}


def test_compare_outputs_exits_1_on_a_support_mismatch(monkeypatch, capsys):
    moved = dict(_TRIAL, support=np.array([[3, 2], [5, 0]]))
    parent = {("desk", "ula", 0): _TRIAL, ("desk", "ula", 1): _TRIAL}
    change = {("desk", "ula", 0): _TRIAL, ("desk", "ula", 1): moved}
    assert _compare_outputs_on(monkeypatch, parent, change) == 1
    out = capsys.readouterr().out
    assert "differs: desk ula trial 1: support" in out
    assert "1 of 2 trials with equal supports" in out
    assert ("desk ula: largest relative difference over 1 trials with equal supports: "
            "amplitudes 0.0e+00, residual_history 0.0e+00, signal_norm 0.0e+00, "
            "residual_norm 0.0e+00\n") in out


def test_compare_outputs_reports_the_largest_relative_difference(monkeypatch, capsys):
    # rounding-level changes of equal supports are reported, entry by entry
    # relative to the parent's, and do not fail the comparison
    nudged = dict(_TRIAL, amplitudes=np.array([1j, -0.25 * (1 + 3e-13)]),
                  residual_history=np.array([0.5 * (1 - 2e-15), 0.125]),
                  signal_norm=np.float64(2.0 * (1 + 5e-16)),
                  residual_norm=np.float64(0.75 * (1 - 4e-14)))
    assert _compare_outputs_on(monkeypatch, {("full", "wide", 0): _TRIAL},
                               {("full", "wide", 0): nudged}) == 0
    out = capsys.readouterr().out
    assert ("full wide: 1 trials, support equal in 1, amplitudes equal in 0, "
            "residual_history equal in 0, signal_norm equal in 0, "
            "residual_norm equal in 0\n") in out
    assert ("full wide: largest relative difference over 1 trials with equal supports: "
            "amplitudes 3.0e-13, residual_history 2.0e-15, signal_norm 4.4e-16, "
            "residual_norm 4.0e-14\n") in out
    assert "1 of 1 trials with equal supports" in out
