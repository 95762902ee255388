"""The scripts run end to end on tiny inputs."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from submimo import (ArrayMode, SceneSpec, acquire, build_environment, generate_scene,
                     synth_received)

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
        assert (f"{mode}: acquired coefficients equal in 1 of 1 trials, largest "
                f"relative difference 0.0e+00\n") in done.stdout
        assert (f"{mode}: coefficients acquired through frame files equal in "
                f"1 of 1 trials\n") in done.stdout
        assert f"{mode}: support sets equal in 1 of 1 trials\n" in done.stdout
    assert "6 of 6 trials with equal supports, 6 with equal support sets\n" in done.stdout
    assert done.stdout.endswith(
        "bit-identical trials of 6: 6 in every field, 6 in the acquired coefficients, "
        "6 in the file coefficients\n")


def test_compare_outputs_runs_noiseless_trials_at_an_snr_of_inf(tmp_path):
    done = run_script("compare_outputs.py", "--parent", str(ROOT), "--seed", "3",
                      "--desk-trials", "2", "--full-trials", "0", "--snr-db", "inf")
    assert done.returncode == 0, done.stderr
    for mode in ("desk ula", "desk random", "desk thinned", "desk wide"):
        assert (f"{mode}: parent detection 1.000 false alarms 0.000, "
                f"change detection 1.000 false alarms 0.000\n") in done.stdout
    assert done.stdout.endswith(
        "bit-identical trials of 8: 8 in every field, 8 in the acquired coefficients, "
        "8 in the file coefficients\n")
    # the worker's trials at inf take no noise: their coefficients are the
    # noiseless frame's
    outputs = _compare_outputs_script().run_trials(3, 1, 0, tmp_path, np.inf)
    env = build_environment(ArrayMode.THINNED, "desk", seed=3)
    scene = generate_scene(np.random.default_rng([3, 0, 0]),
                           SceneSpec(num_targets=10, min_sin_sep=0.025),
                           len(env.range_grid), env.plan.pri)
    rx = synth_received(scene, env.array, env.plan, env.sample_rate)
    assert np.array_equal(outputs["desk", "thinned", 0]["coefficients"],
                          acquire(rx, env.plan, env.adc, env.bins).matrices)
    assert outputs["desk", "thinned", 0]["counts"] == (10, 10, 10, 0)


def test_compare_outputs_compares_the_scenes_and_frames_of_40_target_trials(tmp_path):
    done = run_script("compare_outputs.py", "--parent", str(ROOT), "--seed", "5",
                      "--desk-trials", "1", "--full-trials", "1", "--snr-db", "inf",
                      "--targets", "40")
    assert done.returncode == 0, done.stderr
    for mode in ("desk ula", "desk random", "desk thinned", "desk wide",
                 "full ula", "full wide"):
        assert (f"{mode}: scenes equal in 1 of 1 trials, synthesized frames equal "
                f"in 1\n") in done.stdout
    assert done.stdout.endswith(
        "bit-identical trials of 6: 6 in every field, 6 in the acquired coefficients, "
        "6 in the file coefficients\n")
    # the worker's scenes hold --targets targets, as its rows
    outputs = _compare_outputs_script().run_trials(5, 1, 0, tmp_path, np.inf, 40)
    assert {out["scene"].shape for out in outputs.values()} == {(40, 3)}
    assert {out["counts"][0] for out in outputs.values()} == {40}


def test_compare_outputs_reports_scenes_and_frames_that_differ(monkeypatch, capsys):
    moved = dict(_TRIAL, scene=_TRIAL["scene"] * 2, frame="beef")
    parent = {("desk", "thinned", r): _TRIAL for r in range(3)}
    change = {("desk", "thinned", 0): _TRIAL,
              ("desk", "thinned", 1): dict(_TRIAL, frame="beef"),
              ("desk", "thinned", 2): moved}
    assert _compare_outputs_on(monkeypatch, parent, change) == 0
    assert ("desk thinned: scenes equal in 2 of 3 trials, synthesized frames equal "
            "in 1\n") in capsys.readouterr().out


def _compare_outputs_script():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _compare_outputs_on(monkeypatch, parent, change):
    """compare_outputs.main on the given per-trial outputs of both sides."""
    script = _compare_outputs_script()
    sides = iter([parent, change])
    monkeypatch.setattr(script, "outputs_of", lambda checkout, args: next(sides))
    return script.main(["--parent", str(ROOT), "--seed", "1"])


_TRIAL = {"scene": np.array([[1e-6, -0.5, 1j], [2e-6, 0.25, -1]]), "frame": "f00d",
          "support": np.array([[3, 1], [5, 0]]), "amplitudes": np.array([1j, -0.25]),
          "residual_history": np.array([0.5, 0.125]), "signal_norm": np.float64(2.0),
          "residual_norm": np.float64(0.75), "counts": (2, 2, 1, 1),
          "coefficients": np.array([[[2 - 1j], [0.5j]]]),
          "file_coefficients": np.array([[[2 - 1j], [0.5j]]])}


def test_compare_outputs_exits_1_on_a_support_mismatch(monkeypatch, capsys):
    moved = dict(_TRIAL, support=np.array([[3, 2], [5, 0]]), counts=(2, 2, 0, 2))
    parent = {("desk", "ula", 0): _TRIAL, ("desk", "ula", 1): _TRIAL}
    change = {("desk", "ula", 0): _TRIAL, ("desk", "ula", 1): moved}
    assert _compare_outputs_on(monkeypatch, parent, change) == 1
    out = capsys.readouterr().out
    assert "differs: desk ula trial 1: support" in out
    # each side's rates over its trials' counts: 2 of 4 hits and 2 of 4
    # estimates false against 1 and 3
    assert ("desk ula: parent detection 0.500 false alarms 0.500, "
            "change detection 0.250 false alarms 0.750\n") in out
    assert "desk ula: support sets equal in 1 of 2 trials\n" in out
    assert "1 of 2 trials with equal supports, 1 with equal support sets\n" in out
    assert out.endswith("bit-identical trials of 2: 1 in every field, 2 in the acquired "
                        "coefficients, 2 in the file coefficients\n")
    assert ("desk ula: largest relative difference over 1 trials with equal supports: "
            "amplitudes 0.0e+00, residual_history 0.0e+00, signal_norm 0.0e+00, "
            "residual_norm 0.0e+00\n") in out


def test_compare_outputs_tells_a_reordered_support_from_a_lost_target(monkeypatch, capsys):
    # trial 1 selects the same two cells in the other order, trial 2 trades
    # a cell for another: both differ as supports, only trial 2 as a set
    reordered = dict(_TRIAL, support=np.array([[5, 0], [3, 1]]))
    lost = dict(_TRIAL, support=np.array([[3, 1], [6, 0]]))
    parent = {("desk", "wide", r): _TRIAL for r in range(3)}
    change = {("desk", "wide", 0): _TRIAL, ("desk", "wide", 1): reordered,
              ("desk", "wide", 2): lost}
    assert _compare_outputs_on(monkeypatch, parent, change) == 1
    out = capsys.readouterr().out
    assert "desk wide: 3 trials, support equal in 1, " in out
    assert "desk wide: support sets equal in 2 of 3 trials\n" in out
    assert "1 of 3 trials with equal supports, 2 with equal support sets\n" in out


def test_compare_outputs_reports_the_largest_relative_difference(monkeypatch, capsys):
    # rounding-level changes of equal supports are reported, entry by entry
    # relative to the parent's, and do not fail the comparison
    nudged = dict(_TRIAL, amplitudes=np.array([1j, -0.25 * (1 + 3e-13)]),
                  residual_history=np.array([0.5 * (1 - 2e-15), 0.125]),
                  signal_norm=np.float64(2.0 * (1 + 5e-16)),
                  residual_norm=np.float64(0.75 * (1 - 4e-14)),
                  coefficients=np.array([[[2 - 1j], [0.5j * (1 + 6e-14)]]]),
                  file_coefficients=np.array([[[2 - 1j], [0.5j * (1 + 6e-14)]]]))
    assert _compare_outputs_on(monkeypatch, {("full", "wide", 0): _TRIAL},
                               {("full", "wide", 0): nudged}) == 0
    out = capsys.readouterr().out
    assert ("full wide: 1 trials, support equal in 1, amplitudes equal in 0, "
            "residual_history equal in 0, signal_norm equal in 0, "
            "residual_norm equal in 0\n") in out
    assert ("full wide: largest relative difference over 1 trials with equal supports: "
            "amplitudes 3.0e-13, residual_history 2.0e-15, signal_norm 4.4e-16, "
            "residual_norm 4.0e-14\n") in out
    assert ("full wide: acquired coefficients equal in 0 of 1 trials, largest "
            "relative difference 6.0e-14\n") in out
    assert ("full wide: coefficients acquired through frame files equal in "
            "0 of 1 trials\n") in out
    assert "1 of 1 trials with equal supports" in out
    assert out.endswith("bit-identical trials of 1: 0 in every field, 0 in the acquired "
                        "coefficients, 0 in the file coefficients\n")


def test_compare_outputs_reads_a_residual_history_against_its_first_entry(monkeypatch,
                                                                          capsys):
    # past an exact fit a history's entries are rounding: a 1e-24 entry that
    # moves by 1e-5 of itself moved by 2e-29 of the fit's first entry, and the
    # second entry moves by 1e-16 of it
    history = np.array([0.5, 0.125, 1e-24])
    nudged = dict(_TRIAL, residual_history=np.array([0.5, 0.125 + 0.5e-16,
                                                     1e-24 * (1 + 1e-5)]))
    assert _compare_outputs_on(monkeypatch,
                               {("desk", "ula", 0): dict(_TRIAL, residual_history=history)},
                               {("desk", "ula", 0): nudged}) == 0
    out = capsys.readouterr().out
    figure = float(re.search(r"residual_history (\S+),", out).group(1))
    assert 0 < figure < 1e-15
