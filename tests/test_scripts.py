"""The experiment scripts run end to end on one trial."""

import os
import subprocess
import sys
from pathlib import Path

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
