import dataclasses

import numpy as np
import pytest
from helpers import MISINDEXED_BLOBS, write_blob

from submimo import (ArrayMode, Scene, Target, build_mode, cli, fileio, harness,
                     oracle_coefficients)
from submimo.cli import main
from submimo.xampler import BinSet, CoefficientSet

CONFIG = """\
[array]
mode = thinned
seed = 7

[recovery]
profile = desk

[experiment]
trials = 2
seed = 99
num_targets = 3
min_range_sep_cells = 5
min_sin_sep = 0.05
max_targets = 3
"""


def write_inputs(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    scene = Scene(targets=(
        Target(40 * 100e-6 / 300, 0.25, 1.0),
        Target(200 * 100e-6 / 300, -0.5, 1.0),
    ))
    scene_path = tmp_path / "scene.txt"
    fileio.write_scene(scene_path, scene)
    return cfg, scene_path


def test_full_pipeline_through_the_cli(tmp_path, capsys):
    cfg, scene_path = write_inputs(tmp_path)
    iq_dir = tmp_path / "frames"
    blob = tmp_path / "coeffs.bin"
    est_csv = tmp_path / "estimate.csv"
    svg = tmp_path / "display.svg"

    assert main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(iq_dir)]) == 0
    assert (iq_dir / "received.hdr").exists()
    assert (iq_dir / "rx_00.iq").exists()

    assert main(["acquire", "-c", str(cfg), "--in", str(iq_dir),
                 "-o", str(blob), "--csv", str(tmp_path / "coeffs.csv")]) == 0
    assert blob.exists()

    assert main(["recover", "-c", str(cfg), "--in", str(blob),
                 "-o", str(est_csv), "--max-targets", "2"]) == 0
    est = fileio.read_estimate_csv(est_csv)
    assert sorted(est.support) == [(40, 50), (200, 20)]
    np.testing.assert_allclose(est.amplitudes, [1.0, 1.0], atol=1e-5)

    assert main(["ppi", "-c", str(cfg), "--scene", str(scene_path),
                 "--estimate", str(est_csv), "-o", str(svg)]) == 0
    assert svg.exists()
    assert (tmp_path / "display.csv").exists()
    out = capsys.readouterr().out
    assert "2 hits, 0 false alarms" in out


def test_experiment_command(tmp_path, capsys):
    cfg, _ = write_inputs(tmp_path)
    out_dir = tmp_path / "metrics"
    assert main(["experiment", "-c", str(cfg), "-o", str(out_dir)]) == 0
    assert (out_dir / "metrics.json").exists()
    assert (out_dir / "metrics.csv").exists()
    assert "detection 1.000" in capsys.readouterr().out


def test_experiment_mode_override(tmp_path, capsys):
    cfg, _ = write_inputs(tmp_path)
    out_dir = tmp_path / "metrics"
    assert main(["experiment", "-c", str(cfg), "-o", str(out_dir),
                 "--mode", "ula"]) == 0
    assert "mode ula" in capsys.readouterr().out


def test_experiment_mode_override_keeps_positions_to_their_own_mode(tmp_path, capsys):
    # positions drawn with seed 5 under [array] seed 6, so the file's
    # positions and its seed give different random layouts
    array = dataclasses.replace(build_mode(ArrayMode.RANDOM, seed=5), seed=6)
    cfg = tmp_path / "array.ini"
    fileio.write_array_config(cfg, array)
    for mode in ("ula", "thinned"):
        assert main(["experiment", "-c", str(cfg), "-o", str(tmp_path / mode),
                     "--mode", mode]) == 2
        assert "positions belong to mode random" in capsys.readouterr().err
    assert fileio.ToolkitConfig.from_file(cfg).in_mode(ArrayMode.RANDOM).array() == array
    assert main(["experiment", "-c", str(cfg), "-o", str(tmp_path / "random"),
                 "--mode", "random"]) == 0
    assert "mode random" in capsys.readouterr().out


def test_reduction_command(tmp_path, capsys):
    cfg, _ = write_inputs(tmp_path)
    out_csv = tmp_path / "reduction.csv"
    assert main(["reduction", "-c", str(cfg), "-o", str(out_csv)]) == 0
    table = capsys.readouterr().out
    assert "87.50" in table  # thinned mode combined reduction
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 5


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[array]\nmode = mode9\n")
    code = main(["reduction", "-c", str(bad)])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("profile = desk", "profile = desk\nrange_cells = 0"),
    ("profile = desk", "profile = desk\nrange_cells = -5"),
    ("max_targets = 3", "max_targets = 0"),
    ("num_targets = 3", "num_targets = 0"),
])
def test_a_zero_or_negative_count_in_the_ini_exits_2(tmp_path, capsys, old, new):
    cfg, _ = write_inputs(tmp_path)
    cfg.write_text(CONFIG.replace(old, new))
    code = main(["experiment", "-c", str(cfg), "-o", str(tmp_path / "metrics")])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


def test_a_pri_whose_bins_the_adc_cannot_fold_exits_2(tmp_path, capsys):
    # 1501 bins per channel fold onto 750.5 bins of the 7.5 MHz ADC
    cfg, scene_path = write_inputs(tmp_path)
    cfg.write_text(CONFIG + f"\n[waveform]\npri_s = {1501 / 15e6!r}\n")
    code = main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(tmp_path / "frames")])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err


def test_io_errors_exit_4(tmp_path, capsys):
    cfg, _ = write_inputs(tmp_path)
    code = main(["simulate", "-c", str(cfg), "--scene",
                 str(tmp_path / "missing.txt"), "-o", str(tmp_path / "x")])
    assert code == 4
    assert "error: io:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("pri_s", "50e-6"), ("total_power_w", "4")])
def test_acquire_rejects_frames_simulated_under_another_plan(tmp_path, capsys, key, value):
    cfg, scene_path = write_inputs(tmp_path)
    assert main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(tmp_path / "frames")]) == 0
    other = tmp_path / "other.ini"
    other.write_text(CONFIG + f"\n[waveform]\n{key} = {value}\n")
    code = main(["acquire", "-c", str(other), "--in", str(tmp_path / "frames"),
                 "-o", str(tmp_path / "coeffs.bin")])
    assert code == 3
    assert "error: validation:" in capsys.readouterr().err
    assert not (tmp_path / "coeffs.bin").exists()


@pytest.mark.parametrize("text, key", [
    (CONFIG.replace("seed = 7", "seed = seven"), "[array] seed"),
    (CONFIG + "[waveform]\nsubbands = 1e6:abc\n", "[waveform] subbands"),
    (CONFIG + "[adc]\nrate_hz = fast\n", "[adc] rate_hz"),
])
def test_a_malformed_number_in_the_ini_exits_2(tmp_path, capsys, text, key):
    cfg, scene_path = write_inputs(tmp_path)
    cfg.write_text(text)
    code = main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(tmp_path / "frames")])
    assert code == 2
    assert f"error: config: {key}" in capsys.readouterr().err


def test_a_non_numeric_scene_field_exits_3(tmp_path, capsys):
    cfg, scene_path = write_inputs(tmp_path)
    scene_path.write_text("100 0.1 abc 0\n")
    code = main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(tmp_path / "frames")])
    assert code == 3
    assert "error: validation:" in capsys.readouterr().err


def test_acquire_rejects_a_manifest_without_num_rx(tmp_path, capsys):
    cfg, scene_path = write_inputs(tmp_path)
    frames = tmp_path / "frames"
    assert main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(frames)]) == 0
    manifest = frames / "received.hdr"
    manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                if not line.startswith("num_rx")))
    code = main(["acquire", "-c", str(cfg), "--in", str(frames),
                 "-o", str(tmp_path / "coeffs.bin")])
    assert code == 3
    assert "error: validation:" in capsys.readouterr().err
    assert not (tmp_path / "coeffs.bin").exists()


def test_acquire_rejects_a_manifest_without_a_plan_digest(tmp_path, capsys):
    cfg, scene_path = write_inputs(tmp_path)
    frames = tmp_path / "frames"
    assert main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(frames)]) == 0
    manifest = frames / "received.hdr"
    manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                if not line.startswith("plan_digest")))
    code = main(["acquire", "-c", str(cfg), "--in", str(frames),
                 "-o", str(tmp_path / "coeffs.bin")])
    assert code == 3
    assert "plan_digest" in capsys.readouterr().err
    assert not (tmp_path / "coeffs.bin").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["reduction", "-c", str(tmp_path / "absent.ini")])
    assert code == 2


def test_experiment_and_simulate_build_from_the_same_ini(tmp_path, monkeypatch):
    # a non-default ADC rate (no folding) and the [array] seed 7, which
    # differs from the [experiment] seed 1234
    _, scene_path = write_inputs(tmp_path)
    cfg = tmp_path / "default.ini"
    cfg.write_text(fileio.DEFAULT_CONFIG.replace("rate_hz = 7.5e6", "rate_hz = 15e6")
                   .replace("trials = 10", "trials = 1"))
    seen = {"synth_received": [], "acquire": []}
    for module in (cli, harness):
        for name, calls in seen.items():
            def spy(*args, _real=getattr(module, name), _calls=calls, **kwargs):
                _calls.append(args)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)

    assert main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(tmp_path / "frames")]) == 0
    assert main(["acquire", "-c", str(cfg), "--in", str(tmp_path / "frames"),
                 "-o", str(tmp_path / "coeffs.bin")]) == 0
    assert main(["experiment", "-c", str(cfg), "-o", str(tmp_path / "metrics")]) == 0

    arrays = [args[1] for args in seen["synth_received"]]
    adcs = [args[2] for args in seen["acquire"]]
    assert len(arrays) == len(adcs) == 2
    assert arrays[0] == arrays[1]
    assert adcs[0] == adcs[1] and adcs[0].rate == 15e6


@pytest.mark.parametrize("mismatch", [None, "bins", "channels"])
def test_recover_checks_the_blob_against_the_configured_environment(
        tmp_path, capsys, mismatch):
    cfg, _ = write_inputs(tmp_path)
    env = fileio.ToolkitConfig.from_file(cfg).environment()
    scene = Scene(targets=(Target(env.range_grid.delays[40],
                                  env.azi_grid.values[50], 1.0),))
    c = oracle_coefficients(scene, env.array, env.plan, env.bins)
    if mismatch == "bins":
        c = CoefficientSet(matrices=c.matrices[:, :-1],
                           bins=BinSet(indices=c.bins.indices[:-1],
                                       per_channel_bins=c.bins.per_channel_bins))
    elif mismatch == "channels":  # 7 of the 8 transmitters
        c = dataclasses.replace(c, matrices=c.matrices[1:])
    blob, est_csv = tmp_path / "coeffs.bin", tmp_path / "estimate.csv"
    fileio.write_coefficients(blob, c)
    code = main(["recover", "-c", str(cfg), "--in", str(blob),
                 "-o", str(est_csv), "--max-targets", "1"])
    if mismatch is None:
        assert code == 0
        assert fileio.read_estimate_csv(est_csv).support == ((40, 50),)
    else:
        assert code == 3
        assert "error: validation:" in capsys.readouterr().err


def _recover_blob(tmp_path, capsys, transform):
    """Exit code of `recover` on a desk blob rewritten by `transform`."""
    cfg, _ = write_inputs(tmp_path)
    env = fileio.ToolkitConfig.from_file(cfg).environment()
    scene = Scene(targets=(Target(env.range_grid.delays[40],
                                  env.azi_grid.values[50], 1.0),))
    blob = tmp_path / "coeffs.bin"
    transform(blob, oracle_coefficients(scene, env.array, env.plan, env.bins))
    code = main(["recover", "-c", str(cfg), "--in", str(blob),
                 "-o", str(tmp_path / "estimate.csv"), "--max-targets", "3"])
    return code, capsys.readouterr()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_recover_rejects_a_blob_with_non_finite_coefficients(tmp_path, capsys, value):
    def corrupt(blob, c):
        y = c.matrices.copy()
        y[0, 3, 2] = value
        fileio.write_coefficients(blob, dataclasses.replace(c, matrices=y))
    code, out = _recover_blob(tmp_path, capsys, corrupt)
    assert code == 3
    assert "error: validation:" in out.err and "recovered" not in out.out


def test_recover_rejects_a_blob_from_a_receiver_subset(tmp_path, capsys):
    def subset(blob, c):
        fileio.write_coefficients(blob, dataclasses.replace(c, matrices=c.matrices[:, :, :3]))
    code, out = _recover_blob(tmp_path, capsys, subset)
    assert code == 3
    assert "error: validation:" in out.err


@pytest.mark.parametrize("case", sorted(MISINDEXED_BLOBS))
def test_recover_rejects_a_blob_whose_index_lists_are_not_every_one_in_order(
        tmp_path, capsys, case):
    def misindex(blob, c):
        write_blob(blob, c.bins, *MISINDEXED_BLOBS[case](c.matrices))
    code, out = _recover_blob(tmp_path, capsys, misindex)
    assert code == 3
    assert "error: validation:" in out.err and "every one, in order" in out.err


@pytest.mark.parametrize("cut", [16, -3])
def test_recover_rejects_a_truncated_or_padded_blob(tmp_path, capsys, cut):
    def resize(blob, c):
        fileio.write_coefficients(blob, c)
        data = blob.read_bytes()
        blob.write_bytes(data[:-cut] if cut > 0 else data + bytes(-cut))
    code, out = _recover_blob(tmp_path, capsys, resize)
    assert code == 3
    assert "error: validation:" in out.err
