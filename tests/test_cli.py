import configparser
import dataclasses
import re
import signal

import numpy as np
import pytest
from helpers import MISINDEXED_BLOBS, write_blob

from submimo import (ArrayMode, Scene, Target, build_mode, cli, fileio, harness,
                     oracle_coefficients)
from submimo.cli import main
from submimo.waveform import MAX_FRAME_SAMPLES
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
    ("seed = 7", "seed = -3"),
    ("seed = 99", "seed = -3"),
])
def test_a_zero_or_negative_count_in_the_ini_exits_2(tmp_path, capsys, old, new):
    cfg, _ = write_inputs(tmp_path)
    cfg.write_text(CONFIG.replace(old, new))
    code = main(["experiment", "-c", str(cfg), "-o", str(tmp_path / "metrics")])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


@pytest.mark.parametrize("cells, code", [(MAX_FRAME_SAMPLES, 0), (MAX_FRAME_SAMPLES + 1, 2)])
def test_range_cells_exit_2_only_above_the_limit(tmp_path, capsys, cells, code):
    # simulate builds the environment, range grid included, but recovers nothing
    cfg, scene_path = write_inputs(tmp_path)
    cfg.write_text(CONFIG.replace("profile = desk", f"profile = desk\nrange_cells = {cells}"))
    out = tmp_path / "frames"
    assert main(["simulate", "-c", str(cfg), "--scene", str(scene_path), "-o", str(out)]) == code
    if code:
        assert f"range_cells = {cells}: above the limit" in capsys.readouterr().err
    assert out.exists() == (code == 0)


def test_a_pri_whose_bins_the_adc_cannot_fold_exits_2(tmp_path, capsys):
    # 1501 bins per channel fold onto 750.5 bins of the 7.5 MHz ADC
    cfg, scene_path = write_inputs(tmp_path)
    cfg.write_text(CONFIG + f"\n[waveform]\npri_s = {1501 / 15e6!r}\n")
    code = main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(tmp_path / "frames")])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize("subbands", ["1.0e6:1.3e6, 8.5e6:8.8e6",
                                      "1.005e6:1.3e6, 8.45e6:8.51e6"])
def test_subbands_that_fold_onto_each_other_exit_2_before_any_frame(tmp_path, capsys,
                                                                   monkeypatch, subbands):
    # 1.0-1.3 MHz and 8.5-8.8 MHz fold onto one another under the 7.5 MHz ADC;
    # in the second pair only the first slice's half-energy edge cell folds
    # onto a read bin of the second. The environment's alias table rejects
    # both, before synthesis
    def synthesize(*args):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(harness, "synth_received", synthesize)
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG + f"[waveform]\nsubbands = {subbands}\n")
    code = main(["experiment", "-c", str(cfg), "-o", str(tmp_path / "metrics")])
    assert code == 2
    assert "error: config: folded bin collision" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("waveform", "subbands", "1.0e6:1.005e6", "no bin cell fits inside any subband"),
    ("array", "tx_positions", "0 1 2", r"position counts \(8, 10\), not \(3, 10\)"),
    ("array", "rx_positions", "0 1 2", r"position counts \(8, 10\), not \(8, 3\)"),
])
def test_a_plan_or_array_that_cannot_be_built_exits_2_before_any_frame(
        tmp_path, capsys, monkeypatch, section, key, value, message):
    # a 5 kHz subband holds no whole 10 kHz bin; mode random takes 8
    # transmitters and 10 receivers. Both were exit 3, the second at the
    # array's construction and the first at the environment's
    def synthesize(*args):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(harness, "synth_received", synthesize)
    parser = configparser.ConfigParser()
    parser.read_string(CONFIG)
    parser["array"]["mode"] = "random"
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    cfg = tmp_path / "run.ini"
    with cfg.open("w") as f:
        parser.write(f)
    code = main(["experiment", "-c", str(cfg), "-o", str(tmp_path / "metrics")])
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(f"error: config: .*{message}", err), err
    assert not (tmp_path / "metrics").exists()


# every INI key `fileio._KEYS` reads as a number
_NUMERIC_KEYS = [(section, key) for section, keys in fileio._KEYS.items()
                 for key, convert in keys.items() if convert in (int, float)]


def _one_trial_exit_code(tmp_path, section, key, value):
    """The exit code of one trial of the default configuration with one key
    set to the value; an alarm turns a run past 10 s into a failure
    instead of a hang."""
    parser = configparser.ConfigParser()
    parser.read_string(fileio.DEFAULT_CONFIG)
    parser["experiment"]["trials"] = "1"
    parser[section][key] = value
    cfg = tmp_path / "fuzz.ini"
    with cfg.open("w") as fh:
        parser.write(fh)

    def expire(signum, frame):
        raise TimeoutError(f"[{section}] {key} = {value} ran past 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        return main(["experiment", "-c", str(cfg), "-o", str(tmp_path / "metrics")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-3", "0", "1e400", "2.5"])
@pytest.mark.parametrize("section, key", _NUMERIC_KEYS)
def test_any_numeric_ini_value_exits_0_or_2_in_bounded_time(tmp_path, capsys, section, key,
                                                            value):
    assert _one_trial_exit_code(tmp_path, section, key, value) in (0, 2), \
        capsys.readouterr().err


# every INI key `fileio._KEYS` reads as a name, a position list or a subband
# list; the scene file's path is left out (a missing file is exit 4)
_STRING_KEYS = [("array", "mode"), ("waveform", "subbands"), ("recovery", "profile"),
                ("array", "tx_positions"), ("array", "rx_positions")]


@pytest.mark.parametrize("value", ["", "nan", "x", "1,2,3", "1:2", "-1", ":", "1e400:1e401",
                                   "ula,wide", "7, 7", "0", "inf", "1e6:1.3e6", "0 0",
                                   "full"])
@pytest.mark.parametrize("section, key", _STRING_KEYS)
def test_any_string_ini_value_exits_0_or_2_in_bounded_time(tmp_path, capsys, section, key,
                                                           value):
    assert _one_trial_exit_code(tmp_path, section, key, value) in (0, 2), \
        capsys.readouterr().err


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


@pytest.mark.parametrize("text, key", [
    (CONFIG.replace("max_targets", "max_target"), "[experiment] max_target"),
    (CONFIG + "[waveform]\npri_ms = 1\n", "[waveform] pri_ms"),
], ids=["max_target", "pri_ms"])
def test_a_misspelled_ini_key_exits_2(tmp_path, capsys, text, key):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    code = main(["experiment", "-c", str(cfg), "-o", str(tmp_path / "metrics")])
    assert code == 2
    assert f"error: config: {key} is not a known key" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


def test_an_array_file_carrying_a_wavelength_exits_2(tmp_path, capsys):
    # array files written before the wavelength was dropped carry this line
    cfg = tmp_path / "array.ini"
    fileio.write_array_config(cfg, build_mode(ArrayMode.THINNED, seed=7))
    assert main(["reduction", "-c", str(cfg)]) == 0
    cfg.write_text(cfg.read_text().replace("seed = 7", "seed = 7\nwavelength_m = 0.03"))
    assert main(["reduction", "-c", str(cfg)]) == 2
    assert "[array] wavelength_m is not a known key" in capsys.readouterr().err


@pytest.mark.parametrize("waveform", [
    "channel_spacing_hz = nan", "pri_s = inf", "pulse_width_s = nan",
    "signal_band_hz = 18e6\nguard_hz = -3e6", "signal_band_hz = -3e6\nguard_hz = 18e6",
    "guard_hz = nan", "total_power_w = nan", "total_power_w = 0", "total_power_w = -3",
    "total_power_w = inf",
])
def test_an_fdm_number_out_of_range_exits_2(tmp_path, capsys, waveform):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG + f"[waveform]\n{waveform}\n")
    code = main(["experiment", "-c", str(cfg), "-o", str(tmp_path / "metrics")])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


def test_a_frame_above_the_sample_limit_exits_2_before_synthesis(tmp_path, capsys):
    # thinned: 4 channels x 37.5e6 bins, a 11.2 GiB frame of 5 receivers,
    # rejected while the plan is built
    cfg, scene_path = write_inputs(tmp_path)
    cfg.write_text(cfg.read_text() + "[waveform]\npri_s = 2.5\n")
    assert main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(tmp_path / "frames")]) == 2
    assert "150000000 samples per receiver" in capsys.readouterr().err
    assert not (tmp_path / "frames").exists()


@pytest.mark.parametrize("old, new", [
    ("min_sin_sep = 0.05", "min_sin_sep = nan"),
    ("min_sin_sep = 0.05", "min_sin_sep = -0.05"),
    ("min_range_sep_cells = 5", "min_range_sep_cells = -5"),
    ("max_targets = 3", "max_targets = 3\nclose_pair_sin_gap = nan"),
])
def test_a_scene_separation_out_of_range_exits_2(tmp_path, capsys, old, new):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace(old, new))
    code = main(["experiment", "-c", str(cfg), "-o", str(tmp_path / "metrics")])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err
    assert not (tmp_path / "metrics").exists()


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


def test_acquire_rejects_a_manifest_whose_pri_is_not_a_number(tmp_path, capsys):
    cfg, scene_path = write_inputs(tmp_path)
    frames = tmp_path / "frames"
    assert main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(frames)]) == 0
    manifest = frames / "received.hdr"
    manifest.write_text("".join(
        "pri_s = nan\n" if line.startswith("pri_s") else line
        for line in manifest.read_text().splitlines(True)))
    code = main(["acquire", "-c", str(cfg), "--in", str(frames),
                 "-o", str(tmp_path / "coeffs.bin")])
    assert code == 3
    assert "error: validation:" in capsys.readouterr().err
    assert not (tmp_path / "coeffs.bin").exists()


@pytest.mark.parametrize("spelling", [lambda v: [f"--snr-db={v}"], lambda v: ["--snr-db", v],
                                      lambda v: ["--snr", v]],
                         ids=["joined", "separate", "abbreviated"])
@pytest.mark.parametrize("snr_db", ["-inf", "nan"])
def test_an_snr_of_minus_inf_or_nan_exits_2_from_the_ini_and_3_from_simulate(
        tmp_path, capsys, snr_db, spelling):
    cfg, scene_path = write_inputs(tmp_path)
    ini = tmp_path / "snr.ini"
    ini.write_text(CONFIG + f"snr_db = {snr_db}\n")  # the last section is [experiment]
    assert main(["experiment", "-c", str(ini), "-o", str(tmp_path / "metrics")]) == 2
    assert "error: config:" in capsys.readouterr().err
    # a separate "-inf" token is the option's value, as "--snr-db=-inf" is,
    # also after an abbreviation of the option
    assert main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 *spelling(snr_db), "-o", str(tmp_path / "frames")]) == 3
    assert "error: validation:" in capsys.readouterr().err
    assert not (tmp_path / "frames").exists()


def test_acquire_rejects_active_spans_outside_the_frame(tmp_path, capsys):
    # the thinned desk frame holds 6000 samples; these spans read as 50
    # active samples at 5900-5949 when slices wrap and clip
    cfg, scene_path = write_inputs(tmp_path)
    frames = tmp_path / "frames"
    assert main(["simulate", "-c", str(cfg), "--scene", str(scene_path),
                 "-o", str(frames)]) == 0
    manifest = frames / "received.hdr"
    manifest.write_text("".join(
        "active_spans = -100:-50;7:3;99990:100000\n" if line.startswith("active_spans")
        else line for line in manifest.read_text().splitlines(True)))
    code = main(["acquire", "-c", str(cfg), "--in", str(frames),
                 "-o", str(tmp_path / "coeffs.bin")])
    assert code == 3
    assert "active span" in capsys.readouterr().err
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
