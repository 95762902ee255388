import configparser
import dataclasses

import numpy as np
import pytest
from helpers import MISINDEXED_BLOBS, write_blob

from submimo import (ConfigError, Scene, Target, ValidationError, conventional_plan,
                     oracle_coefficients, synth_received)
from submimo import fileio
from submimo.geometry import ArrayMode


def test_iq_roundtrip(tmp_path):
    samples = np.array([1 + 2j, -0.5 + 0.25j, 0.0, 3.5 - 1e-3j])
    path = tmp_path / "frame.iq"
    fileio.write_iq(path, samples)
    back = fileio.read_iq(path)
    assert back.dtype == np.complex64
    assert np.array_equal(back, samples.astype(np.complex64))  # float32 storage
    assert list(tmp_path.iterdir()) == [path]  # no sidecar


def test_iq_bytes_are_interleaved_little_endian_float32(tmp_path):
    samples = np.array([[1 + 2j, -0.5 + 0.25j], [0.0, 3.5 - 1e-3j]])
    path = tmp_path / "frame.iq"
    fileio.write_iq(path, samples)
    interleaved = np.array([1.0, 2.0, -0.5, 0.25, 0.0, 0.0, 3.5, -1e-3], dtype="<f4")
    assert path.read_bytes() == interleaved.tobytes()


def test_plan_digest_is_stable_and_discriminating(desk_env):
    a = fileio.plan_digest(desk_env.plan)
    assert a == fileio.plan_digest(desk_env.plan)
    assert a != fileio.plan_digest(conventional_plan(desk_env.plan.base))


def test_received_roundtrip(tmp_path, desk_env):
    scene = Scene(targets=(Target(2e-5, 0.25, 1.0), Target(6e-5, -0.5, 1.0j)))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    back = fileio.read_received(tmp_path / "frames")
    assert back.num_rx == rx.num_rx
    assert back.sample_rate == rx.sample_rate
    assert back.pri == rx.pri
    np.testing.assert_array_equal(back.active_mask, rx.active_mask)
    # float32 storage: relative error bounded by the mantissa
    assert np.max(np.abs(back.samples - rx.samples)) < 1e-5 * np.max(np.abs(rx.samples))
    assert np.array_equal(fileio.read_received(tmp_path / "frames", desk_env.plan).samples,
                          back.samples)


def _rewrite_manifest(directory, key, value):
    """Set `key = value` in a written manifest; a value of None drops the key."""
    manifest = directory / "received.hdr"
    lines = [line for line in manifest.read_text().splitlines()
             if line.partition("=")[0].strip() != key]
    if value is not None:
        lines.append(f"{key} = {value}")
    manifest.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("key, value", [
    ("num_rx", None), ("sample_rate_hz", None), ("pri_s", None),
    ("num_rx", "ten"), ("num_rx", "2.5"), ("sample_rate_hz", "fast"), ("pri_s", ""),
    ("num_rx", "0"), ("active_spans", "12:x"),
])
def test_received_manifest_with_a_missing_or_malformed_key_is_rejected(
        tmp_path, desk_env, key, value):
    rx = synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    _rewrite_manifest(tmp_path / "frames", key, value)
    with pytest.raises(ValidationError, match=key):
        fileio.read_received(tmp_path / "frames")


@pytest.mark.parametrize("key, value", [
    ("pri_s", "nan"), ("pri_s", "inf"), ("pri_s", "0.0"), ("pri_s", "-0.0001"),
    ("sample_rate_hz", "5.0"), ("sample_rate_hz", "nan"),
    ("sample_rate_hz", "120000000.5"),
])
def test_received_manifest_with_a_bad_pri_or_a_rate_off_the_frame_is_rejected(
        tmp_path, desk_env, key, value):
    # the frame holds 12000 samples over 100 us: 120 MHz, within 1e-9
    rx = synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    _rewrite_manifest(tmp_path / "frames", key, value)
    with pytest.raises(ValidationError, match="PRI" if key == "pri_s" else key):
        fileio.read_received(tmp_path / "frames")
    _rewrite_manifest(tmp_path / "frames", key, {"pri_s": "0.0001",
                                                 "sample_rate_hz": "120000000.1"}[key])
    assert fileio.read_received(tmp_path / "frames").sample_rate == 120e6


@pytest.mark.parametrize("spans", ["-100:-50", "7:3", "5:5", "11999:12001",
                                   "99990:100000", "0:10;-3:2"])
def test_received_active_spans_must_lie_in_the_frame_and_start_before_they_end(
        tmp_path, desk_env, spans):
    rx = synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    _rewrite_manifest(tmp_path / "frames", "active_spans", spans)
    with pytest.raises(ValidationError, match="active span"):
        fileio.read_received(tmp_path / "frames")


def test_received_active_spans_may_cover_the_whole_frame(tmp_path, desk_env):
    rx = synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    n = rx.spectrum.shape[1]
    _rewrite_manifest(tmp_path / "frames", "active_spans", f"0:1;{n - 1}:{n}")
    mask = fileio.read_received(tmp_path / "frames").active_mask
    assert np.flatnonzero(mask).tolist() == [0, n - 1]


def test_received_frames_are_a_manifest_and_one_iq_file_per_receiver(tmp_path, desk_env):
    rx = synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    names = sorted(f.name for f in (tmp_path / "frames").iterdir())
    assert names == ["received.hdr"] + [f"rx_{q:02d}.iq" for q in range(rx.num_rx)]
    samples = rx.samples
    for q in range(rx.num_rx):
        assert ((tmp_path / "frames" / f"rx_{q:02d}.iq").read_bytes()
                == samples[q].astype("<c8").tobytes())


def test_received_spectrum_is_the_transform_of_the_stored_samples(tmp_path, desk_env):
    rx = synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    stored = np.stack([fileio.read_iq(tmp_path / "frames" / f"rx_{q:02d}.iq")
                       for q in range(rx.num_rx)])
    back = fileio.read_received(tmp_path / "frames")
    assert np.array_equal(back.spectrum,
                          np.fft.fft(stored.astype(complex), axis=1, norm="forward"))


def test_received_frames_are_read_without_their_sidecars(tmp_path, desk_env):
    # frames written before the per-receiver sidecars were dropped carry an
    # `rx_XX.iq.hdr` next to each I/Q file; the reader ignores them
    rx = synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    want = fileio.read_received(tmp_path / "frames", desk_env.plan)
    for q in range(rx.num_rx):
        (tmp_path / "frames" / f"rx_{q:02d}.iq.hdr").write_text(
            f"sample_rate_hz = {rx.sample_rate!r}\nrx_index = {q}\n")
    back = fileio.read_received(tmp_path / "frames", desk_env.plan)
    assert np.array_equal(back.spectrum, want.spectrum)
    assert np.array_equal(back.active_mask, want.active_mask)
    assert (back.pri, back.sample_rate) == (want.pri, want.sample_rate)


def test_received_frame_with_an_odd_float_count_is_rejected(tmp_path, desk_env):
    rx = synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    path = tmp_path / "frames" / "rx_02.iq"
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValidationError, match="odd float count"):
        fileio.read_received(tmp_path / "frames")


def test_received_frames_of_unequal_length_are_rejected(tmp_path, desk_env):
    rx = synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    fileio.write_iq(tmp_path / "frames" / "rx_01.iq", rx.samples[1, :-1])
    with pytest.raises(ValidationError, match="length"):
        fileio.read_received(tmp_path / "frames")


def test_received_frames_of_another_plan_are_rejected(tmp_path, desk_env):
    rx = synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    other = dataclasses.replace(desk_env.plan, total_power=4.0)
    with pytest.raises(ValidationError, match="plan"):
        fileio.read_received(tmp_path / "frames", other)


@pytest.mark.parametrize("value", [None, ""])
def test_received_manifest_without_a_plan_digest_is_rejected_given_a_plan(
        tmp_path, desk_env, value):
    rx = synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    fileio.write_received(tmp_path / "frames", rx, desk_env.plan)
    _rewrite_manifest(tmp_path / "frames", "plan_digest", value)
    with pytest.raises(ValidationError, match="plan_digest"):
        fileio.read_received(tmp_path / "frames", desk_env.plan)
    # without a plan there is nothing to check the frames against
    assert fileio.read_received(tmp_path / "frames").num_rx == rx.num_rx


def test_coefficient_blob_roundtrip(tmp_path, desk_env):
    scene = Scene(targets=(Target(2e-5, 0.25, 1.0),))
    coeffs = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    path = tmp_path / "coeffs.bin"
    fileio.write_coefficients(path, coeffs)
    back = fileio.read_coefficients(path)
    assert back.bins == coeffs.bins
    assert back.matrices.shape == coeffs.matrices.shape
    assert np.max(np.abs(back.matrices - coeffs.matrices)) < 1e-6
    # the blob is the format's version-1 layout with every index, in order
    m, _, q = coeffs.matrices.shape
    write_blob(tmp_path / "ref.bin", coeffs.bins, coeffs.matrices, range(m), range(q))
    assert path.read_bytes() == (tmp_path / "ref.bin").read_bytes()


@pytest.mark.parametrize("case", sorted(MISINDEXED_BLOBS))
def test_coefficient_blob_must_list_every_channel_in_order(tmp_path, desk_env, case):
    scene = Scene(targets=(Target(2e-5, 0.25, 1.0),))
    coeffs = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    path = tmp_path / "coeffs.bin"
    write_blob(path, coeffs.bins, *MISINDEXED_BLOBS[case](coeffs.matrices))
    with pytest.raises(ValidationError, match="every one, in order"):
        fileio.read_coefficients(path)


@pytest.mark.parametrize("cut", [1, 8, 1000, -1, -4])
def test_coefficient_blob_length_must_match_its_header(tmp_path, desk_env, cut):
    # a positive cut truncates the blob, a negative one appends bytes
    scene = Scene(targets=(Target(2e-5, 0.25, 1.0),))
    coeffs = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    path = tmp_path / "coeffs.bin"
    fileio.write_coefficients(path, coeffs)
    data = path.read_bytes()
    path.write_bytes(data[:-cut] if cut > 0 else data + bytes(-cut))
    with pytest.raises(ValidationError):
        fileio.read_coefficients(path)


def test_coefficient_blob_shorter_than_its_header_rejected(tmp_path):
    path = tmp_path / "coeffs.bin"
    path.write_bytes(fileio._COEFF_MAGIC + bytes(10))
    with pytest.raises(ValidationError):
        fileio.read_coefficients(path)


def test_coefficient_csv(tmp_path, desk_env):
    scene = Scene(targets=(Target(2e-5, 0.25, 1.0),))
    coeffs = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    path = tmp_path / "coeffs.csv"
    fileio.coefficients_to_csv(path, coeffs)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + coeffs.matrices.size
    tx, k, rx, re, im = lines[-1].split(",")
    m, _, q = coeffs.matrices.shape
    assert (int(tx), int(k), int(rx)) == (m - 1, coeffs.bins.indices[-1], q - 1)
    assert complex(float(re), float(im)) == coeffs.matrices[-1, -1, -1]


def test_scene_roundtrip(tmp_path):
    scene = Scene(targets=(
        Target(2e-5, 0.25, 1.0 + 0.0j),
        Target(6.5e-5, -0.5, 0.3 * np.exp(1j * np.radians(45))),
    ))
    path = tmp_path / "scene.txt"
    fileio.write_scene(path, scene)
    back = fileio.read_scene(path)
    assert len(back) == 2
    for got, want in zip(back.targets, scene.targets):
        assert got.delay == pytest.approx(want.delay)
        assert got.sin_doa == pytest.approx(want.sin_doa)
        assert got.amplitude == pytest.approx(want.amplitude)


def test_scene_file_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1000.0 0.5\n")
    with pytest.raises(ValidationError):
        fileio.read_scene(path)


def test_scene_file_rejects_a_non_numeric_field(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("100 0.1 abc 0\n")
    with pytest.raises(ValidationError, match="abc"):
        fileio.read_scene(path)


def test_estimate_csv_roundtrip(tmp_path, desk_env):
    from submimo import matrix_omp
    scene = Scene(targets=(Target(desk_env.range_grid.delays[40],
                                  desk_env.azi_grid.values[50], 0.7 - 0.2j),))
    coeffs = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    est = matrix_omp(coeffs, desk_env.dictionaries, max_targets=1)
    path = tmp_path / "estimate.csv"
    fileio.write_estimate_csv(path, est)
    back = fileio.read_estimate_csv(path)
    assert back.support == est.support
    np.testing.assert_allclose(back.amplitudes, est.amplitudes)
    np.testing.assert_allclose(back.ranges_m, est.ranges_m)
    assert est.signal_norm > 0
    assert back.residual_norm == est.residual_norm
    assert back.signal_norm == est.signal_norm
    assert back.residual_rel == est.residual_rel


@pytest.mark.parametrize("text", [
    "range_cell,azimuth_cell,range_m,sin_doa,re,im\n1,2,3.0,0.1,1.0,0.0\n",
    "# residual_norm=0.5 signal_norm=1.0\nrange_cell,azimuth_cell,range_m,sin_doa,re,im\n"
    "1,2,3.0\n",
])
def test_estimate_csv_rejects_missing_norms_and_malformed_rows(tmp_path, text):
    path = tmp_path / "estimate.csv"
    path.write_text(text)
    with pytest.raises(ValidationError):
        fileio.read_estimate_csv(path)


def test_array_config_roundtrip(tmp_path):
    from submimo import build_mode
    array = build_mode(ArrayMode.THINNED, seed=13)
    path = tmp_path / "array.ini"
    fileio.write_array_config(path, array)
    back = fileio.ToolkitConfig.from_file(path).array()
    assert back == array


def test_array_config_with_explicit_positions(tmp_path):
    path = tmp_path / "array.ini"
    path.write_text("""\
[array]
mode = thinned
tx_positions = 0 20 40 60
rx_positions = 1 15 33 52 79
""")
    array = fileio.ToolkitConfig.from_file(path).array()
    assert array.tx_positions == (0, 20, 40, 60)
    assert array.rx_positions == (1, 15, 33, 52, 79)
    assert array.aperture_slots == 80


def test_array_config_rejects_bad_positions(tmp_path):
    path = tmp_path / "array.ini"
    path.write_text("[array]\nmode = thinned\ntx_positions = 0 99 40 60\n"
                    "rx_positions = 1 15 33 52 79\n")
    with pytest.raises(ConfigError, match="outside the aperture"):
        fileio.ToolkitConfig.from_file(path).array()


class RecordingParser(configparser.ConfigParser):
    """Remembers every (section, option) the toolkit asks for."""

    def __init__(self):
        super().__init__(inline_comment_prefixes=(";", "#"))
        self.asked = set()

    def get(self, section, option, **kwargs):
        self.asked.add((section, option))
        return super().get(section, option, **kwargs)


def test_every_default_config_key_is_read():
    parser = RecordingParser()
    parser.read_string(fileio.DEFAULT_CONFIG)
    cfg = fileio.ToolkitConfig(parser)
    cfg.environment()
    cfg.experiment()
    shipped = {(section, option) for section in parser.sections()
               for option in parser.options(section)}
    assert shipped - parser.asked == set()


def test_default_config_is_the_reference_design(desk_envs):
    parser = configparser.ConfigParser()
    parser.read_string(fileio.DEFAULT_CONFIG)
    env = fileio.ToolkitConfig(parser).environment()
    ref = desk_envs[ArrayMode.RANDOM]  # build_environment(..., seed=7)
    assert env.array == ref.array
    assert env.plan == ref.plan
    assert env.adc == ref.adc
    assert env.range_grid.resolution == ref.range_grid.resolution
    np.testing.assert_array_equal(env.range_grid.delays, ref.range_grid.delays)


def test_config_parsing(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(fileio.DEFAULT_CONFIG)
    cfg = fileio.ToolkitConfig.from_file(path)
    assert cfg.mode is ArrayMode.RANDOM
    assert cfg.array_seed == 7
    assert cfg.profile == "desk"
    plan = cfg.cognitive_plan(8)
    assert plan.amplitude_scale == pytest.approx(2.0)
    exp = cfg.experiment()
    assert exp.trials == 10
    assert exp.snr_db == -5.0
    assert exp.scene.num_targets == 10


def test_config_with_explicit_subbands(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("""\
[array]
mode = ula
[waveform]
subbands = 1.0e6:1.5e6, 4.0e6:4.5e6
[experiment]
trials = 1
""")
    cfg = fileio.ToolkitConfig.from_file(path)
    plan = cfg.cognitive_plan(8)
    assert len(plan.subbands) == 2
    assert plan.subbands[0].lo == pytest.approx(1.0e6)


def _ini(section, key, value):
    """A thinned-mode INI that sets `[section] key = value`."""
    head = "[array]\nmode = thinned\n" + ("" if section == "array" else f"[{section}]\n")
    return head + f"{key} = {value}\n"


# a malformed value for each key that `fileio._KEYS` converts; a key missing
# here takes "1 2 x", and a key that is accepted but never read fails the test
_MALFORMED = {
    ("array", "seed"): "seven",
    ("array", "tx_positions"): "0 20 forty 60",
    ("waveform", "pri_s"): "100us",
    ("waveform", "subbands"): "1e6:abc",
    ("adc", "rate_hz"): "7.5 MHz",
    ("recovery", "range_cells"): "3e2",
    ("experiment", "trials"): "ten",
    ("experiment", "snr_db"): "-5dB",
}


@pytest.mark.parametrize("section, key, value", [
    *((section, key, _MALFORMED.get((section, key), "1 2 x"))
      for section, keys in fileio._KEYS.items()
      for key, convert in keys.items() if convert is not None),
    ("waveform", "subbands", "1e6"),
])
def test_a_malformed_number_is_a_config_error_naming_its_key(tmp_path, section,
                                                             key, value):
    path = tmp_path / "run.ini"
    path.write_text(_ini(section, key, value))
    cfg = fileio.ToolkitConfig.from_file(path)
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
        cfg.environment()
        cfg.experiment()


@pytest.mark.parametrize("section, key, value", [
    ("array", "wavelength_m", "3 cm"),
    ("array", "wavelength_m", "0.03"),
    ("waveform", "pri_ms", "1"),
    ("waveform", "guard", "3e6"),
    ("experiment", "pair_range_clearance_cells", "6"),
])
def test_an_unknown_key_is_a_config_error_naming_the_known_ones(tmp_path, section,
                                                               key, value):
    path = tmp_path / "run.ini"
    path.write_text(_ini(section, key, value))
    known = ", ".join(fileio._KEYS[section])
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} .*{known}$"):
        fileio.ToolkitConfig.from_file(path)


@pytest.mark.parametrize("section", ["reciever", "DEFAULT"])
def test_an_unknown_section_is_a_config_error(tmp_path, section):
    path = tmp_path / "run.ini"
    path.write_text(f"[array]\nmode = thinned\n[{section}]\nseed = 3\n")
    with pytest.raises(ConfigError, match=rf"section \[{section}\].*\[recovery\]"):
        fileio.ToolkitConfig.from_file(path)


@pytest.mark.parametrize("cells, want", [("", 300), ("40", 40)])
def test_range_cells_default_to_the_profile(tmp_path, cells, want):
    path = tmp_path / "run.ini"
    path.write_text(f"[array]\nmode = thinned\n[recovery]\nrange_cells = {cells}\n")
    cfg = fileio.ToolkitConfig.from_file(path)
    assert cfg.range_cells == want
    assert len(cfg.environment().range_grid) == want


@pytest.mark.parametrize("section, key, value", [
    ("recovery", "range_cells", "0"),
    ("recovery", "range_cells", "-5"),
    ("experiment", "max_targets", "0"),
    ("experiment", "num_targets", "0"),
    ("array", "seed", "-3"),
    ("experiment", "seed", "-3"),
])
def test_a_zero_or_negative_count_is_a_config_error(tmp_path, section, key, value):
    path = tmp_path / "run.ini"
    path.write_text(_ini(section, key, value))
    cfg = fileio.ToolkitConfig.from_file(path)
    with pytest.raises(ConfigError):
        cfg.environment()
        cfg.experiment()


def test_an_empty_numeric_key_takes_its_default(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[array]\nmode = thinned\nseed =\n[experiment]\ntrials =\n"
                    "snr_db =\n")
    cfg = fileio.ToolkitConfig.from_file(path)
    assert cfg.array_seed == 0
    exp = cfg.experiment()
    assert (exp.trials, exp.snr_db) == (1, None)


@pytest.mark.parametrize("text", ["mode = ula\n", "[array]\nmode = ula\n[array]\n",
                                  "[array]\nmode = ula\nmode = wide\n"])
def test_an_ini_that_does_not_parse_is_a_config_error(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ConfigError):
        fileio.ToolkitConfig.from_file(path)


def test_missing_config_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        fileio.ToolkitConfig.from_file(tmp_path / "absent.ini")


def test_unknown_mode_is_a_config_error():
    with pytest.raises(ConfigError):
        fileio.parse_mode("mode9")


def test_metrics_output(tmp_path):
    from submimo import ArrayMode, ExperimentConfig, SceneSpec, run_experiment
    record = run_experiment(ExperimentConfig(
        mode=ArrayMode.THINNED,
        scene=SceneSpec(num_targets=3, min_range_sep_cells=5, min_sin_sep=0.05),
        profile="desk", snr_db=None, trials=2, seed=1))
    fileio.write_metrics(tmp_path, record)
    import json
    data = json.loads((tmp_path / "metrics.json").read_text())
    assert data["detection_rate"] == 1.0
    assert len(data["trials"]) == 2
    # noiseless: no noise stage; every other stage ran once per trial
    assert list(data["stages"]) == ["scene", "synthesize", "acquire", "recover", "match"]
    for entry in data["stages"].values():
        assert entry["calls"] == 2 and entry["seconds"] >= 0.0
    csv_lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 3
