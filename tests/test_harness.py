import dataclasses
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submimo import (AdcConfig, ArrayConfig, ArrayMode, CognitivePlan, ConfigError,
                     ExperimentConfig, FdmPlan, ReceivedBaseband, Scene, SceneSpec,
                     Target, ValidationError, build_environment, emit_ppi, generate_scene,
                     match_targets, run_experiment, run_trial, sampling_reduction)
from submimo.geometry import virtual_positions
from submimo.recovery import SparseEstimate


def estimate_from(cells, env, amps=None):
    ns = np.array([n for n, _ in cells], dtype=int)
    ps = np.array([p for _, p in cells], dtype=int)
    amps = np.ones(len(cells), dtype=complex) if amps is None else np.asarray(amps)
    return SparseEstimate(
        support=tuple(cells), amplitudes=amps,
        ranges_m=env.range_grid.ranges_m[ns], sin_doas=env.azi_grid.values[ps],
        residual_norm=0.0, signal_norm=1.0, residual_history=())


def scene_from(cells, env):
    return Scene(targets=tuple(
        Target(env.range_grid.delays[n], env.azi_grid.values[p], 1.0)
        for n, p in cells))


def test_exact_estimates_are_strict_hits(desk_env):
    cells = [(10, 3), (50, 40), (200, 70)]
    truth = scene_from(cells, desk_env)
    report = match_targets(truth, estimate_from(cells, desk_env),
                           desk_env.range_grid, desk_env.azi_grid)
    assert len(report.hits) == 3
    assert report.strict_hits == 3
    assert report.false_alarms == () and report.misses == ()


def test_box_edge_offset_is_a_hit_but_not_strict(desk_env):
    truth = scene_from([(100, 40)], desk_env)
    est = estimate_from([(102, 41)], desk_env)  # +2 range cells, +1 azimuth cell
    report = match_targets(truth, est, desk_env.range_grid, desk_env.azi_grid)
    assert len(report.hits) == 1
    assert report.strict_hits == 0


def test_three_range_cells_away_is_a_false_alarm(desk_env):
    truth = scene_from([(100, 40)], desk_env)
    est = estimate_from([(103, 40)], desk_env)
    report = match_targets(truth, est, desk_env.range_grid, desk_env.azi_grid)
    assert report.hits == ()
    assert report.false_alarms == (0,)
    assert report.misses == (0,)


def test_matching_is_one_to_one(desk_env):
    truth = scene_from([(100, 40)], desk_env)
    est = estimate_from([(100, 40), (101, 40)], desk_env)
    report = match_targets(truth, est, desk_env.range_grid, desk_env.azi_grid)
    assert len(report.hits) == 1
    assert report.false_alarms == (1,)


def test_sines_across_the_grid_edge_match_modulo_2(desk_env):
    # sine -1 and +1 are one atom, so an estimate at +0.9995 sits 0.0015 from
    # a truth at -0.999, inside one azimuth cell; one at +1 is the truth at -1
    rg = desk_env.range_grid
    truth = Scene(targets=(Target(rg.delays[100], -0.999, 1.0),
                           Target(rg.delays[200], -1.0, 1.0)))
    est = SparseEstimate(support=((100, 0), (200, 0)), amplitudes=np.ones(2, dtype=complex),
                         ranges_m=rg.ranges_m[[100, 200]], sin_doas=np.array([0.9995, 1.0]),
                         residual_norm=0.0, signal_norm=1.0, residual_history=())
    report = match_targets(truth, est, rg, desk_env.azi_grid)
    assert report.hits == ((0, 0), (1, 1))
    assert report.false_alarms == () and report.misses == ()
    assert report.strict_hits == 1


@pytest.mark.parametrize("mode", list(ArrayMode))
def test_the_atoms_at_sine_minus_1_and_plus_1_are_equal(desk_envs, mode):
    # half-wavelength slots put every virtual element at a multiple of half a
    # wavelength, so the steering phase has period 2 in the sine: the grid's
    # first atom, at -1, is the steering at +1
    env = desk_envs[mode]
    assert env.azi_grid.values[0] == -1.0
    for m, atoms in enumerate(env.dictionaries.azimuth_atoms):
        at_plus_1 = np.exp(2j * np.pi * virtual_positions(env.array, m))
        np.testing.assert_allclose(atoms[:, 0], at_plus_1, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 299), st.integers(0, 79)),
                min_size=0, max_size=8, unique=True),
       st.lists(st.tuples(st.integers(0, 299), st.integers(0, 79)),
                min_size=0, max_size=8, unique=True))
def test_match_conservation(truth_cells, est_cells):
    env = build_environment(ArrayMode.RANDOM, "desk", seed=7)
    truth = scene_from(truth_cells, env)
    est = estimate_from(est_cells, env)
    report = match_targets(truth, est, env.range_grid, env.azi_grid)
    assert len(report.hits) + len(report.misses) == len(truth_cells)
    assert len(report.hits) + len(report.false_alarms) == len(est_cells)
    matched_truth = [t for t, _ in report.hits]
    assert len(set(matched_truth)) == len(matched_truth)


def test_reduction_factors_of_the_reference_profile(desk_envs):
    env = desk_envs[ArrayMode.THINNED]
    summary = sampling_reduction(ArrayMode.THINNED, env.plan, env.adc)
    assert summary.spectral_rate_factor == 4.0
    assert summary.bandwidth_factor_with_guards == pytest.approx(5.0)
    assert summary.bandwidth_factor_no_guards == pytest.approx(4.0)
    assert summary.spatial_factor == 2.0
    assert summary.combined_sampling_reduction_pct == pytest.approx(87.5)
    assert summary.hardware_channel_reduction_pct == pytest.approx(75.0)


def test_reduction_factors_of_the_filled_array(desk_envs):
    env = desk_envs[ArrayMode.ULA]
    summary = sampling_reduction(ArrayMode.ULA, env.plan, env.adc)
    assert summary.spatial_factor == 1.0
    assert summary.hardware_channel_reduction_pct == 0.0
    assert summary.combined_sampling_reduction_pct == pytest.approx(75.0)


def test_generate_scene_honors_the_spacing_constraints():
    spec = SceneSpec(num_targets=10, min_range_sep_cells=3, min_sin_sep=0.05)
    for trial in range(5):
        scene = generate_scene(np.random.default_rng(trial), spec, 300, 100e-6)
        assert len(scene) == 10
        cells = [(round(t.delay / (100e-6 / 300)), t.sin_doa) for t in scene.targets]
        for i, (n1, s1) in enumerate(cells):
            for n2, s2 in cells[i + 1:]:
                assert abs(n1 - n2) >= 3 or abs(s1 - s2) >= 0.05 - 1e-9


def test_generate_scene_close_pair():
    spec = SceneSpec(num_targets=10, min_sin_sep=0.025, close_pair_sin_gap=0.02)
    scene = generate_scene(np.random.default_rng(3), spec, 300, 100e-6)
    assert len(scene) == 10
    pair = scene.targets[-2:]
    assert pair[0].delay == pair[1].delay
    assert abs(pair[1].sin_doa - pair[0].sin_doa) == pytest.approx(0.02)
    # probe centered on a coarse cell, members on the fine grid
    center = (pair[0].sin_doa + pair[1].sin_doa) / 2
    assert (center + 1.0) / 0.025 == pytest.approx(round((center + 1.0) / 0.025))
    for t in pair:
        assert (t.sin_doa + 1.0) / 0.005 == pytest.approx(round((t.sin_doa + 1.0) / 0.005))
    for t in scene.targets:
        assert abs(t.amplitude) == pytest.approx(1.0)


def test_generate_scene_rejects_a_close_pair_without_range_clearance():
    # 8 background targets on 10 range cells leave no cell 6 cells clear of
    # all of them; a guard turns a relapse into a failure, not a stall
    def stalled(signum, frame):
        raise TimeoutError("generate_scene did not return")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(10)
    try:
        with pytest.raises(ConfigError):
            generate_scene(np.random.default_rng(0),
                           SceneSpec(num_targets=10, close_pair_sin_gap=0.02),
                           10, 100e-6)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("field, value", [
    ("min_sin_sep", np.nan), ("min_sin_sep", -0.025), ("min_sin_sep", np.inf),
    ("min_range_sep_cells", -1),
    ("close_pair_sin_gap", np.nan), ("close_pair_sin_gap", 0.0),
    ("close_pair_sin_gap", -0.02), ("close_pair_sin_gap", np.inf),
    ("close_pair_sin_gap", 2.5), ("close_pair_sin_gap", 1.96),
])
def test_a_scene_separation_out_of_range_is_a_config_error(field, value):
    with pytest.raises(ConfigError, match=field):
        SceneSpec(num_targets=10, **{field: value})


def test_noiseless_experiment_recovers_everything():
    cfg = ExperimentConfig(
        mode=ArrayMode.RANDOM,
        scene=SceneSpec(num_targets=10, min_range_sep_cells=3, min_sin_sep=0.05),
        profile="desk", snr_db=None, trials=2, seed=5)
    record = run_experiment(cfg)
    assert record.detection_rate == 1.0
    assert record.strict_rate == 1.0
    assert record.false_alarm_rate == 0.0


@pytest.mark.parametrize("changes", [
    dict(max_targets=0), dict(max_targets=-2),
    dict(scene=SceneSpec(num_targets=0)), dict(scene=SceneSpec(num_targets=-1)),
    dict(scene=Scene(targets=())),
])
def test_experiment_without_a_target_to_recover_is_a_config_error(changes):
    base = dict(mode=ArrayMode.THINNED, scene=SceneSpec(num_targets=3), profile="desk")
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, **changes})


@pytest.mark.parametrize("snr_db", [-np.inf, np.nan])
def test_an_snr_of_minus_inf_or_nan_is_a_config_error(snr_db):
    with pytest.raises(ConfigError, match="SNR"):
        ExperimentConfig(mode=ArrayMode.THINNED, scene=SceneSpec(num_targets=3),
                         snr_db=snr_db)


def test_only_none_and_plus_inf_run_a_trial_without_noise(desk_env):
    scene = scene_from([(30, 10), (120, 45), (250, 70)], desk_env)
    for snr_db in (None, np.inf):
        stages = {}
        _, report = run_trial(desk_env, scene, snr_db, 0, stages=stages)
        assert "noise" not in stages and len(report.hits) == 3
    for snr_db in (-np.inf, np.nan):
        with pytest.raises(ValidationError, match="SNR"):
            run_trial(desk_env, scene, snr_db, 0)


def test_run_experiment_rejects_an_environment_of_another_mode(desk_envs):
    cfg = ExperimentConfig(mode=ArrayMode.ULA, scene=SceneSpec(num_targets=3))
    with pytest.raises(ConfigError, match="mode"):
        run_experiment(cfg, desk_envs[ArrayMode.THINNED])


def test_value_types_hold_only_their_independent_values():
    # counts, sizes, the decimation, the sample rate, the amplitude scale and
    # the guard are derived from these; a stored copy of one would show up here
    assert {cls.__name__: tuple(f.name for f in dataclasses.fields(cls) if f.init)
            for cls in (ArrayConfig, AdcConfig, ReceivedBaseband, CognitivePlan,
                        FdmPlan, SceneSpec)} == {
        "ArrayConfig": ("mode", "tx_positions", "rx_positions", "seed"),
        "AdcConfig": ("rate",),
        "ReceivedBaseband": ("spectrum", "pri", "active_mask"),
        "CognitivePlan": ("base", "subbands", "total_power"),
        "FdmPlan": ("num_tx", "channel_spacing", "signal_band", "pri", "pulse_width"),
        "SceneSpec": ("num_targets", "min_range_sep_cells", "min_sin_sep",
                      "close_pair_sin_gap"),
    }


def test_run_trial_takes_max_targets_as_given(desk_env):
    scene = scene_from([(30, 10), (120, 45), (250, 70)], desk_env)
    estimate, _ = run_trial(desk_env, scene, None, 0)
    assert len(estimate) == 3  # as many as the scene holds
    estimate, _ = run_trial(desk_env, scene, None, 0, max_targets=1)
    assert len(estimate) == 1
    with pytest.raises(ValidationError):
        run_trial(desk_env, scene, None, 0, max_targets=0)


@pytest.mark.parametrize("mode, profile", [(ArrayMode.ULA, "desk"),
                                           (ArrayMode.WIDE, "full")])
def test_noisy_trial_transforms_no_frame(monkeypatch, mode, profile):
    # the frame is held as its spectrum from synthesis to acquisition, and
    # the noise is drawn as its spectrum: no frame-sized transform either way
    env = build_environment(mode, profile, seed=3)
    n_frame = int(round(env.sample_rate * env.plan.pri))
    # the range kernel, built once per dictionary set, takes one C-point
    # inverse FFT, and the full grid's C is the frame's length
    env.dictionaries._kernel
    scene = generate_scene(np.random.default_rng([3, 0, 0]), SceneSpec(num_targets=10),
                           len(env.range_grid), env.plan.pri)
    frame_sized = {"fft": 0, "ifft": 0}
    for name in frame_sized:
        def spy(a, *args, _name=name, _f=getattr(np.fft, name), **kwargs):
            axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
            frame_sized[_name] += np.shape(a)[axis] == n_frame
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    estimate, _ = run_trial(env, scene, -5.0, [3, 0, 1])
    assert len(estimate) == 10
    assert frame_sized == {"fft": 0, "ifft": 0}


def test_experiment_is_deterministic():
    cfg = ExperimentConfig(
        mode=ArrayMode.THINNED,
        scene=SceneSpec(num_targets=5, min_range_sep_cells=3, min_sin_sep=0.05),
        profile="desk", snr_db=-5.0, trials=2, seed=11)
    a, b = (run_experiment(cfg).to_dict() for _ in range(2))
    # everything but the stages' wall seconds repeats exactly
    for record in (a, b):
        for entry in record["stages"].values():
            assert entry.pop("seconds") >= 0.0
    assert a == b


def test_scenes_are_identical_across_modes():
    spec = SceneSpec(num_targets=6, min_sin_sep=0.025)
    scenes = [generate_scene(np.random.default_rng([9, 0, 0]), spec, 300, 100e-6)
              for _ in range(2)]
    assert scenes[0] == scenes[1]


def test_desk_profile_exercises_every_full_profile_stage():
    scene_spec = SceneSpec(num_targets=2, min_range_sep_cells=5, min_sin_sep=0.05)
    desk = run_experiment(ExperimentConfig(
        mode=ArrayMode.THINNED, scene=scene_spec, profile="desk",
        snr_db=-5.0, trials=1, seed=3))
    full = run_experiment(ExperimentConfig(
        mode=ArrayMode.THINNED, scene=scene_spec, profile="full",
        snr_db=-5.0, trials=1, seed=3))
    assert set(desk.stages) == set(full.stages)
    for stage in ("scene", "synthesize", "noise", "acquire", "recover", "match"):
        for record in (desk, full):
            assert record.stages[stage]["calls"] >= 1
            assert record.stages[stage]["seconds"] >= 0.0


def test_ppi_geometry_and_csv_twin(tmp_path, desk_env):
    rg, ag = desk_env.range_grid, desk_env.azi_grid
    due_north = Target(2 * 1000 / 3e8, 0.0, 1.0)
    nearly_east = Target(2 * 1000 / 3e8, 0.99994, 1.0)
    truth = Scene(targets=(due_north, nearly_east))
    est = estimate_from([(40, 40)], desk_env)
    report = match_targets(truth, est, rg, ag)
    out = tmp_path / "display.svg"
    emit_ppi(report, truth, est, out)
    assert out.exists()
    csv_lines = (tmp_path / "display.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + len(truth.targets) + len(est)
    north_row = csv_lines[1].split(",")
    assert float(north_row[4]) == pytest.approx(0.0)       # east
    assert float(north_row[5]) == pytest.approx(1000.0)    # north
    east_row = csv_lines[2].split(",")
    assert float(east_row[4]) == pytest.approx(1000.0, rel=1e-3)
    assert abs(float(east_row[5])) < 60.0
    svg = out.read_text()
    assert "svg" in svg and "red" in svg
