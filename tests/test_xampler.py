import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from helpers import (channelize, extract_coefficients, in_order_acquire, subsample,
                     time_domain_acquire)

from submimo import (AdcConfig, ArrayMode, BinSet, ConfigError, ReceivedBaseband,
                     Scene, Subband, Target, ValidationError, acquire, add_noise,
                     assemble_environment, build_environment, build_mode,
                     oracle_coefficients, subband_bins, synth_received)
from submimo.waveform import (build_cognitive_plan, build_fdm_plan,
                              channel_spectrum, reference_subbands)
from submimo.xampler import CoefficientSet, _alias_table, _decimation


def full_plan(num_tx=8):
    return build_fdm_plan(num_tx=num_tx, channel_spacing=15e6, signal_band=12e6,
                          guard=3e6, pri=100e-6, pulse_width=4.2e-6)


def reference_plan(num_tx=8):
    return build_cognitive_plan(full_plan(num_tx), reference_subbands())


def test_first_slice_bins():
    bins = subband_bins(reference_plan())
    assert bins.indices[:37] == tuple(range(163, 200))
    assert bins.indices[37] == 216  # second slice starts at 2.16 MHz


def test_reference_bin_counts():
    bins = subband_bins(reference_plan())
    assert len(bins) == 296
    assert bins.per_channel_bins == 1500


def test_too_narrow_slice_yields_no_bins():
    plan = build_cognitive_plan(full_plan(), (Subband(1.001e6, 1.009e6),))
    with pytest.raises(ValidationError):
        subband_bins(plan)


def test_reference_slices_are_coset_bands():
    plan = reference_plan()
    table = _alias_table(plan, subband_bins(plan), AdcConfig(rate=7.5e6))
    assert table.shape == (8, 296, 2)


def test_colliding_slices_are_not_coset():
    plan = build_cognitive_plan(
        full_plan(), (Subband(1.63e6, 2.0e6), Subband(9.13e6, 9.5e6)))
    with pytest.raises(ValidationError, match="folded bin collision: read bin 163 "):
        _alias_table(plan, subband_bins(plan), AdcConfig(rate=7.5e6))


def test_a_single_slice_narrower_than_the_low_rate_band_is_coset():
    # 40 bins under a decimation of 15 fold onto 40 of the 100 low-rate bins
    plan = build_cognitive_plan(full_plan(), (Subband(4.0e6, 4.4e6),))
    table = _alias_table(plan, subband_bins(plan), AdcConfig(rate=1e6))
    assert table.shape == (8, 40, 15)


def test_folded_images_of_high_slices():
    # slices 7 and 8 land at 1.14-1.515 and 4.82-5.195 MHz after 7.5 MHz folding
    bands = reference_subbands()
    rate = 7.5e6
    assert bands[6].lo % rate == pytest.approx(1.14e6)
    assert bands[7].lo % rate == pytest.approx(4.82e6)


def test_channelize_isolates_the_active_transmitter(desk_env):
    plan = desk_env.plan
    scene = Scene(targets=(Target(1e-5, 0.2, 1.0),))
    rx = synth_received(scene, desk_env.array, plan, desk_env.sample_rate)
    # keep only transmitter 0's band in the frame
    coeffs = np.fft.fft(rx.samples, axis=1)
    n = plan.base.bins_per_channel
    coeffs[:, n:] = 0
    rx_one = type(rx).from_samples(np.fft.ifft(coeffs, axis=1), pri=rx.pri,
                                   active_mask=rx.active_mask)
    channels = channelize(rx_one, plan)
    assert np.linalg.norm(channels[0]) > 0
    for m in range(1, plan.num_tx):
        assert np.linalg.norm(channels[m]) < 1e-9 * np.linalg.norm(channels[0])


def test_channelize_matches_direct_channel_construction(desk_env):
    plan = desk_env.plan
    delay, sin, amp = 3e-5, -0.15, 0.7 + 0.2j
    scene = Scene(targets=(Target(delay, sin, amp),))
    rx = synth_received(scene, desk_env.array, plan, desk_env.sample_rate)
    channels = channelize(rx, plan)
    n = plan.base.bins_per_channel
    from submimo.geometry import virtual_positions
    for m in range(plan.num_tx):
        bins, values = channel_spectrum(plan, m)
        spec = np.zeros(n, dtype=complex)
        spec[bins - m * n] = values * np.exp(-2j * np.pi * bins * delay / plan.pri)
        base = np.fft.ifft(spec) * n
        vpos = virtual_positions(desk_env.array, m)
        for q in range(desk_env.array.num_rx):
            expected = amp * np.exp(2j * np.pi * vpos[q] * sin) * base
            np.testing.assert_allclose(channels[m, q], expected, atol=1e-10)


def test_channelize_conserves_energy(desk_env):
    scene = Scene(targets=(Target(2e-5, 0.3, 1.0), Target(6e-5, -0.5, 1.0j)))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    channels = channelize(rx, desk_env.plan)
    full = np.sum(np.abs(rx.samples) ** 2) / rx.sample_rate
    split = np.sum(np.abs(channels) ** 2) / desk_env.plan.base.channel_spacing
    assert split == pytest.approx(full, rel=1e-9)


def test_the_decimation_is_the_plans_channel_spacing_over_the_adc_rate():
    wide = build_cognitive_plan(
        build_fdm_plan(num_tx=2, channel_spacing=30e6, signal_band=24e6, guard=6e6,
                       pri=100e-6, pulse_width=4.2e-6), reference_subbands())
    assert _decimation(reference_plan(), AdcConfig(rate=7.5e6)) == 2
    assert _decimation(reference_plan(), AdcConfig(rate=15e6)) == 1
    assert _decimation(wide, AdcConfig(rate=15e6)) == 2
    with pytest.raises(ValidationError, match="integer multiple"):
        _decimation(wide, AdcConfig(rate=7e6))
    # the ADC states its rate only, so it cannot name a spacing the plan lacks
    with pytest.raises(TypeError):
        AdcConfig(rate=7.5e6, channel_spacing=7.5e6)
    for rate in (0.0, -7.5e6, np.nan, np.inf):
        with pytest.raises(ConfigError):
            AdcConfig(rate=rate)


def test_subsample_halves_the_reference_channel():
    adc = AdcConfig(rate=7.5e6)
    x = np.arange(1500, dtype=complex)
    y = subsample(x, reference_plan(), adc)
    assert len(y) == 750
    np.testing.assert_array_equal(y, x[::2])


def test_subsample_identity_when_rates_match():
    adc = AdcConfig(rate=15e6)
    x = np.arange(10, dtype=complex)
    np.testing.assert_array_equal(subsample(x, reference_plan(), adc), x)


def test_subsample_rejects_non_integer_ratio():
    adc = AdcConfig(rate=7e6)
    with pytest.raises(ValidationError):
        subsample(np.zeros(15), reference_plan(), adc)


def test_extract_reads_a_pure_tone():
    plan = reference_plan()
    bins = subband_bins(plan)
    adc = AdcConfig(rate=7.5e6)
    k0 = 181  # inside the first slice
    n = bins.per_channel_bins
    tone = np.exp(2j * np.pi * k0 * np.arange(n) / n)
    values = extract_coefficients(subsample(tone, plan, adc), bins, adc)
    at_k0 = bins.indices.index(k0)
    assert values[at_k0] == pytest.approx(1.0, abs=1e-9)
    others = np.delete(values, at_k0)
    assert np.max(np.abs(others)) < 1e-9


def test_extract_zero_input():
    plan = reference_plan()
    bins = subband_bins(plan)
    adc = AdcConfig(rate=7.5e6)
    values = extract_coefficients(np.zeros(750, dtype=complex), bins, adc)
    assert np.all(values == 0)


def test_extract_detects_folded_collisions():
    plan = build_cognitive_plan(
        full_plan(), (Subband(1.63e6, 2.0e6), Subband(9.13e6, 9.5e6)))
    bins = subband_bins(plan)
    adc = AdcConfig(rate=7.5e6)
    with pytest.raises(ValidationError):
        extract_coefficients(np.zeros(750, dtype=complex), bins, adc)


def test_extraction_equals_full_rate_dft_on_coset_input():
    # any signal confined to the slices: extraction equals the full-rate
    # Fourier coefficients restricted to the selected bins, exactly
    plan = reference_plan()
    bins = subband_bins(plan)
    adc = AdcConfig(rate=7.5e6)
    rng = np.random.default_rng(5)
    n = bins.per_channel_bins
    spec = np.zeros(n, dtype=complex)
    spec[bins.as_array] = rng.standard_normal(len(bins)) + 1j * rng.standard_normal(len(bins))
    signal = np.fft.ifft(spec) * n
    extracted = extract_coefficients(subsample(signal, plan, adc), bins, adc)
    np.testing.assert_allclose(extracted, spec[bins.as_array], atol=1e-12)


def test_acquire_matches_oracle(desk_env):
    scene = Scene(targets=(
        Target(40 * desk_env.plan.pri / 300, 0.25, 1.0),
        Target(200 * desk_env.plan.pri / 300, -0.5, 0.4 - 0.9j),
    ))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    got = acquire(rx, desk_env.plan, desk_env.adc, desk_env.bins)
    want = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    for a, b in zip(got.matrices, want.matrices):
        assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-6


def test_coefficient_set_takes_one_array_with_a_row_per_bin():
    bins = BinSet(indices=tuple(range(12)), per_channel_bins=64)
    good = np.zeros((2, 12, 3), dtype=complex)
    # a 2-D array, a K off the bins' count, per-channel matrices in a tuple
    for bad in (good[0], good[:, 1:], np.zeros((2, 13, 3)), tuple(good)):
        with pytest.raises(ValidationError):
            CoefficientSet(matrices=bad, bins=bins)
    assert CoefficientSet(matrices=good, bins=bins).matrices is good


def test_acquire_processes_the_expected_channel_counts(desk_envs):
    from submimo import ArrayMode
    for mode, expected in ((ArrayMode.ULA, 80), (ArrayMode.RANDOM, 80),
                           (ArrayMode.THINNED, 20)):
        env = desk_envs[mode]
        scene = Scene(targets=(Target(1e-5, 0.0, 1.0),))
        rx = synth_received(scene, env.array, env.plan, env.sample_rate)
        coeffs = acquire(rx, env.plan, env.adc, env.bins)
        m, k, q = coeffs.matrices.shape
        assert (m * q, k) == (expected, len(env.bins))


def test_acquire_is_linear(desk_env):
    s1 = Scene(targets=(Target(2e-5, 0.25, 1.0),))
    s2 = Scene(targets=(Target(7e-5, -0.3, 1.0j),))
    rx1 = synth_received(s1, desk_env.array, desk_env.plan, desk_env.sample_rate)
    rx2 = synth_received(s2, desk_env.array, desk_env.plan, desk_env.sample_rate)
    alpha = 0.6 - 1.1j
    mixed = type(rx1).from_samples(alpha * rx1.samples + rx2.samples, pri=rx1.pri)
    y1 = acquire(rx1, desk_env.plan, desk_env.adc, desk_env.bins)
    y2 = acquire(rx2, desk_env.plan, desk_env.adc, desk_env.bins)
    ym = acquire(mixed, desk_env.plan, desk_env.adc, desk_env.bins)
    for a, b, m in zip(y1.matrices, y2.matrices, ym.matrices):
        np.testing.assert_allclose(m, alpha * a + b, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(starts=st.lists(st.integers(0, 110), min_size=1, max_size=4, unique=True),
       width=st.integers(2, 10),
       decimation=st.sampled_from([1, 2, 3, 5, 6]),
       num_tx=st.integers(1, 3),
       num_rx=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_acquire_equals_the_time_domain_chain(starts, width, decimation, num_tx,
                                              num_rx, seed):
    # slices on a 100 kHz lattice of the 12 MHz band; any frame, not only a
    # synthesized one, must give the same coefficients on both paths, also
    # a frame wider than the plan's band
    slices = sorted({Subband(s * 1e5, min(s + width, 120) * 1e5) for s in starts},
                    key=lambda b: b.lo)
    slices = [b for a, b in zip([None] + slices, slices) if a is None or b.lo >= a.hi]
    plan = build_cognitive_plan(full_plan(num_tx), slices)
    adc = AdcConfig(rate=15e6 / decimation)
    bins = subband_bins(plan)
    try:
        _alias_table(plan, bins, adc)
    except ValidationError:
        assume(False)
    rng = np.random.default_rng(seed)
    shape = (num_rx, 3 * plan.base.bins_per_channel)
    rx_frames = ReceivedBaseband.from_samples(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), pri=plan.pri)
    got = acquire(rx_frames, plan, adc, bins)
    want = time_domain_acquire(rx_frames, plan, adc, bins)
    assert got.matrices.shape == want.matrices.shape
    assert got.matrices.flags.c_contiguous
    for a, b in zip(got.matrices, want.matrices):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9 * np.max(np.abs(b)))


# slice 1's half-energy edge cell 100 folds onto slice 2's read bin 850
HALF_BIN_PLAN = ((1.005e6, 1.3e6), (8.45e6, 8.51e6))
# the slices' folded images meet only in edge cells that are not read
EDGE_ONLY_OVERLAP_PLAN = ((1.004e6, 1.3e6), (8.45e6, 8.506e6))


def _oracle_error(slices, decimation):
    """The largest |acquired - oracle| over the largest |oracle| of a
    two-target frame on the thinned array under `slices` and an ADC that
    decimates by `decimation`; a plan `assemble_environment` rejects raises
    its ConfigError."""
    array = build_mode(ArrayMode.THINNED, seed=0)
    plan = build_cognitive_plan(full_plan(array.num_tx),
                                [Subband(lo, hi) for lo, hi in slices])
    env = assemble_environment(array, plan, AdcConfig(rate=15e6 / decimation), 300)
    scene = Scene(targets=(Target(40 * plan.pri / 300, 0.25, 1.0),
                           Target(200 * plan.pri / 300, -0.5, 0.4 - 0.9j)))
    rx = synth_received(scene, array, plan, env.sample_rate)
    got = acquire(rx, plan, env.adc, env.bins).matrices
    want = oracle_coefficients(scene, array, plan, env.bins).matrices
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_the_fold_rule_sees_the_partial_edge_cells():
    # the half-bin plan's read bins fold clear of each other, but accepted
    # it would acquire bin 850 0.7 of the peak off the oracle; the other
    # plan's slices overlap after folding, but in unread edge cells only
    with pytest.raises(ConfigError, match="folded bin collision: read bin 850 "):
        _oracle_error(HALF_BIN_PLAN, 2)
    assert _oracle_error(EDGE_ONLY_OVERLAP_PLAN, 2) < 1e-9


@settings(max_examples=60, deadline=None)
@given(slices=st.lists(st.tuples(st.floats(0.0, 11.9e6), st.floats(2e4, 1.5e6)),
                       min_size=1, max_size=3),
       decimation=st.sampled_from([2, 3, 5]))
@example(slices=[(lo, hi - lo) for lo, hi in HALF_BIN_PLAN], decimation=2)
@example(slices=[(lo, hi - lo) for lo, hi in EDGE_ONLY_OVERLAP_PLAN], decimation=2)
def test_every_plan_the_environment_accepts_acquires_the_oracle(slices, decimation):
    # slices of any width off the bin lattice, so their edge cells carry
    # part of a cell's energy; overlapping slices are dropped
    bands = []
    for lo, width in sorted(slices):
        if not bands or lo >= bands[-1][1]:
            bands.append((lo, min(lo + width, 12e6)))
    try:
        error = _oracle_error(bands, decimation)
    except ConfigError:
        return
    assert error < 1e-9


def test_acquire_rejects_a_frame_of_another_pri(desk_env):
    rx = synth_received(Scene(targets=(Target(1e-5, 0.0, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    halved = dataclasses.replace(rx, pri=rx.pri / 2)
    with pytest.raises(ValidationError, match="PRI"):
        acquire(halved, desk_env.plan, desk_env.adc, desk_env.bins)


def test_acquire_rejects_a_decimation_that_does_not_divide_the_channel_bins():
    # 1501 bins per channel under a decimation of 2: the low-rate frame would
    # hold 750.5 bins, and the time-domain chain returned wrong coefficients
    array = build_mode(ArrayMode.THINNED, seed=0)
    base = dataclasses.replace(full_plan(array.num_tx), pri=1501 / 15e6)
    plan = build_cognitive_plan(base, reference_subbands())
    adc = AdcConfig(rate=7.5e6)
    rx = synth_received(Scene(targets=(Target(1e-5, 0.0, 1.0),)), array, plan,
                        plan.base.total_bandwidth)
    with pytest.raises(ValidationError, match="does not divide"):
        acquire(rx, plan, adc, subband_bins(plan))


def test_acquire_rejects_a_bin_the_plan_does_not_transmit_on(desk_env):
    rx = synth_received(Scene(targets=(Target(1e-5, 0.0, 1.0),)), desk_env.array,
                        desk_env.plan, desk_env.sample_rate)
    silent = BinSet(indices=(0,) + desk_env.bins.indices[1:],
                    per_channel_bins=desk_env.bins.per_channel_bins)
    with pytest.raises(ValidationError, match="does not transmit"):
        acquire(rx, desk_env.plan, desk_env.adc, silent)


def test_acquisition_tables_are_built_once_per_bin_set(desk_env):
    # the alias table is cached on the plan by acquire's first call
    plan, bins = desk_env.plan, desk_env.bins
    rx = add_noise(synth_received(Scene(targets=(Target(2e-5, 0.25, 1.0),)),
                                  desk_env.array, plan, desk_env.sample_rate), 0.0, 4)
    acquire(rx, plan, desk_env.adc, bins)
    table = _alias_table(plan, bins, desk_env.adc)
    assert _alias_table(plan, bins, desk_env.adc) is table and not table.flags.writeable
    # a collision is not cached: every call raises
    clash = build_cognitive_plan(
        full_plan(), (Subband(1.63e6, 2.0e6), Subband(9.13e6, 9.5e6)))
    for _ in range(2):
        with pytest.raises(ValidationError, match="collision"):
            acquire(rx, clash, desk_env.adc, subband_bins(clash))


def _acquisition_input(desk_envs, profile, arg):
    """(rx, plan, adc, bins, D): a -5 dB two-target frame of a desk mode or of
    full ULA, which decimate by 2, or noise on a two-slice plan decimated by
    `arg`, whose slices at 0.1-0.5 and 3.7-4 MHz fold clear of each other."""
    if profile == "two-slice":
        plan = build_cognitive_plan(full_plan(2), [Subband(0.1e6, 0.5e6), Subband(3.7e6, 4e6)])
        adc = AdcConfig(rate=15e6 / arg)
        rng = np.random.default_rng(arg)
        shape = (3, plan.num_tx * plan.base.bins_per_channel)
        rx = ReceivedBaseband.from_samples(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape), pri=plan.pri)
        return rx, plan, adc, subband_bins(plan), arg
    env = desk_envs[arg] if profile == "desk" else build_environment(arg, profile, seed=7)
    scene = Scene(targets=(Target(2e-5, 0.25, 1.0), Target(7e-5, -0.4, 0.5)))
    rx = add_noise(synth_received(scene, env.array, env.plan, env.sample_rate), -5.0, 3)
    return rx, env.plan, env.adc, env.bins, 2


@pytest.mark.parametrize("profile, arg", [*(("desk", mode) for mode in ArrayMode),
                                          ("full", ArrayMode.ULA),
                                          ("two-slice", 3), ("two-slice", 5)])
def test_acquire_adds_each_channels_aliases_in_order_bit_for_bit(desk_envs, profile, arg):
    rx, plan, adc, bins, d = _acquisition_input(desk_envs, profile, arg)
    assert _alias_table(plan, bins, adc).shape[-1] == d
    got = acquire(rx, plan, adc, bins).matrices
    assert got.flags.c_contiguous
    assert np.array_equal(got, in_order_acquire(rx, plan, adc, bins))
