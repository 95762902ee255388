import numpy as np
import pytest
from helpers import (loop_channel_spectrum, loop_occupied_cells, pulse_energy,
                     spectral_power, synth_pulse)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submimo import ConfigError, Subband
from submimo.waveform import (MAX_FRAME_SAMPLES, _occupied_cells, build_cognitive_plan,
                              build_fdm_plan, channel_spectrum, conventional_plan,
                              reference_subbands)


def full_plan(num_tx=8):
    return build_fdm_plan(num_tx=num_tx, channel_spacing=15e6, signal_band=12e6,
                          guard=3e6, pri=100e-6, pulse_width=4.2e-6)


def test_carrier_layout():
    # channel m carries bins [m*N, m*N + B_h*pri) of the N = 1500 per channel
    plan = conventional_plan(full_plan())
    assert plan.base.total_bandwidth == pytest.approx(120e6)
    for tx in (0, 7):
        bins, _ = channel_spectrum(plan, tx)
        np.testing.assert_array_equal(bins, tx * 1500 + np.arange(1200))


def test_single_channel_plan():
    plan = full_plan(num_tx=1)
    assert plan.total_bandwidth == plan.channel_spacing == 15e6
    assert plan.guard == 3e6


def test_band_arithmetic_must_close():
    with pytest.raises(ConfigError):
        build_fdm_plan(8, 15e6, 12e6, 2e6, 100e-6, 4.2e-6)


@pytest.mark.parametrize("spacing, band, guard, pri, width", [
    (np.nan, 12e6, 3e6, 100e-6, 4.2e-6),
    (np.inf, 12e6, 3e6, 100e-6, 4.2e-6),
    (-15e6, -12e6, -3e6, 100e-6, 4.2e-6),
    (0.0, 0.0, 0.0, 100e-6, 4.2e-6),
    (15e6, 12e6, 3e6, np.inf, 4.2e-6),
    (15e6, 12e6, 3e6, np.nan, 4.2e-6),
    (15e6, 12e6, 3e6, -100e-6, -4.2e-6),
    (15e6, 12e6, 3e6, 100e-6, np.nan),
    (15e6, 12e6, 3e6, 100e-6, np.inf),
    (15e6, 18e6, -3e6, 100e-6, 4.2e-6),  # channels wider than their spacing
    (15e6, -3e6, 18e6, 100e-6, 4.2e-6),
    (15e6, 0.0, 15e6, 100e-6, 4.2e-6),
    (15e6, np.nan, 3e6, 100e-6, 4.2e-6),
    (15e6, 12e6, np.nan, 100e-6, 4.2e-6),
])
def test_fdm_plan_numbers_must_be_finite_and_in_range(spacing, band, guard, pri, width):
    with pytest.raises(ConfigError):
        build_fdm_plan(8, spacing, band, guard, pri, width)


def test_the_guard_is_what_the_signal_band_leaves_of_the_spacing():
    plan = build_fdm_plan(2, 30e6, 24e6, 6e6, 100e-6, 4.2e-6)
    assert plan.guard == 6e6
    # a guard within the closure tolerance is checked, not stored
    assert build_fdm_plan(2, 30e6, 24e6, 6e6 + 1.0, 100e-6, 4.2e-6) == plan
    full = build_fdm_plan(8, 15e6, 15e6, 0.0, 100e-6, 4.2e-6)
    assert full.guard == 0.0


def test_a_frame_above_the_sample_limit_is_rejected():
    # two 1 Hz channels: a frame holds 2 * pri samples per receiver
    pri = MAX_FRAME_SAMPLES / 2
    assert build_fdm_plan(2, 1.0, 1.0, 0.0, pri, 1.0).bins_per_channel == pri
    with pytest.raises(ConfigError, match=f"{MAX_FRAME_SAMPLES + 2} samples per receiver"):
        build_fdm_plan(2, 1.0, 1.0, 0.0, pri + 1, 1.0)


def test_pulse_width_bounds():
    with pytest.raises(ConfigError):
        build_fdm_plan(8, 15e6, 12e6, 3e6, 100e-6, 0.0)
    with pytest.raises(ConfigError):
        build_fdm_plan(8, 15e6, 12e6, 3e6, 100e-6, 2e-4)


def test_reference_subbands():
    bands = reference_subbands()
    assert len(bands) == 8
    for band in bands:
        assert band.width == pytest.approx(375e3)
    assert sum(b.width for b in bands) == pytest.approx(3e6)
    for a, b in zip(bands, bands[1:]):
        assert a.hi <= b.lo


def test_power_scale_of_reference_plan():
    plan = build_cognitive_plan(full_plan(), reference_subbands())
    assert plan.amplitude_scale == pytest.approx(2.0)


def test_full_band_plan_has_unit_scale():
    plan = conventional_plan(full_plan())
    assert plan.amplitude_scale == pytest.approx(1.0)


def test_overlapping_subbands_rejected():
    with pytest.raises(ConfigError):
        build_cognitive_plan(full_plan(), (Subband(1e6, 2e6), Subband(1.5e6, 3e6)))


def test_out_of_channel_subband_rejected():
    with pytest.raises(ConfigError):
        build_cognitive_plan(full_plan(), (Subband(14e6, 16e6),))


@pytest.mark.parametrize("power", [np.nan, 0.0, -3.0, np.inf])
def test_a_total_power_that_is_not_finite_and_positive_is_rejected(power):
    with pytest.raises(ConfigError, match="total_power"):
        build_cognitive_plan(full_plan(), reference_subbands(), total_power=power)


def test_subbands_narrower_than_the_edge_tolerance_rejected():
    with pytest.raises(ConfigError):  # 1e-7 of a bin cell carries no power
        build_cognitive_plan(full_plan(), (Subband(0.0, 1e-3),))


@pytest.mark.parametrize("tx", [0, 3, 7])
def test_cognitive_pulse_energy_sits_in_the_slices(tx):
    plan = build_cognitive_plan(full_plan(), reference_subbands())
    pulse = synth_pulse(plan, tx, 120e6)
    offset = tx * plan.base.channel_spacing
    in_slices = sum(
        spectral_power(pulse, Subband(offset + b.lo, offset + b.hi))
        for b in plan.subbands)
    assert in_slices / pulse_energy(pulse) >= 0.99


def test_conventional_pulse_energy_confined_to_signal_band():
    plan = conventional_plan(full_plan())
    pulse = synth_pulse(plan, 0, 120e6)
    in_band = spectral_power(pulse, Subband(0.0, 12e6))
    assert in_band == pytest.approx(pulse_energy(pulse), rel=1e-9)


def test_cognitive_and_conventional_pulses_carry_equal_power():
    base = full_plan()
    cognitive = build_cognitive_plan(base, reference_subbands(), total_power=2.5)
    conventional = conventional_plan(base, total_power=2.5)
    for tx in range(8):
        e_cog = pulse_energy(synth_pulse(cognitive, tx, 120e6))
        e_conv = pulse_energy(synth_pulse(conventional, tx, 120e6))
        assert e_cog == pytest.approx(2.5, rel=1e-9)
        assert abs(e_cog - e_conv) / e_conv < 0.01


def test_full_band_power_integrates_to_total_power():
    plan = conventional_plan(full_plan(), total_power=3.0)
    pulse = synth_pulse(plan, 2, 120e6)
    band = Subband(2 * 15e6, 2 * 15e6 + 12e6)
    assert spectral_power(pulse, band) == pytest.approx(3.0, rel=1e-9)


def test_per_slice_power_matches_flat_spectrum_algebra():
    plan = build_cognitive_plan(full_plan(), reference_subbands(), total_power=1.0)
    pulse = synth_pulse(plan, 0, 120e6)
    scale = plan.amplitude_scale
    for band in plan.subbands:
        power = spectral_power(pulse, Subband(band.lo, band.hi))
        expected = scale ** 2 * (band.width / plan.base.signal_band) * plan.total_power
        assert power == pytest.approx(expected, rel=1e-9)


def test_guard_band_power_is_negligible():
    plan = build_cognitive_plan(full_plan(), reference_subbands())
    pulse = synth_pulse(plan, 1, 120e6)
    offset = plan.base.channel_spacing
    guard = Subband(offset + 13e6, offset + 15e6)
    assert spectral_power(pulse, guard) < 1e-4 * plan.total_power


def test_in_slice_density_boost_is_the_squared_scale():
    base = full_plan()
    cognitive = build_cognitive_plan(base, reference_subbands())
    conventional = conventional_plan(base)
    cog = synth_pulse(cognitive, 0, 120e6)
    conv = synth_pulse(conventional, 0, 120e6)
    bin_hz = 1.0 / base.pri
    for band in cognitive.subbands[:-1]:  # the last slice sits in the guard band
        # compare the density over the slice interior, clear of edge bins
        interior = Subband(band.lo + bin_hz, band.hi - bin_hz)
        ratio = spectral_power(cog, interior) / spectral_power(conv, interior)
        assert ratio == pytest.approx(cognitive.amplitude_scale ** 2, rel=1e-9)


def test_synthesis_is_deterministic():
    plan = build_cognitive_plan(full_plan(), reference_subbands())
    a = synth_pulse(plan, 5, 120e6)
    b = synth_pulse(plan, 5, 120e6)
    assert np.array_equal(a.samples, b.samples)


def test_channel_spectrum_is_computed_once_per_plan_and_read_only():
    plan = build_cognitive_plan(full_plan(), reference_subbands())
    bins, values = channel_spectrum(plan, 3)
    assert channel_spectrum(plan, 3)[1] is values
    with pytest.raises(ValueError):
        values[0] = 0.0
    with pytest.raises(ValueError):
        bins[0] = 0
    # an equal plan built afresh has its own cache and the same spectrum
    again = build_cognitive_plan(full_plan(), reference_subbands())
    assert again == plan and hash(again) == hash(plan)
    assert np.array_equal(channel_spectrum(again, 3)[1], values)


def test_insufficient_sample_rate_rejected():
    plan = build_cognitive_plan(full_plan(), reference_subbands())
    with pytest.raises(ConfigError):
        synth_pulse(plan, 0, 60e6)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=14.0), min_size=1, max_size=6,
                unique=True),
       st.floats(min_value=0.05, max_value=0.9))
@example(starts=[1e-09], width_mhz=0.5)  # a 1e-7-bin sliver past the last cell
def test_power_conservation_for_random_slice_plans(starts, width_mhz):
    starts = sorted(starts)
    bands = []
    prev_hi = 0.0
    for s in starts:
        lo = max(s, prev_hi)
        hi = lo + width_mhz
        if hi > 15.0:
            continue
        bands.append(Subband(lo * 1e6, hi * 1e6))
        prev_hi = hi
    if not bands:
        return
    plan = build_cognitive_plan(full_plan(num_tx=2), bands, total_power=1.0)
    pulse = synth_pulse(plan, 1, 30e6)
    assert pulse_energy(pulse) == pytest.approx(1.0, rel=1e-9)


def _assert_spectra_equal_the_loop(plan):
    for got, want in zip(_occupied_cells(plan.subbands, plan.pri),
                         loop_occupied_cells(plan.subbands, plan.pri)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for tx in range(plan.num_tx):
        bins, values = channel_spectrum(plan, tx)
        want_bins, want_values = loop_channel_spectrum(plan, tx)
        assert bins.dtype == want_bins.dtype
        np.testing.assert_array_equal(bins, want_bins)
        np.testing.assert_array_equal(values, want_values)


# edges in Hz on 10 kHz bin cells: a 0.009 Hz sliver (below the 1e-6-bin edge
# tolerance) inside cell 3; three slices sharing cell 768 whose fractions
# round to a sum above one cell; three slices inside cell 933 whose fractions
# sum to another value in the reverse order
_SLICE_PLANS = {
    "sliver": [(10e3, 20e3), (32e3, 32e3 + 0.009)],
    "clip": [(7.67e6, 7683118.314520105), (7683118.314520105, 7689486.494471372),
             (7689486.494471372, 7.7e6)],
    "order": [(9332842.011637488, 9332927.207490124), (9336485.472070798, 9336962.159966702),
              (9337378.377872922, 9339562.672548361)],
}


@pytest.mark.parametrize("kind", ["reference", "conventional", *_SLICE_PLANS])
def test_channel_spectrum_equals_the_loop_reference(kind):
    base = full_plan()
    if kind == "reference":
        plan = build_cognitive_plan(base, reference_subbands())
    elif kind == "conventional":
        plan = conventional_plan(base)
    else:
        plan = build_cognitive_plan(base, [Subband(lo, hi) for lo, hi in _SLICE_PLANS[kind]])
    _assert_spectra_equal_the_loop(plan)


@settings(max_examples=40, deadline=None)
@given(cuts=st.lists(st.integers(0, 400), min_size=2, max_size=9, unique=True),
       shift=st.sampled_from([0.0, 0.25, 0.5, 1e-7]),
       gaps=st.lists(st.booleans(), min_size=8, max_size=8))
@example(cuts=[0, 1, 2, 3], shift=0.5, gaps=[False] * 8)  # slices within one bin cell
@example(cuts=[10, 14, 30], shift=0.25, gaps=[False] * 8)  # shared sub-bin edges
def test_channel_spectrum_equals_the_loop_on_slice_plans(cuts, shift, gaps):
    # slice edges on a quarter-bin grid (2.5 kHz of the 10 kHz bin cells of a
    # 100 us PRI), shifted off it; adjacent slices share an edge unless a gap
    # drops one
    edges = [(c / 4 + shift) * 1e4 for c in sorted(cuts)]
    bands = [Subband(lo, hi) for (lo, hi), gap in zip(zip(edges, edges[1:]), gaps)
             if not gap]
    if not bands:
        return
    plan = build_cognitive_plan(full_plan(num_tx=2), bands)
    _assert_spectra_equal_the_loop(plan)
