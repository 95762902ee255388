import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from helpers import (dense_range_atoms, loop_synth_received, per_transmitter_synth_received,
                     synth_pulse)

import submimo
from submimo import (ArrayMode, NumericalError, ReceivedBaseband, Scene, Target,
                     ValidationError, add_noise, oracle_coefficients, synth_received,
                     target_from_range)
from submimo.scene import SPEED_OF_LIGHT
from submimo.xampler import _alias_table


def make_scene(*triples):
    return Scene(targets=tuple(Target(d, s, a) for d, s, a in triples))


def test_range_delay_conversion():
    t = target_from_range(15e3, 0.0, 1.0)
    assert t.delay == pytest.approx(100e-6)
    assert t.range_m == pytest.approx(15e3)
    assert SPEED_OF_LIGHT == 3.0e8


def test_duplicate_locations_rejected():
    with pytest.raises(ValidationError):
        make_scene((1e-5, 0.2, 1.0), (1e-5, 0.2, 2.0))


def test_empty_scene_synthesizes_silence(desk_env):
    rx = synth_received(Scene(targets=()), desk_env.array, desk_env.plan,
                        desk_env.sample_rate)
    assert np.all(rx.samples == 0)
    assert rx.num_rx == desk_env.array.num_rx


def test_zero_delay_broadside_target_sums_the_pulses(desk_env):
    scene = make_scene((0.0, 0.0, 1.0))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    expected = sum(
        synth_pulse(desk_env.plan, m, desk_env.sample_rate).samples
        for m in range(desk_env.array.num_tx))
    for q in range(rx.num_rx):
        np.testing.assert_allclose(rx.samples[q], expected, atol=1e-12)


def test_synthesis_is_linear_in_the_scene(desk_env):
    a = make_scene((2e-5, 0.25, 1.0 + 0.5j))
    b = make_scene((6e-5, -0.4, 0.3 - 1.0j))
    both = Scene(targets=a.targets + b.targets)
    rx_a = synth_received(a, desk_env.array, desk_env.plan, desk_env.sample_rate)
    rx_b = synth_received(b, desk_env.array, desk_env.plan, desk_env.sample_rate)
    rx = synth_received(both, desk_env.array, desk_env.plan, desk_env.sample_rate)
    np.testing.assert_allclose(rx.samples, rx_a.samples + rx_b.samples, atol=1e-12)


def test_ambiguous_delay_rejected(desk_env):
    scene = make_scene((100e-6, 0.0, 1.0))
    with pytest.raises(ValidationError):
        synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)


def test_off_grid_delays_are_supported(desk_env):
    scene = make_scene((13.37e-6, 0.1, 1.0))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    assert np.isfinite(rx.samples).all()
    assert np.linalg.norm(rx.samples) > 0


def test_oracle_of_origin_target_is_all_ones(desk_env):
    scene = make_scene((0.0, 0.0, 1.0))
    coeffs = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    for y in coeffs.matrices:
        np.testing.assert_allclose(y, np.ones_like(y))


def test_oracle_scales_with_reflectivity(desk_env):
    base = make_scene((3e-5, 0.3, 1.0), (7e-5, -0.2, 0.5j))
    scaled = Scene(targets=tuple(
        Target(t.delay, t.sin_doa, 2.5j * t.amplitude) for t in base.targets))
    y0 = oracle_coefficients(base, desk_env.array, desk_env.plan, desk_env.bins)
    y1 = oracle_coefficients(scaled, desk_env.array, desk_env.plan, desk_env.bins)
    for a, b in zip(y0.matrices, y1.matrices):
        np.testing.assert_allclose(2.5j * a, b)


def test_oracle_superposition(desk_env):
    a = make_scene((2e-5, 0.25, 1.0))
    b = make_scene((6e-5, -0.4, 0.7j))
    union = Scene(targets=a.targets + b.targets)
    ya = oracle_coefficients(a, desk_env.array, desk_env.plan, desk_env.bins)
    yb = oracle_coefficients(b, desk_env.array, desk_env.plan, desk_env.bins)
    yu = oracle_coefficients(union, desk_env.array, desk_env.plan, desk_env.bins)
    for u, x, y in zip(yu.matrices, ya.matrices, yb.matrices):
        np.testing.assert_allclose(u, x + y, atol=1e-12)


def test_on_grid_oracle_matches_dictionary_outer_product(desk_env):
    n, p = 123, 30
    delay = n * desk_env.plan.pri / len(desk_env.range_grid)
    sin = desk_env.azi_grid.values[p]
    amp = 0.8 - 0.3j
    scene = make_scene((delay, sin, amp))
    coeffs = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    dicts = desk_env.dictionaries
    for y, a, b in zip(coeffs.matrices, dense_range_atoms(dicts), dicts.azimuth_atoms):
        np.testing.assert_allclose(y, amp * np.outer(a[:, n], b[:, p]), atol=1e-10)


def test_infinite_snr_is_identity(desk_env):
    scene = make_scene((2e-5, 0.1, 1.0))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    assert add_noise(rx, None, 5) is rx
    assert add_noise(rx, np.inf, 5) is rx


@pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
def test_an_snr_of_nan_or_minus_inf_is_rejected(desk_env, snr_db):
    rx = synth_received(make_scene((2e-5, 0.1, 1.0)), desk_env.array, desk_env.plan,
                        desk_env.sample_rate)
    with pytest.raises(ValidationError, match="SNR"):
        add_noise(rx, snr_db, 5)


def test_noise_is_deterministic_per_seed(desk_env):
    scene = make_scene((2e-5, 0.1, 1.0))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    a = add_noise(rx, 0.0, 1234)
    b = add_noise(rx, 0.0, 1234)
    c = add_noise(rx, 0.0, 1235)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_noise_on_silence_is_undefined(desk_env):
    rx = synth_received(Scene(targets=()), desk_env.array, desk_env.plan,
                        desk_env.sample_rate)
    with pytest.raises(NumericalError):
        add_noise(rx, 0.0, 1)


def test_empirical_snr_calibration(desk_env):
    scene = make_scene((2e-5, 0.1, 1.0), (5e-5, -0.3, 1.0))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    n_active = int(rx.active_mask.sum())
    signal_power = float(np.mean(np.sum(np.abs(rx.samples) ** 2, axis=1))) / n_active
    ratios = []
    for trial in range(100):
        noisy = add_noise(rx, 0.0, [77, trial])
        noise = noisy.samples - rx.samples
        ratios.append(signal_power / float(np.mean(np.abs(noise) ** 2)))
    snr_db = 10 * np.log10(np.mean(ratios))
    assert abs(snr_db) < 0.5


def test_active_mask_covers_the_pulse_windows(desk_env):
    delay = 2e-5
    scene = make_scene((delay, 0.0, 1.0))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    width = int(round(desk_env.plan.base.pulse_width * desk_env.sample_rate))
    start = int(delay * desk_env.sample_rate)
    assert int(rx.active_mask.sum()) == width
    assert rx.active_mask[start] and rx.active_mask[start + width - 1]
    assert not rx.active_mask[start - 1]


@pytest.mark.parametrize("mode", list(ArrayMode))
def test_synthesis_equals_the_per_target_loop(desk_envs, mode):
    env = desk_envs[mode]
    pri = env.plan.pri
    scene = make_scene((0.0, 0.0, 1.0), (13.37e-6, 0.1, 0.3 - 0.8j),  # off-grid delay
                       (123 * pri / 300, -0.55, 1j), (pri * (1 - 1e-9), 0.9, 2.0))
    for s in (scene, Scene(targets=())):
        got = synth_received(s, env.array, env.plan, env.sample_rate).samples
        want = loop_synth_received(s, env.array, env.plan, env.sample_rate)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-9 * max(np.max(np.abs(want)), 1.0))


@pytest.mark.parametrize("profile, mode", [("desk", mode) for mode in ArrayMode]
                         + [("full", ArrayMode.ULA), ("full", ArrayMode.WIDE)])
@pytest.mark.parametrize("num_targets", [0, 1, 10, 40])
def test_synthesis_equals_the_per_transmitter_products_bit_for_bit(
        desk_envs, full_envs, profile, mode, num_targets):
    # the spatial factors of every transmitter in one stacked exp round as
    # each transmitter's own did; half the delays are off the grid
    env = (desk_envs if profile == "desk" else full_envs)[mode]
    rng = np.random.default_rng([num_targets, len(env.range_grid), env.array.num_rx])
    cells = rng.choice(len(env.range_grid), num_targets, replace=False).astype(float)
    cells[::2] += rng.random(len(cells[::2]))
    scene = make_scene(*zip(cells * env.range_grid.resolution,
                            rng.uniform(-1, 1, num_targets),
                            rng.standard_normal(num_targets)
                            + 1j * rng.standard_normal(num_targets)))
    got = synth_received(scene, env.array, env.plan, env.sample_rate)
    want = per_transmitter_synth_received(scene, env.array, env.plan, env.sample_rate)
    assert np.array_equal(got.spectrum, want.spectrum)
    assert np.array_equal(got.active_mask, want.active_mask)
    assert (got.spectrum != 0).any() == (num_targets > 0)


def _noise_variance(rx, snr_db):
    """The per-sample noise variance `add_noise` calibrates: the spectrum's
    energy by Parseval over the active samples, against the SNR."""
    n, pairs = rx.spectrum.shape[1], rx.spectrum.view(float)  # |X_k|^2 = re^2 + im^2
    energy = n * np.mean(np.einsum("ij,ij->i", pairs, pairs))
    return energy / int(rx.active_mask.sum()) / 10 ** (snr_db / 10)


def _two_stream_noise(seed, q, n, scale):
    """The noise spectrum `add_noise` draws: its re, im values in frame order,
    the first half from child 0 of `seed`, the second half from child 1.
    Each half of v values is a Box-Muller transform: h = ceil(v / 2) float64
    uniforms u, then h float32 uniforms a; the radius
    r = sqrt(ln(1 - u) * -2 scale^2) in float64, the angle 2 pi a in float32,
    and r cos(angle) then the first v - h of r sin(angle)."""
    halves = []
    for child in np.random.SeedSequence(seed).spawn(2):
        rng = np.random.default_rng(child)
        h, m = (q * n + 1) // 2, q * n // 2
        radius = np.sqrt(np.log1p(-rng.random(h)) * (-2 * scale * scale))
        angle = rng.random(h, dtype=np.float32) * np.float32(2 * np.pi)
        halves += [radius * np.cos(angle), radius[:m] * np.sin(angle[:m])]
    draw = np.concatenate(halves).reshape(q, n, 2)
    return draw[..., 0] + 1j * draw[..., 1]


@pytest.mark.parametrize("mode", [ArrayMode.RANDOM, ArrayMode.THINNED])
def test_noise_is_the_two_stream_spectrum_formula_bit_for_bit(desk_envs, mode):
    # the frame is held as its spectrum, and the noise is drawn as one too: the
    # per-bin variance is s^2 / n, that of the forward-normalized DFT of
    # white noise of variance s^2 per sample, and each half of the re, im
    # values is the Box-Muller transform of its own child stream of the
    # seed. Thinned's 5 receivers put the split inside receiver 2.
    env = desk_envs[mode]
    scene = make_scene((2e-5, 0.1, 1.0), (5e-5, -0.3, 0.5j))
    rx = synth_received(scene, env.array, env.plan, env.sample_rate)
    noisy = add_noise(rx, -5.0, [3, 1])
    q, n = rx.spectrum.shape
    noise = _two_stream_noise([3, 1], q, n, np.sqrt(_noise_variance(rx, -5.0) / (2 * n)))
    assert np.array_equal(noisy.spectrum, rx.spectrum + noise)
    # in time samples: the signal plus the noise's samples, up to the
    # transforms' rounding
    want = rx.samples + np.fft.ifft(noise, axis=1, norm="forward")
    np.testing.assert_allclose(noisy.samples, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


def test_noise_with_an_odd_count_per_half_is_the_formula_bit_for_bit():
    # 3 receivers of 5 samples: each half holds 15 values, 8 radii whose
    # last sine is dropped
    rx = ReceivedBaseband.from_samples(np.arange(15.0).reshape(3, 5), 1.0,
                                       active_mask=np.ones(5, dtype=bool))
    noise = _two_stream_noise([7, 2], 3, 5, np.sqrt(_noise_variance(rx, 3.0) / 10))
    assert np.array_equal(add_noise(rx, 3.0, [7, 2]).spectrum, rx.spectrum + noise)


def test_normalized_noise_is_standard_normal(desk_env):
    # the re, im values of F = 4 frames, z = noise / scale, are N = 960000
    # draws of N(0, 1). Under correct noise the checks fail with probability
    # 1.2e-10 (the KS distance sup |F_N - Phi| past 0.0035, by the
    # Dvoretzky-Kiefer-Wolfowitz-Massart bound 2 exp(-2 N d^2)), 2.6e-12
    # (the excess kurtosis past 0.035, 7 sd of sqrt(24 / N)) and 3.8e-10 (the
    # count past 4 sigma, Binomial(N, 6.33e-5) with mean 60.8, outside
    # [20, 119]): below 1e-9 in all, on fixed seeds besides.
    scene = make_scene((2e-5, 0.1, 1.0), (5e-5, -0.3, 0.5j))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    frames, n = 4, rx.spectrum.shape[1]
    scale = np.sqrt(_noise_variance(rx, -5.0) / (2 * n))  # per re or im value
    z = np.sort(np.concatenate([
        ((add_noise(rx, -5.0, [31, f]).spectrum - rx.spectrum) / scale).view(float).ravel()
        for f in range(frames)]))
    count = len(z)
    phi = 0.5 * (1 + np.frompyfunc(math.erf, 1, 1)(z / math.sqrt(2)).astype(float))
    steps = np.arange(count + 1) / count
    assert max(np.max(steps[1:] - phi), np.max(phi - steps[:-1])) < 0.0035
    assert abs(np.mean(z ** 4) / np.mean(z ** 2) ** 2 - 3) < 0.035
    assert 20 <= np.count_nonzero(np.abs(z) > 4) <= 119


_UMATH = np._core._multiarray_umath


@pytest.mark.skipif(not (_UMATH.__cpu_features__.get("X86_V3")
                         and "X86_V3" in _UMATH.__cpu_dispatch__),
                    reason="needs an x86-64 CPU and numpy build with X86_V3 dispatch")
def test_noise_agrees_across_cpu_dispatch_levels(tmp_path):
    # numpy dispatches float64 log1p on X86_V4 and float32 sin and cos on
    # X86_V3, so one seed's frame differs at float32 rounding level between
    # those levels and the X86_V2 baseline; it must agree within 1e-6 sigma
    q, n = 10, 12000
    rx = ReceivedBaseband(spectrum=np.ones((q, n), dtype=complex), pri=1e-4)
    # energy n^2 over n active samples: the per-sample variance is n 10^0.5,
    # and each re or im value's scale sqrt(10^0.5 / 2)
    scale = np.sqrt(10 ** 0.5 / 2)
    disabled = [f for f in ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
                if f in _UMATH.__cpu_dispatch__]
    code = ("import sys, numpy as np, submimo\n"
            "assert not np._core._multiarray_umath.__cpu_features__['X86_V3']\n"
            "rx = submimo.ReceivedBaseband(spectrum=np.ones((%d, %d), dtype=complex), "
            "pri=1e-4)\n"
            "np.save(sys.argv[1], submimo.add_noise(rx, -5.0, [12, 3]).spectrum)" % (q, n))
    src = str(Path(submimo.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "baseline.npy"
    subprocess.run([sys.executable, "-c", code, str(out)], env=env, capture_output=True,
                   text=True, timeout=60, check=True)
    baseline, native = np.load(out), add_noise(rx, -5.0, [12, 3]).spectrum
    assert np.max(np.abs((baseline - native).view(float))) <= 1e-6 * scale


def test_noise_on_silence_releases_the_worker_and_keeps_no_frame(desk_env):
    # the worker takes its half before the caller finds the frame silent;
    # the error must hand it no scale, wait for it, and leave nothing held.
    # The next frame is drawn on a thread, so a worker left waiting fails
    # the test instead of hanging it
    scene = make_scene((2e-5, 0.1, 1.0))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    silent = ReceivedBaseband(spectrum=np.zeros_like(rx.spectrum), pri=rx.pri)
    frame = weakref.ref(silent.spectrum)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        raised = None
        try:
            add_noise(silent, -5.0, [8, 1])
        except NumericalError as caught:
            raised = str(caught)
        del silent
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert raised == "SNR undefined for an all-zero signal"
    assert frame() is None and held < rx.spectrum.nbytes // 4
    got = []
    thread = threading.Thread(target=lambda: got.append(add_noise(rx, -5.0, [8, 2])),
                              daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    q, n = rx.spectrum.shape
    noise = _two_stream_noise([8, 2], q, n, np.sqrt(_noise_variance(rx, -5.0) / (2 * n)))
    assert np.array_equal(got[0].spectrum, rx.spectrum + noise)


@pytest.mark.parametrize("mode", [ArrayMode.RANDOM, ArrayMode.THINNED])
def test_noise_is_uncorrelated_between_every_pair_of_receivers(desk_envs, mode):
    # z, the noise normalized to the per-bin variance, is CN(0, 1) in every
    # bin. Over N = F * n bins of independent receivers p, q the correlation
    # r = sum z_p conj(z_q) / N is about CN(0, 1 / N), so P(|r| > c) is
    # exp(-N c^2): the bound below fails some pair of correct noise with
    # probability 1e-9, on fixed seeds besides. The pairs include the one
    # on either side of the split between the two streams' halves (receivers
    # 4 and 5 of random's 10; thinned's 5 split inside receiver 2).
    env = desk_envs[mode]
    scene = make_scene((2e-5, 0.1, 1.0), (5e-5, -0.3, 0.5j))
    rx = synth_received(scene, env.array, env.plan, env.sample_rate)
    frames, (q, n) = 10, rx.spectrum.shape
    scale = np.sqrt(_noise_variance(rx, -5.0) / n)
    gram = np.zeros((q, q), dtype=complex)
    for f in range(frames):
        z = (add_noise(rx, -5.0, [4711, f]).spectrum - rx.spectrum) / scale
        gram += z @ z.conj().T
    r = gram / (frames * n)
    np.testing.assert_allclose(np.diag(r).real, 1.0, atol=0.05)
    pairs = np.triu_indices(q, 1)
    bound = np.sqrt(np.log(len(pairs[0]) / 1e-9) / (frames * n))
    assert np.all(np.abs(r[pairs]) < bound)


def test_noise_from_many_threads_at_once_equals_serial_calls(desk_env):
    # more callers than cores share the one noise worker; a switch interval
    # of a microsecond interleaves them as finely as the interpreter allows
    scene = make_scene((2e-5, 0.1, 1.0), (5e-5, -0.3, 0.5j))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    callers, calls = 6, 3
    seeds = [[[99, c, k] for k in range(calls)] for c in range(callers)]
    serial = [[add_noise(rx, -5.0, seed).spectrum for seed in row] for row in seeds]
    got = [[None] * calls for _ in range(callers)]
    start = threading.Barrier(callers)

    def call(c):
        start.wait(timeout=30)
        for k, seed in enumerate(seeds[c]):
            got[c][k] = add_noise(rx, -5.0, seed).spectrum

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(c,)) for c in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(g, s) for row_g, row_s in zip(got, serial)
               for g, s in zip(row_g, row_s))


def test_the_noise_worker_keeps_no_frame_alive(desk_env):
    # a frame that only the worker still referenced would stay resident
    # until the next noisy frame
    scene = make_scene((2e-5, 0.1, 1.0))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    noisy = add_noise(rx, -5.0, [6, 1])
    frames = [weakref.ref(rx.spectrum), weakref.ref(noisy.spectrum)]
    del rx, noisy
    assert all(frame() is None for frame in frames)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_noise_in_a_forked_child_equals_the_parents(desk_env):
    # the parent's first noisy frame starts its noise worker; a child forked
    # after it has no such thread and must draw the same frame regardless
    scene = make_scene((2e-5, 0.1, 1.0))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    want = add_noise(rx, -5.0, [5, 1]).spectrum

    def child():
        sys.exit(0 if np.array_equal(add_noise(rx, -5.0, [5, 1]).spectrum, want) else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=30)
    hung = proc.is_alive()
    if hung:
        proc.kill()
        proc.join()
    assert not hung and proc.exitcode == 0


def test_importing_submimo_and_adding_noise_loads_neither_concurrent_futures_nor_logging():
    # the noise worker is a bare thread fed by a queue: concurrent.futures
    # would import logging, about 0.75 MB of resident memory in every process
    code = ("import sys, numpy as np, submimo\n"
            "submimo.add_noise(submimo.ReceivedBaseband.from_samples(np.ones((2, 8)), 1.0), "
            "0.0, 1)\n"
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    src = str(Path(submimo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_noise_is_white_in_every_bin_and_in_time(desk_env):
    # F fully noised frames of one scene. Normalized to the per-bin variance,
    # |z|^2 of each bin and receiver is Exp(1), so a bin's mean over the
    # F * Q = 400 draws is Gamma(400) / 400. Under correct noise the checks
    # fail with probability 1.5e-6 (some bin outside [0.7, 1.35] among
    # 12000), 1.3e-10 (read against unread bins, 6.4 sd), 4.9e-11 (re
    # against im, 6.6 sd) and 9.4e-14 per lag (|r| ~ CN(0, 1/N) over
    # N = 4.8e6 products): below 2e-6 in all, on fixed seeds besides.
    scene = make_scene((2e-5, 0.1, 1.0), (5e-5, -0.3, 0.5j), (8e-5, 0.6, -1.0))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    frames, (q, n) = 40, rx.spectrum.shape
    scale = np.sqrt(_noise_variance(rx, -5.0) / n)  # the per-bin standard deviation
    power, re2, im2, lags, total = np.zeros(n), 0.0, 0.0, np.zeros(2, dtype=complex), 0.0
    for f in range(frames):
        noisy = add_noise(rx, -5.0, [2024, f])
        z = (noisy.spectrum - rx.spectrum) / scale
        power += np.sum(np.abs(z) ** 2, axis=0)
        re2 += np.sum(z.real ** 2)
        im2 += np.sum(z.imag ** 2)
        w = noisy.samples - rx.samples
        total += np.sum(np.abs(w) ** 2)
        lags += [np.sum(w * np.roll(w, -lag, axis=1).conj()) for lag in (1, 2)]
    power /= frames * q
    # flat over every bin, the bins acquisition never reads included
    assert 0.7 < power.min() and power.max() < 1.35
    read = np.zeros(n, dtype=bool)
    plan, bins = desk_env.plan, desk_env.bins
    read[_alias_table(plan, bins, desk_env.adc).ravel()] = True
    assert 0 < read.sum() < n
    assert abs(power[read].mean() / power[~read].mean() - 1) < 0.006
    assert abs(re2 / im2 - 1) < 0.006
    # white in time: the lag-1 and lag-2 autocorrelations of the noise samples
    assert np.all(np.abs(lags / total) < 0.0025)


def test_parseval_energy_equals_the_time_samples_energy(desk_env):
    scene = make_scene((2e-5, 0.1, 1.0), (5e-5, -0.3, 0.5j))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    n = rx.spectrum.shape[1]
    spectral = n * np.sum(np.abs(rx.spectrum) ** 2, axis=1)
    np.testing.assert_allclose(spectral, np.sum(np.abs(rx.samples) ** 2, axis=1),
                               rtol=1e-12)


def test_frame_from_samples_round_trips_through_its_spectrum(desk_env, rng):
    samples = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    mask = np.zeros(64, dtype=bool)
    mask[5:9] = True
    rx = ReceivedBaseband.from_samples(samples, pri=1e-4, active_mask=mask)
    assert np.array_equal(rx.spectrum, np.fft.fft(samples, axis=1, norm="forward"))
    np.testing.assert_allclose(rx.samples, samples, rtol=0, atol=1e-14)
    assert (rx.num_rx, rx.sample_rate, rx.pri) == (3, 64e4, 1e-4)
    assert rx.active_mask is mask
    assert not rx.samples.flags.writeable
    # and from a synthesized spectrum back: the samples' spectrum is the frame's
    synth = synth_received(make_scene((2e-5, 0.1, 1.0)), desk_env.array, desk_env.plan,
                           desk_env.sample_rate)
    back = ReceivedBaseband.from_samples(synth.samples, synth.pri)
    np.testing.assert_allclose(back.spectrum, synth.spectrum, rtol=0,
                               atol=1e-12 * np.abs(synth.spectrum).max())
    # one receiver's frame as a 1-D array
    assert ReceivedBaseband.from_samples(samples[0], 1e-4).spectrum.shape == (1, 64)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64])
def test_frame_from_samples_leaves_its_input_unchanged(rng, dtype):
    # the spectrum is transformed in place in a copy of the samples
    samples = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    samples = (samples.real if dtype is np.float64 else samples).astype(dtype)
    before = samples.copy()
    rx = ReceivedBaseband.from_samples(samples, pri=1e-4)
    assert np.array_equal(samples, before) and samples.dtype == before.dtype
    assert not np.shares_memory(rx.spectrum, samples)
    assert rx.spectrum.dtype == np.complex128
    assert np.array_equal(rx.spectrum,
                          np.fft.fft(before.astype(complex), axis=1, norm="forward"))


@pytest.mark.parametrize("pri", [0.0, -1e-4, np.nan, np.inf])
def test_a_frame_needs_a_finite_positive_pri(pri):
    with pytest.raises(ValidationError, match="PRI"):
        ReceivedBaseband(spectrum=np.zeros((2, 64), dtype=complex), pri=pri)


def test_a_frame_rejects_an_active_mask_that_is_not_its_own(rng):
    # on this 64-sample frame, a 5-sample mask made add_noise calibrate on
    # 5 active samples: 64/5 times the noise power per sample, about 25
    # at 0 dB against about 2 with a mask of the frame's length
    samples = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    for mask in (np.ones(5, dtype=bool), np.ones(65, dtype=bool),
                 np.ones((3, 64), dtype=bool), np.ones(64, dtype=int), [True] * 64):
        with pytest.raises(ValidationError, match="active mask"):
            ReceivedBaseband.from_samples(samples, pri=1e-4, active_mask=mask)
    mask = np.zeros(64, dtype=bool)
    mask[5:9] = True
    rx = ReceivedBaseband.from_samples(samples, pri=1e-4, active_mask=mask)
    assert rx.sample_rate == 64e4
