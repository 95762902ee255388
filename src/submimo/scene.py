"""Sparse target scenes, received-signal synthesis and calibrated noise.

Targets are non-fluctuating point reflectors described by a delay within
one PRI, a sine-of-DoA and a complex reflectivity. Delays are applied as
exact linear phase on the synthesis bins, so off-grid delays are supported
without interpolation error.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import ArrayConfig, virtual_positions
from .waveform import CognitivePlan, channel_spectrum
from .xampler import BinSet, CoefficientSet

SPEED_OF_LIGHT = 3.0e8


@dataclass(frozen=True)
class Target:
    """One point reflector: delay in seconds, sine of DoA, complex reflectivity."""

    delay: float
    sin_doa: float
    amplitude: complex

    def __post_init__(self):
        if not -1.0 <= self.sin_doa < 1.0:
            raise ValidationError(f"sin_doa {self.sin_doa} outside [-1, 1)")

    @property
    def range_m(self) -> float:
        return self.delay * SPEED_OF_LIGHT / 2


def target_from_range(range_m: float, sin_doa: float, amplitude: complex) -> Target:
    """Build a target from its one-way range in meters."""
    return Target(delay=2 * range_m / SPEED_OF_LIGHT, sin_doa=sin_doa,
                  amplitude=amplitude)


@dataclass(frozen=True)
class Scene:
    """A set of targets with distinct (delay, sin_doa) locations."""

    targets: tuple[Target, ...]

    def __post_init__(self):
        locations = [(t.delay, t.sin_doa) for t in self.targets]
        if len(set(locations)) != len(locations):
            raise ValidationError("two targets share the same (delay, sin_doa) cell")

    def __len__(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class ReceivedBaseband:
    """Per-receiver complex frames spanning exactly one PRI, held as their spectrum.

    `spectrum[q]` is receiver q's forward-normalized DFT of its frame,
    X_k = (1/n) sum_t x_t exp(-2j*pi*k*t/n): the frame's 1/pri-spaced
    Fourier coefficients, which synthesis builds and acquisition reads, so
    neither transforms the frame. `samples` derives the time samples;
    `from_samples` builds a frame that arrives as time samples.
    `active_mask` marks the nominal pulse-occupied samples (the union of
    [delay, delay + pulse_width) windows of the generating scene); it is
    the reference window for SNR accounting. The sample rate is the frame
    length over the PRI.
    """

    spectrum: np.ndarray  # (num_rx, frame)
    pri: float
    active_mask: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.pri < np.inf:
            raise ValidationError(f"the frame's PRI {self.pri} s is not finite and positive")
        mask = self.active_mask
        if mask is not None and (not isinstance(mask, np.ndarray) or mask.dtype != bool
                                 or mask.shape != self.spectrum.shape[1:]):
            raise ValidationError(f"the active mask must be a boolean array of the "
                                  f"frame's {self.spectrum.shape[1]} samples")

    @classmethod
    def from_samples(cls, samples, pri: float,
                     active_mask: np.ndarray | None = None) -> "ReceivedBaseband":
        """The frame of time samples `samples` (num_rx, frame).

        The samples are copied once into a complex128 array, which is
        transformed in place; `samples` itself is left unchanged.
        """
        spectrum = np.array(np.atleast_2d(samples), dtype=complex)
        np.fft.fft(spectrum, axis=1, norm="forward", out=spectrum)
        return cls(spectrum=spectrum, pri=pri, active_mask=active_mask)

    @property
    def sample_rate(self) -> float:
        return self.spectrum.shape[1] / self.pri

    @property
    def samples(self) -> np.ndarray:
        """The time samples (num_rx, frame), read-only; one inverse FFT per read."""
        samples = np.fft.ifft(self.spectrum, axis=1, norm="forward")
        samples.flags.writeable = False
        return samples

    @property
    def num_rx(self) -> int:
        return self.spectrum.shape[0]


def _active_mask(scene: Scene, pulse_width: float, pri: float, n_frame: int) -> np.ndarray:
    mask = np.zeros(n_frame, dtype=bool)
    rate = n_frame / pri
    width = max(int(round(pulse_width * rate)), 1)
    starts = np.floor(np.array([t.delay for t in scene.targets]) * rate).astype(int)
    mask[(starts[:, None] + np.arange(width)) % n_frame] = True
    return mask


def synth_received(scene: Scene, array: ArrayConfig, plan: CognitivePlan,
                   sample_rate: float) -> ReceivedBaseband:
    """Superimpose delayed, spatially phased pulse echoes at every receiver.

    Each target contributes amplitude * h_m(t - delay) * exp(2j*pi*vpos*sin)
    summed over transmitters, built directly on the synthesis bins so the
    delay phase is exact. Delays at or beyond the PRI are ambiguous and
    rejected.

    Channel m carries the cells k of every channel at absolute bins k + m*N,
    so a target's delay phase splits into exp(-2j*pi*k*delay/pri), shared by
    all transmitters, and exp(-2j*pi*m*N*delay/pri), folded into the
    target's spatial factor. Each transmitter's bins are then one
    (receivers x targets) @ (targets x cells) product, written straight
    into the frame's spectrum.
    """
    base = plan.base
    for t in scene.targets:
        if not 0 <= t.delay < base.pri:
            raise ValidationError(
                f"target delay {t.delay} outside the unambiguous interval [0, {base.pri})")
    n_frame = int(round(sample_rate * base.pri))
    if abs(sample_rate * base.pri - n_frame) > 1e-6:
        raise ValidationError("sample_rate * pri must be an integer sample count")
    if sample_rate < base.total_bandwidth - 1e-6:
        raise ValidationError("sample_rate below the occupied FDM band")
    if array.num_tx != base.num_tx:
        raise ValidationError("array and plan disagree on the transmitter count")

    n = base.bins_per_channel
    lag = np.array([t.delay for t in scene.targets]) / base.pri
    sin = np.array([t.sin_doa for t in scene.targets])
    amp = np.array([t.amplitude for t in scene.targets], dtype=complex)
    spectra = [channel_spectrum(plan, m) for m in range(base.num_tx)]
    cells = spectra[0][0]  # channel 0 sits at offset 0
    ramp = np.exp(-2j * np.pi * np.outer(lag, cells))  # targets x cells
    spectrum = np.zeros((array.num_rx, n_frame), dtype=complex)
    for m, (bins, values) in enumerate(spectra):
        spatial = np.exp(2j * np.pi * np.outer(virtual_positions(array, m), sin))
        spatial *= amp * np.exp(-2j * np.pi * (m * n) * lag)
        spectrum[:, bins] = (spatial @ ramp) * values
    return ReceivedBaseband(spectrum=spectrum, pri=base.pri,
                            active_mask=_active_mask(scene, base.pulse_width,
                                                     base.pri, n_frame))


def oracle_coefficients(scene: Scene, array: ArrayConfig,
                        plan: CognitivePlan, bins: BinSet) -> CoefficientSet:
    """Ground-truth coefficient matrices, bypassing time-domain synthesis.

    Evaluates the target model directly on the selected bins; the
    acquisition chain applied to a synthesized scene must reproduce these
    values up to floating-point error.
    """
    base = plan.base
    if array.num_tx != base.num_tx:
        raise ValidationError("array and plan disagree on the transmitter count")
    k = bins.as_array
    n = bins.per_channel_bins
    matrices = np.zeros((base.num_tx, len(bins), array.num_rx), dtype=complex)
    for m, y in enumerate(matrices):
        vpos = virtual_positions(array, m)
        for t in scene.targets:
            range_phase = np.exp(-2j * np.pi * (k + m * n) * (t.delay / base.pri))
            spatial_phase = np.exp(2j * np.pi * vpos * t.sin_doa)
            y += t.amplitude * np.outer(range_phase, spatial_phase)
    return CoefficientSet(matrices=matrices, bins=bins)


def _noiseless(snr_db: float | None) -> bool:
    """True for the SNRs that add no noise, None and +inf; NaN and -inf raise."""
    if snr_db is not None and not snr_db > -np.inf:
        raise ValidationError(f"SNR {snr_db} dB is neither a number of dB nor +inf")
    return snr_db is None or snr_db == np.inf


def _uniform_noise(values: np.ndarray, seed: np.random.SeedSequence) -> np.ndarray:
    """The seeded draws of the Box-Muller transform (Box & Muller, 1958) that
    fills `values`: ln(1 - u) of float64 uniforms u, written into the first
    ceil(len / 2) values, and the float32 angles 2 pi v of as many float32
    uniforms v, returned. `_normal_noise` turns them into normal values."""
    rng = np.random.default_rng(seed)
    radius = values[:(len(values) + 1) // 2]
    rng.random(out=radius)
    np.log1p(np.negative(radius, out=radius), out=radius)
    angle = rng.random(len(radius), dtype=np.float32)
    angle *= np.float32(2 * np.pi)
    return angle


def _normal_noise(values: np.ndarray, angle: np.ndarray, signal: np.ndarray,
                  scale: float) -> None:
    """Finish `_uniform_noise`'s fill of `values`: the radius
    r = scale sqrt(-2 ln(1 - u)) times cos(angle) in the first half, times
    sin(angle) in the second (an odd count drops the last sine), plus
    `signal`. The angle buffer takes the cosines, so the fill allocates
    nothing more."""
    radius, rest = values[:len(angle)], values[len(angle):]
    radius *= -2 * scale * scale
    np.sqrt(radius, out=radius)
    np.sin(angle[:len(rest)], out=rest)
    rest *= radius[:len(rest)]
    radius *= np.cos(angle, out=angle)
    values += signal


def _draw_noise_halves(jobs: queue.SimpleQueue) -> None:
    """The noise worker's loop: for each queued half (values, signal, seed,
    scales, done), take the seeded draws, then wait for the scale on
    `scales` and finish the fill; a None scale drops the half unfilled.
    Then put None, or the error it raised, on `done` for the caller. It
    drops the job's arrays before it replies: held until the next job, they
    would keep the last noisy frame and its signal alive (about 5 MB more
    peak RSS on `full_scale`)."""
    while True:
        values, signal, seed, scales, done = jobs.get()
        try:
            angle = _uniform_noise(values, seed)
            scale = scales.get()
            if scale is not None:
                _normal_noise(values, angle, signal, scale)
            error = None
        except BaseException as caught:  # raised again by the caller
            error = caught
        values = signal = angle = None
        done.put(error)


def _forget_noise_worker() -> None:
    """No worker yet: `_noise_jobs` starts one. A forked child starts over
    too, since the parent's thread does not exist there (and its lock may
    have been held)."""
    global _NOISE_JOBS, _NOISE_LOCK
    _NOISE_JOBS, _NOISE_LOCK = None, threading.Lock()


_forget_noise_worker()
os.register_at_fork(after_in_child=_forget_noise_worker)


def _noise_jobs() -> queue.SimpleQueue:
    """The queue of the one noise worker thread, which draws the second half
    of each noise spectrum while the caller draws the first (numpy's normal
    draws and ufuncs release the GIL). The thread starts at the first noisy
    frame, so a noiseless run never starts one."""
    global _NOISE_JOBS
    with _NOISE_LOCK:
        if _NOISE_JOBS is None:
            _NOISE_JOBS = queue.SimpleQueue()
            threading.Thread(target=_draw_noise_halves, args=(_NOISE_JOBS,), name="noise",
                             daemon=True).start()
        return _NOISE_JOBS


def add_noise(rx: ReceivedBaseband, snr_db: float | None, seed) -> ReceivedBaseband:
    """Add circularly-symmetric white Gaussian noise at a calibrated SNR.

    The SNR references the mean signal power a pulse-limited waveform of
    the same energy would have over the active support: total frame energy
    divided by the active-sample count, against the per-sample noise
    variance at the synthesis rate. All receivers get the same variance.
    The frame is held as its spectrum, so the energy is n sum_k |X_k|^2
    (Parseval). The noise is drawn as its spectrum too: the forward-
    normalized DFT of white noise of variance s^2 per sample is white noise
    of variance s^2 / n per bin. The spectrum's re, im values, in frame
    order, are split into two halves, each filled by a Box-Muller transform
    of uniform draws from its own child of `seed`
    (`SeedSequence(seed).spawn(2)`; `_uniform_noise`, `_normal_noise`).
    The second half is drawn on a worker thread while the caller draws the
    first; its job is queued before the caller sums the energy, and the
    scale follows on a queue. A seed gives the same frame, bit for bit,
    whatever the thread schedule, on one numpy build and CPU feature set.
    `snr_db=None` (or +inf) returns the input untouched; NaN and -inf raise.
    """
    if _noiseless(snr_db):
        return rx
    shape = rx.spectrum.shape
    spectrum = np.empty(shape, dtype=complex)
    pairs = rx.spectrum.view(float)  # re, im interleaved
    noise, signal = spectrum.view(float).reshape(2, -1), pairs.reshape(2, -1)
    first, second = np.random.SeedSequence(seed).spawn(2)
    scales, done = queue.SimpleQueue(), queue.SimpleQueue()
    _noise_jobs().put((noise[1], signal[1], second, scales, done))
    try:
        mask = rx.active_mask
        if mask is None or not mask.any():
            mask = np.ones(shape[1], dtype=bool)
        energy = shape[1] * np.mean(np.einsum("ij,ij->i", pairs, pairs))
        if energy == 0.0:
            raise NumericalError("SNR undefined for an all-zero signal")
        signal_power = energy / int(mask.sum())
        variance = signal_power / 10 ** (snr_db / 10)
        scale = np.sqrt(variance / (2 * shape[1]))
    except BaseException:
        scales.put(None)  # releases the worker, which then drops its half
        done.get()
        raise
    scales.put(scale)
    _normal_noise(noise[0], _uniform_noise(noise[0], first), signal[0], scale)
    error = done.get()
    if error is not None:
        raise error
    return replace(rx, spectrum=spectrum)
