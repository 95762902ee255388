"""Sparse target scenes, received-signal synthesis and calibrated noise.

Targets are non-fluctuating point reflectors described by a delay within
one PRI, a sine-of-DoA and a complex reflectivity. Delays are applied as
exact linear phase on the synthesis bins, so off-grid delays are supported
without interpolation error.
"""

from __future__ import annotations

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
    """Per-receiver complex frames spanning exactly one PRI.

    `active_mask` marks the nominal pulse-occupied samples (the union of
    [delay, delay + pulse_width) windows of the generating scene); it is
    the reference window for SNR accounting.
    """

    samples: np.ndarray  # (num_rx, frame)
    sample_rate: float
    pri: float
    active_mask: np.ndarray | None = None

    @property
    def num_rx(self) -> int:
        return self.samples.shape[0]


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
    (receivers x targets) @ (targets x cells) product.
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
    coeffs = np.zeros((array.num_rx, n_frame), dtype=complex)
    for m, (bins, values) in enumerate(spectra):
        spatial = np.exp(2j * np.pi * np.outer(virtual_positions(array, m), sin))
        spatial *= amp * np.exp(-2j * np.pi * (m * n) * lag)
        coeffs[:, bins] = (spatial @ ramp) * values
    samples = np.fft.ifft(coeffs, axis=1, norm="forward")
    return ReceivedBaseband(samples=samples, sample_rate=sample_rate, pri=base.pri,
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
    matrices = []
    for m in range(base.num_tx):
        vpos = virtual_positions(array, m)
        y = np.zeros((len(bins), array.num_rx), dtype=complex)
        for t in scene.targets:
            range_phase = np.exp(-2j * np.pi * (k + m * n) * (t.delay / base.pri))
            spatial_phase = np.exp(2j * np.pi * vpos * t.sin_doa)
            y += t.amplitude * np.outer(range_phase, spatial_phase)
        matrices.append(y)
    return CoefficientSet(matrices=tuple(matrices), bins=bins,
                          tx_indices=tuple(range(base.num_tx)),
                          rx_indices=tuple(range(array.num_rx)))


def add_noise(rx: ReceivedBaseband, snr_db: float | None, seed) -> ReceivedBaseband:
    """Add circularly-symmetric white Gaussian noise at a calibrated SNR.

    The SNR references the mean signal power a pulse-limited waveform of
    the same energy would have over the active support: total frame energy
    divided by the active-sample count, against the per-sample noise
    variance at the synthesis rate. All receivers get the same variance.
    `snr_db=None` (or +inf) returns the input untouched.
    """
    if snr_db is None or np.isinf(snr_db):
        return rx
    mask = rx.active_mask
    if mask is None or not mask.any():
        mask = np.ones(rx.samples.shape[1], dtype=bool)
    energy = np.mean(np.sum(np.abs(rx.samples) ** 2, axis=1))
    if energy == 0.0:
        raise NumericalError("SNR undefined for an all-zero signal")
    signal_power = energy / int(mask.sum())
    variance = signal_power / 10 ** (snr_db / 10)
    rng = np.random.default_rng(seed)
    # all real parts, then all imaginary parts: the stream of two draws of
    # the frame's shape, drawn into one reused half-size buffer that keeps
    # the stage's peak memory at the input, the output and half a frame
    scale = np.sqrt(variance / 2)
    samples = np.empty(rx.samples.shape, dtype=complex)
    draw = np.empty(rx.samples.shape)
    for signal, out in ((rx.samples.real, samples.real), (rx.samples.imag, samples.imag)):
        rng.standard_normal(out=draw)
        draw *= scale
        np.add(signal, draw, out=out)
    return replace(rx, samples=samples)
