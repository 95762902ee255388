"""Software sub-Nyquist receiver: channelization, coset subsampling, bin extraction.

Per transmitter, the receiver isolates one FDM channel (ideal brick-wall
extraction of its 1/pri-spaced Fourier coefficients), decimates the channel
signal with a single low-rate ADC, and reads the selected coefficient set
off the folded low-rate spectrum. Folding is alias-free whenever the
occupied slices are coset bands with respect to the ADC rate.

The chain is computed in the frequency domain, where it is defined. An ADC
decimating channel m by D folds its N coefficients X[m*N + k] onto the
L = N/D low-rate bins, low-rate bin j = sum_{l<D} X[m*N + j + l*L] (DFT
aliasing), so one full-frame FFT and a sum over the D aliases of each
selected bin replace the per-channel inverse and low-rate transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ValidationError
from .waveform import _BIN_EPS, CognitivePlan, channel_spectrum

if TYPE_CHECKING:  # pragma: no cover
    from .scene import ReceivedBaseband

# the prototype's ADC: half the 15 MHz complex channel rate (a quarter of its
# real Nyquist rate), under which the reference slices fold alias-free
REFERENCE_ADC_RATE = 7.5e6


@dataclass(frozen=True)
class BinSet:
    """The selected Fourier coefficient indices within one channel.

    Indices are one-sided channel-offset bins with spacing 1/pri; the same
    set is extracted from every (tx, rx) channel pair.
    """

    indices: tuple[int, ...]
    per_channel_bins: int  # coefficients per channel at the full channel rate

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValidationError("empty coefficient set")
        if len(set(self.indices)) != len(self.indices):
            raise ValidationError("coefficient indices must be distinct")
        if min(self.indices) < 0 or max(self.indices) >= self.per_channel_bins:
            raise ValidationError("coefficient index outside [0, N)")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=int)


@dataclass(frozen=True)
class AdcConfig:
    """Low-rate ADC running below the per-channel Nyquist rate."""

    rate: float
    channel_spacing: float

    def __post_init__(self):
        if self.rate <= 0 or self.channel_spacing <= 0:
            raise ConfigError("rates must be positive")

    @property
    def decimation(self) -> int:
        ratio = self.channel_spacing / self.rate
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValidationError(
                f"channel rate {self.channel_spacing} is not an integer "
                f"multiple of the ADC rate {self.rate}")
        return int(round(ratio))


@dataclass(frozen=True)
class CoefficientSet:
    """Extracted coefficients of every (tx, rx) channel: one complex (M, K, Q)
    array, `matrices[m]` transmitter m's K x Q matrix on the bins `bins`."""

    matrices: np.ndarray
    bins: BinSet

    def __post_init__(self):
        y, k = self.matrices, len(self.bins)
        if not isinstance(y, np.ndarray) or y.ndim != 3 or y.shape[1] != k:
            raise ValidationError(f"coefficients must be one (M, {k}, Q) array, "
                                  f"not {type(y).__name__} {getattr(y, 'shape', '')}")

    # read only by perfbench/workload.py; both go once ROADMAP item 6 moves its reads
    @property
    def tx_indices(self) -> tuple[int, ...]:
        return tuple(range(self.matrices.shape[0]))

    @property
    def rx_indices(self) -> tuple[int, ...]:
        return tuple(range(self.matrices.shape[2]))


def subband_bins(plan: CognitivePlan) -> BinSet:
    """Channel-offset bins whose full 1/pri cell lies inside a subband.

    Only fully-contained bins are selected so every extracted coefficient
    carries full in-slice energy; a slice narrower than one bin contributes
    nothing and an entirely empty selection is an error.
    """
    pri = plan.base.pri
    n = plan.base.bins_per_channel
    ks: set[int] = set()
    for band in plan.subbands:
        k_first = int(np.ceil(band.lo * pri - _BIN_EPS))
        k_last = int(np.floor(band.hi * pri + _BIN_EPS))  # exclusive cell end
        ks.update(range(k_first, k_last))
    if not ks:
        raise ValidationError("no bin cell fits inside any subband")
    return BinSet(indices=tuple(sorted(ks)), per_channel_bins=n)


def _folded_segments(band, rate: float):
    """Half-open image segments of one slice after folding modulo `rate`."""
    segments = []
    lo = band.lo
    while lo < band.hi - 1e-12:
        hi = min(band.hi, (np.floor(lo / rate) + 1) * rate)
        segments.append((lo % rate, lo % rate + (hi - lo)))
        lo = hi
    return segments


def check_coset(plan: CognitivePlan, adc: AdcConfig) -> bool:
    """True when no two slices (or parts of one) overlap after folding by the ADC rate."""
    segments = []
    for band in plan.subbands:
        segments.extend(_folded_segments(band, adc.rate))
    for i, (a_lo, a_hi) in enumerate(segments):
        for b_lo, b_hi in segments[i + 1:]:
            if a_lo < b_hi - 1e-9 and b_lo < a_hi - 1e-9:
                return False
    return True


def _normalization(plan: CognitivePlan, bins: BinSet) -> np.ndarray:
    """Transmitted spectrum values on the selected bins of every channel.

    One row per transmitter, computed once per bin set and cached on the
    plan next to its spectra.
    """
    def build():
        n = plan.base.bins_per_channel
        rows = []
        for m in range(plan.num_tx):
            abs_bins, design = channel_spectrum(plan, m)
            want = bins.as_array + m * n
            at = np.minimum(np.searchsorted(abs_bins, want), len(abs_bins) - 1)
            missing = want[abs_bins[at] != want]
            if missing.size:
                raise ValidationError(
                    f"plan does not transmit on selected bin {missing[0]}")
            rows.append(design[at])
        return (np.array(rows),)
    return plan.cached(("normalization", bins), build)[0]


def acquire(rx: "ReceivedBaseband", plan: CognitivePlan, adc: AdcConfig,
            bins: BinSet) -> CoefficientSet:
    """Full acquisition chain: channelize, subsample, extract, normalize.

    Every (tx, rx) channel is read out. Each selected bin k of channel m is
    the sum of its D folded aliases, X[m*N + k mod L + l*L] for l < D, of
    the frame's Fourier coefficients X; with a coset-clean plan only the
    alias k itself carries signal. Each extracted coefficient
    is divided by the known transmitted spectrum value on its bin, which
    aligns all channels to the shared target model: a target at
    (delay, sin DoA, amplitude a) contributes
    a * exp(2j*pi*vpos*sin) * exp(-2j*pi*(k + m*N)*delay/pri) to bin k of
    channel m at receiver q.
    """
    base = plan.base
    samples = np.atleast_2d(rx.samples)
    n_frame = samples.shape[1]
    if abs(rx.pri - base.pri) > 1e-9 * base.pri:
        raise ValidationError(f"frame spans a PRI of {rx.pri} s, the plan's is {base.pri} s")
    n = base.bins_per_channel
    if n_frame < base.num_tx * n:
        raise ValidationError("received frame does not cover the full FDM band")
    d = adc.decimation
    if n % d:
        raise ValidationError(f"the decimation {d} does not divide the channel's "
                              f"{n} bins, so the ADC frame does not fold them")
    n_low = n // d
    folded = bins.as_array % n_low
    if len(set(folded.tolist())) != len(folded):  # np.unique would import numpy.ma
        raise ValidationError("folded bin collision: subbands are not coset bands")
    norm = _normalization(plan, bins)

    spectrum = np.fft.fft(samples, axis=1, norm="forward")
    aliases = folded[:, None] + n_low * np.arange(d)  # K x D channel offsets
    offsets = n * np.arange(base.num_tx)[:, None, None]
    values = spectrum[:, offsets + aliases].sum(axis=-1)  # Q x M x K
    values /= norm
    return CoefficientSet(matrices=values.transpose(1, 2, 0).copy(), bins=bins)
