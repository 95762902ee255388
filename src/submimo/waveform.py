"""FDM channel plans, cognitive subband slicing and the pulses' designed spectra.

The transmit band is a one-sided complex baseband [0, M*channel_spacing).
Channel m occupies [m*spacing, m*spacing + signal_band) with the guard above.
A cognitive plan restricts each channel to a set of narrow slices (given as
offsets within the channel) and boosts the in-slice amplitude so the total
transmitted power is unchanged.

Pulses are built in the frequency domain on the 1/pri bin grid: flat
amplitude over every occupied slice, pseudo-random per-bin phase from a
named seed. A slice edge that covers only part of a bin cell contributes
that bin at energy-proportional amplitude, which keeps the per-slice and
total power relations exact despite off-grid slice edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, ValidationError

DEFAULT_PHASE_SEED = 0x5D1CE5  # seeds the one phase code every pulse carries
_BIN_EPS = 1e-6  # absolute tolerance, in bin units, for slice/bin edge tests
# the most samples a plan's frame may hold per receiver: 64 MiB of complex128
# each, 350 times the reference design's 8 x 1500
MAX_FRAME_SAMPLES = 1 << 22


@dataclass(frozen=True)
class FdmPlan:
    """Frequency-division plan for `num_tx` transmitters."""

    num_tx: int
    channel_spacing: float  # Hz per channel including guard
    signal_band: float      # Hz of usable band per channel (B_h)
    pri: float              # pulse repetition interval, seconds
    pulse_width: float      # nominal transmitted pulse duration, seconds

    @property
    def guard(self) -> float:
        """Hz between adjacent channels: the spacing the signal band leaves."""
        return self.channel_spacing - self.signal_band

    @property
    def total_bandwidth(self) -> float:
        return self.num_tx * self.channel_spacing

    @property
    def bins_per_channel(self) -> int:
        return int(round(self.channel_spacing * self.pri))


@dataclass(frozen=True)
class Subband:
    """One occupied frequency slice, as offsets within a single channel."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigError(f"empty subband [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class CognitivePlan:
    """An FDM plan restricted to subband slices, with power renormalization.

    The plan also holds a cache of arrays derived from it (see `cached`);
    it takes no part in equality, hashing or `dataclasses.replace`.
    """

    base: FdmPlan
    subbands: tuple[Subband, ...]
    total_power: float
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def cached(self, key, build):
        """`build()`'s tuple of arrays, computed once per `key` for this plan.

        The arrays are made read-only, since every later caller gets the
        same objects.
        """
        try:
            return self._cache[key]
        except KeyError:
            arrays = build()
            for a in arrays:
                a.flags.writeable = False
            self._cache[key] = arrays
            return arrays

    @property
    def occupied_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """`_occupied_cells` of the plan's slices, computed once per plan."""
        return self.cached(("cells",), lambda: _occupied_cells(self.subbands, self.pri))

    @cached_property
    def amplitude_scale(self) -> float:
        """sqrt(signal_band / occupied width), the width summed over the bin-cell
        fractions the pulse actually carries: flat spectra at that scale make
        the sliced waveform carry exactly the same total power as the full-band
        one. Subbands that cover no part of any bin cell raise."""
        # normalize by the cells the spectrum carries, not the nominal widths, so
        # an edge sliver that _occupied_cells drops takes no power with it
        kept_cells = sum(self.occupied_cells[1])
        if kept_cells <= 0:
            raise ConfigError("the subbands cover no part of any bin cell")
        return float(np.sqrt(self.base.signal_band * self.base.pri / kept_cells))

    @property
    def pri(self) -> float:
        return self.base.pri

    @property
    def num_tx(self) -> int:
        return self.base.num_tx

    @property
    def occupied_bandwidth(self) -> float:
        return sum(b.width for b in self.subbands)


def build_fdm_plan(num_tx: int, channel_spacing: float, signal_band: float,
                   guard: float, pri: float, pulse_width: float) -> FdmPlan:
    """Validated FDM plan; the band arithmetic must close exactly.

    `guard` is only checked: the plan derives it from the other two.
    """
    if num_tx < 1:
        raise ConfigError("need at least one transmitter")
    for name, value in (("channel_spacing", channel_spacing), ("pri", pri),
                        ("pulse_width", pulse_width)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} = {value!r} must be finite and positive")
    if not 0 < signal_band <= channel_spacing:
        raise ConfigError(f"signal_band = {signal_band!r} must lie in "
                          f"(0, channel_spacing = {channel_spacing!r}]")
    if not abs(signal_band + guard - channel_spacing) <= 1e-6 * channel_spacing:
        raise ConfigError(
            f"signal_band + guard must equal channel_spacing "
            f"({signal_band} + {guard} != {channel_spacing})")
    if not 0 < pulse_width <= pri:
        raise ConfigError("pulse_width must lie in (0, pri]")
    n_bins = channel_spacing * pri
    if abs(n_bins - round(n_bins)) > 1e-6:
        raise ConfigError("channel_spacing * pri must be an integer bin count")
    # a frame spans the whole multiplexed band for one PRI
    if num_tx * round(n_bins) > MAX_FRAME_SAMPLES:
        raise ConfigError(f"a frame of {num_tx} channels x {round(n_bins)} bins holds "
                          f"{num_tx * round(n_bins)} samples per receiver, above the "
                          f"limit of {MAX_FRAME_SAMPLES}; shorten pri_s or the channel "
                          f"spacing")
    return FdmPlan(num_tx=num_tx, channel_spacing=channel_spacing,
                   signal_band=signal_band, pri=pri, pulse_width=pulse_width)


def reference_subbands() -> tuple[Subband, ...]:
    """The prototype's eight 375 kHz slices (offsets within one channel).

    The slice origins were chosen so the set survives folding by a 7.5 MHz
    ADC without overlap; total occupied width is 3 MHz of the 12 MHz band.
    """
    starts_mhz = (1.63, 2.16, 3.05, 3.88, 5.66, 6.51, 8.64, 12.32)
    return tuple(Subband(lo=s * 1e6, hi=s * 1e6 + 375e3) for s in starts_mhz)


# the prototype's FDM design for its eight transmitters: 15 MHz channels of a
# 12 MHz signal band plus a 3 MHz guard, 100 us PRI, 4.2 us nominal pulse;
# other transmitter counts reuse it through dataclasses.replace
REFERENCE_FDM_PLAN = build_fdm_plan(num_tx=8, channel_spacing=15e6,
                                    signal_band=12e6, guard=3e6, pri=100e-6,
                                    pulse_width=4.2e-6)


def build_cognitive_plan(base: FdmPlan, subbands, total_power: float = 1.0) -> CognitivePlan:
    """Attach validated subband slices to an FDM plan."""
    if not (math.isfinite(total_power) and total_power > 0):
        raise ConfigError(f"total_power = {total_power!r} must be finite and positive")
    slices = tuple(sorted(subbands, key=lambda b: b.lo))
    if not slices:
        raise ConfigError("a cognitive plan needs at least one subband")
    for band in slices:
        if band.lo < 0 or band.hi > base.channel_spacing + 1e-6:
            raise ConfigError(
                f"subband [{band.lo}, {band.hi}] outside the channel "
                f"[0, {base.channel_spacing}]")
    for a, b in zip(slices, slices[1:]):
        if b.lo < a.hi - 1e-9:
            raise ConfigError(f"subbands [{a.lo}, {a.hi}] and [{b.lo}, {b.hi}] overlap")
    plan = CognitivePlan(base=base, subbands=slices, total_power=total_power)
    plan.amplitude_scale  # raises for subbands that carry no bin cell
    return plan


def conventional_plan(base: FdmPlan, total_power: float = 1.0) -> CognitivePlan:
    """Degenerate cognitive plan occupying the whole signal band (scale 1)."""
    return build_cognitive_plan(base, (Subband(0.0, base.signal_band),), total_power)


def _occupied_cells(subbands, pri: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending bins whose cells touch a slice, and their energy fractions.

    Adjacent slices may share an edge bin; their fractions add up in slice
    order, clipped to one whole cell.
    """
    lo = np.array([band.lo for band in subbands])
    hi = np.array([band.hi for band in subbands])
    k_first = np.floor(lo * pri + _BIN_EPS).astype(int)
    counts = np.maximum(np.ceil(hi * pri - _BIN_EPS).astype(int) - k_first, 0)
    band = np.repeat(np.arange(len(lo)), counts)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts) + k_first[band]
    frac = (np.minimum((k + 1) / pri, hi[band]) - np.maximum(k / pri, lo[band])) * pri
    keep = frac > _BIN_EPS
    # bincount adds in input order, so shared edges add in slice order; the
    # fractions are positive, so one clip after the sum equals a clip after
    # every addition
    total = np.bincount(k[keep], weights=frac[keep])
    bins = np.flatnonzero(np.bincount(k[keep]))
    return bins, np.minimum(total[bins], 1.0)


def channel_spectrum(plan: CognitivePlan, tx: int):
    """Designed Fourier-series coefficients of transmitter `tx`'s pulse.

    Returns (bins, values): absolute one-sided bin indices (spacing 1/pri
    across the whole multiplexed band) and the complex coefficient on each.
    Every channel carries the same cells, offset by tx * bins_per_channel.
    The same function feeds synthesis and the receiver's per-bin
    normalization, so the two sides agree exactly. It is computed once per
    (plan, tx) and returned as read-only arrays.
    """
    base = plan.base
    if not 0 <= tx < base.num_tx:
        raise ValidationError(f"transmit index {tx} out of range")
    return plan.cached(("spectrum", tx), lambda: _design_spectrum(plan, tx))


def _design_spectrum(plan: CognitivePlan, tx: int):
    base = plan.base
    cells, fracs = plan.occupied_cells
    bins = cells + tx * base.bins_per_channel
    # flat design: per-bin energy tau*|c|^2 = scale^2 * g^2 * frac with
    # g^2 = P_t / (B_h * tau^2); summed over the slices this is exactly P_t
    g = np.sqrt(plan.total_power / base.signal_band) / base.pri
    rng = np.random.default_rng([DEFAULT_PHASE_SEED, tx])
    phases = np.exp(2j * np.pi * rng.random(len(bins)))
    values = plan.amplitude_scale * g * np.sqrt(fracs) * phases
    return bins, values
