"""Array geometry: prototype modes, element placement and the virtual aperture.

Transmit and receive elements live on a common half-wavelength slot grid.
Coherent processing of every (tx, rx) pair emulates a filled virtual array
whose element positions are the pairwise midpoints (xi_m + zeta_q)/2 in
wavelength units; azimuth is parameterized by the sine of the DoA throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, ValidationError

# rejection sampling for edge-pinned random layouts provably terminates;
# the cap only guards against a broken RNG
_MAX_PLACEMENT_TRIES = 100_000


class ArrayMode(Enum):
    """The four array configurations the prototype can be programmed into."""

    ULA = "ula"          # 8x10 uniform: classic virtual linear array
    RANDOM = "random"    # 8x10 random placement, same 80-slot aperture
    THINNED = "thinned"  # 4x5 random placement, same 80-slot aperture
    WIDE = "wide"        # 8x10 random placement over a 400-slot (20x20) aperture


# mode -> (num_tx, num_rx, virtual_tx, virtual_rx)
_MODE_TABLE = {
    ArrayMode.ULA: (8, 10, 8, 10),
    ArrayMode.RANDOM: (8, 10, 8, 10),
    ArrayMode.THINNED: (4, 5, 8, 10),
    ArrayMode.WIDE: (8, 10, 20, 20),
}


def mode_shape(mode: ArrayMode) -> tuple[int, int, int, int]:
    """(num_tx, num_rx, virtual_tx, virtual_rx) for a mode."""
    return _MODE_TABLE[mode]


@dataclass(frozen=True)
class ArrayConfig:
    """Element placement for one mode, positions in half-wavelength slots; the
    counts, which must be the mode's, and the virtual shape derive from them."""

    mode: ArrayMode
    tx_positions: tuple[int, ...]
    rx_positions: tuple[int, ...]
    seed: int

    def __post_init__(self):
        counts = (len(self.tx_positions), len(self.rx_positions))
        if counts != _MODE_TABLE[self.mode][:2]:
            raise ValidationError(f"mode {self.mode.value} takes (tx, rx) position counts "
                                  f"{_MODE_TABLE[self.mode][:2]}, not {counts}")
        for positions in (self.tx_positions, self.rx_positions):
            if any(p < 0 or p >= self.aperture_slots for p in positions):
                raise ValidationError("element position outside the aperture")
            if any(b <= a for a, b in zip(positions, positions[1:])):
                raise ValidationError("element positions must be strictly increasing")

    @property
    def num_tx(self) -> int:
        return len(self.tx_positions)

    @property
    def num_rx(self) -> int:
        return len(self.rx_positions)

    @property
    def virtual_tx(self) -> int:
        return _MODE_TABLE[self.mode][2]

    @property
    def virtual_rx(self) -> int:
        return _MODE_TABLE[self.mode][3]

    @property
    def aperture_slots(self) -> int:
        return self.virtual_tx * self.virtual_rx


@dataclass(frozen=True)
class AzimuthGrid:
    """Uniform sine-of-DoA grid over [-1, 1), one cell per virtual element."""

    values: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.values[1] - self.values[0])

    def __len__(self) -> int:
        return len(self.values)


def build_mode(mode: ArrayMode, seed: int = 0) -> ArrayConfig:
    """Construct the element layout for `mode`.

    The ULA mode is deterministic: receivers on slots 0..9 (half-wavelength
    spacing) and transmitters on slots 0, 10, ..., 70 (spacing R*lambda/2),
    so the pairwise sums tile the aperture exactly once. The other modes
    draw tx and rx slots uniformly at random without replacement, redrawing
    until slot 0 and the last slot are each occupied by at least one element
    so that the full aperture is spanned. Identical seeds reproduce
    identical layouts.
    """
    if seed < 0:
        raise ConfigError(f"array seed {seed}: need a non-negative integer")
    num_tx, num_rx, virtual_tx, virtual_rx = _MODE_TABLE[mode]
    slots = virtual_tx * virtual_rx

    if mode is ArrayMode.ULA:
        tx = tuple(range(0, slots, num_rx))
        rx = tuple(range(num_rx))
    else:
        rng = np.random.default_rng(seed)
        for _ in range(_MAX_PLACEMENT_TRIES):
            tx = tuple(sorted(rng.choice(slots, size=num_tx, replace=False).tolist()))
            rx = tuple(sorted(rng.choice(slots, size=num_rx, replace=False).tolist()))
            occupied = set(tx) | set(rx)
            if 0 not in occupied or (slots - 1) not in occupied:
                continue
            # receive slots of a single parity collapse the effective virtual
            # sampling to one wavelength, halving the unambiguous DoA span;
            # require both parities so the 180-degree span survives
            if len({z % 2 for z in rx}) == 2:
                break
        else:  # pragma: no cover
            raise ValidationError("could not place elements spanning the aperture")

    return ArrayConfig(mode=mode, tx_positions=tx, rx_positions=rx, seed=seed)


def virtual_positions(array: ArrayConfig, tx: int) -> np.ndarray:
    """Positions in wavelengths, (xi + zeta)/2, of transmitter `tx`'s virtual
    elements with every receiver.

    The received spatial phase for a target at sine-DoA theta is
    exp(j*2*pi*position*theta); with slot-integer placements the phase has
    period 2 in theta, which is what makes the full [-1, 1) sine range
    (180 degrees of DoA) unambiguous.
    """
    if not 0 <= tx < array.num_tx:
        raise ValidationError(f"transmit index {tx} out of range")
    return (array.tx_positions[tx] + np.asarray(array.rx_positions)) / 2.0


def azimuth_grid(array: ArrayConfig) -> AzimuthGrid:
    """Sine-of-DoA grid theta_p = -1 + 2p/(T*R), p = 0..T*R-1."""
    n = array.aperture_slots
    return AzimuthGrid(values=-1.0 + 2.0 * np.arange(n) / n)
