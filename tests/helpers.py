"""Shared test-side oracles and synthetic solver instances."""

import numpy as np

from submimo.geometry import AzimuthGrid
from submimo.recovery import DictionarySet, RangeGrid
from submimo.waveform import _BIN_EPS, DEFAULT_PHASE_SEED
from submimo.xampler import BinSet, CoefficientSet


def dense_range_atoms(dicts):
    """Per-channel range atoms (K x N_R) materialized from their defining formula.

    Atom n of transmitter m is exp(-2j*pi*(k + m*N)*tau_n/pri) on the selected
    bins k: the phase ramp of delay tau_n on the absolute bins of channel m.
    """
    grid = dicts.range_grid
    pri = grid.resolution * len(grid)
    k = np.asarray(dicts.bins.indices)
    n_bins = dicts.bins.per_channel_bins
    return tuple(np.exp(-2j * np.pi * np.outer(k + m * n_bins, grid.delays / pri))
                 for m in dicts.tx_indices)


def brute_force_scores(matrices, dicts):
    """Independent pair scoring: explicit loops, no shared code path."""
    n_r = len(dicts.range_grid)
    n_t = len(dicts.azi_grid)
    scores = np.zeros((n_r, n_t))
    for y, a, b in zip(matrices, dense_range_atoms(dicts), dicts.azimuth_atoms):
        for n in range(n_r):
            for p in range(n_t):
                val = np.vdot(a[:, n], y @ np.conj(b[:, p]))
                scores[n, p] += abs(val) ** 2
    return scores


def random_instance(rng, n_channels=2, n_bins=12, n_rx=3, n_range=25, n_azi=12,
                    total_bins=64):
    """A small synthetic solver instance with structured unit-modulus atoms."""
    kappa = np.sort(rng.choice(total_bins, size=n_bins, replace=False))
    bins = BinSet(indices=tuple(int(k) for k in kappa), per_channel_bins=total_bins)
    rgrid = RangeGrid.from_cells(1e-4, n_range)
    agrid = AzimuthGrid(values=-1.0 + 2.0 * np.arange(n_azi) / n_azi)
    # continuous positions keep the azimuth atoms free of exact grating ties
    vpos = np.sort(rng.uniform(0.0, 20.0, size=n_rx))
    azimuth_atoms = tuple(np.exp(2j * np.pi * np.outer(vpos, agrid.values))
                          for _ in range(n_channels))
    dicts = DictionarySet(azimuth_atoms=azimuth_atoms, bins=bins,
                          tx_indices=tuple(range(n_channels)),
                          range_grid=rgrid, azi_grid=agrid)
    shape = (n_bins, n_rx)
    matrices = tuple(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for _ in range(n_channels))
    coeffs = CoefficientSet(matrices=matrices, bins=bins,
                            tx_indices=tuple(range(n_channels)),
                            rx_indices=tuple(range(n_rx)))
    return coeffs, dicts


def loop_occupied_cells(subbands, pri):
    """`waveform._occupied_cells` as a scalar loop over each slice's bin cells.

    A cell shared by several slices adds their fractions in slice order,
    clipped to a whole cell after every addition.
    """
    cells: dict[int, float] = {}
    for band in subbands:
        k_first = int(np.floor(band.lo * pri + _BIN_EPS))
        k_last = int(np.ceil(band.hi * pri - _BIN_EPS))
        for k in range(k_first, k_last):
            frac = (min((k + 1) / pri, band.hi) - max(k / pri, band.lo)) * pri
            if frac > _BIN_EPS:
                cells[k] = min(cells.get(k, 0.0) + frac, 1.0)
    bins, fracs = zip(*sorted(cells.items()))
    return np.array(bins, dtype=int), np.array(fracs)


def loop_channel_spectrum(plan, tx, phase_seed=DEFAULT_PHASE_SEED):
    """`waveform.channel_spectrum` on the cells of `loop_occupied_cells`."""
    pri = plan.base.pri
    cells, fracs = loop_occupied_cells(plan.subbands, pri)
    bins = cells + tx * plan.base.bins_per_channel
    g = np.sqrt(plan.total_power / plan.base.signal_band) / pri
    phases = np.exp(2j * np.pi * np.random.default_rng([phase_seed, tx]).random(len(bins)))
    return bins, plan.amplitude_scale * g * np.sqrt(fracs) * phases
