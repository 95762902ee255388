"""Range/azimuth dictionaries and simultaneous matrix orthogonal matching pursuit.

The coefficient matrices factor as Y^m = A^m X (B^m)^T with a shared sparse
X: column n of A^m is the phase signature of a delay cell on channel m's
selected bins, column p of B^m the spatial signature of a sine-DoA cell on
that transmitter's virtual elements. The solver greedily selects the grid
pair maximizing the summed per-channel correlation energy, then refits all
selected amplitudes jointly across channels each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import ArrayConfig, AzimuthGrid, virtual_positions
from .scene import SPEED_OF_LIGHT
from .waveform import CognitivePlan
from .xampler import BinSet, CoefficientSet

DEFAULT_RESIDUAL_TOL = 1e-3


@dataclass(frozen=True)
class RangeGrid:
    """Uniform delay grid over [0, pri)."""

    delays: np.ndarray
    resolution: float  # seconds per cell

    @classmethod
    def from_cells(cls, pri: float, num_cells: int) -> "RangeGrid":
        if num_cells < 1:
            raise ValidationError("range grid needs at least one cell")
        res = pri / num_cells
        return cls(delays=np.arange(num_cells) * res, resolution=res)

    @property
    def ranges_m(self) -> np.ndarray:
        return self.delays * SPEED_OF_LIGHT / 2

    @property
    def range_resolution_m(self) -> float:
        return self.resolution * SPEED_OF_LIGHT / 2

    def __len__(self) -> int:
        return len(self.delays)


@dataclass(frozen=True)
class DictionarySet:
    """Per-transmitter range atoms (K x N_R) and azimuth atoms (Q x N_theta)."""

    range_atoms: tuple[np.ndarray, ...]
    azimuth_atoms: tuple[np.ndarray, ...]
    bins: BinSet
    tx_indices: tuple[int, ...]
    range_grid: RangeGrid
    azi_grid: AzimuthGrid


@dataclass(frozen=True)
class SparseEstimate:
    """Recovered support on the range x azimuth grid with refit amplitudes."""

    support: tuple[tuple[int, int], ...]  # (range cell, azimuth cell)
    amplitudes: np.ndarray
    ranges_m: np.ndarray
    sin_doas: np.ndarray
    residual_norm: float      # sum over channels of Frobenius residual norms
    signal_norm: float        # same functional of the input matrices
    residual_history: tuple[float, ...]  # sum of squared Frobenius norms per iteration

    @property
    def residual_rel(self) -> float:
        return self.residual_norm / self.signal_norm if self.signal_norm > 0 else 0.0

    def __len__(self) -> int:
        return len(self.support)


def build_dictionaries(array: ArrayConfig, plan: CognitivePlan,
                       bins: BinSet, range_grid: RangeGrid,
                       azi_grid: AzimuthGrid,
                       tx_indices=None) -> DictionarySet:
    """Unit-modulus range and azimuth dictionaries on the given grids."""
    base = plan.base
    if array.num_tx != base.num_tx:
        raise ValidationError("array and plan disagree on the transmitter count")
    tx = tuple(tx_indices) if tx_indices is not None else tuple(range(base.num_tx))
    k = bins.as_array
    n = bins.per_channel_bins
    range_atoms, azimuth_atoms = [], []
    for m in tx:
        # absolute bin k + m*N carries the channel's carrier phase ramp
        phases = np.outer(k + m * n, range_grid.delays / base.pri)
        range_atoms.append(np.exp(-2j * np.pi * phases))
        vpos = virtual_positions(array, m)
        azimuth_atoms.append(np.exp(2j * np.pi * np.outer(vpos, azi_grid.values)))
    return DictionarySet(range_atoms=tuple(range_atoms),
                         azimuth_atoms=tuple(azimuth_atoms),
                         bins=bins, tx_indices=tx,
                         range_grid=range_grid, azi_grid=azi_grid)


def _pair_scores(residuals, dicts: DictionarySet) -> np.ndarray:
    """S(n, p) = sum over channels of |a_n^H R b_p^*|^2."""
    score = None
    for r, a, b in zip(residuals, dicts.range_atoms, dicts.azimuth_atoms):
        g = (a.conj().T @ r) @ b.conj()
        score = np.abs(g) ** 2 if score is None else score + np.abs(g) ** 2
    return score


def _joint_refit(matrices, dicts: DictionarySet, support):
    """Least-squares amplitudes fitting all channels simultaneously.

    Stacks the vectorized per-channel systems; the column for support entry
    (n, p) on channel m is the Kronecker product of azimuth atom p and
    range atom n.
    """
    blocks, rhs = [], []
    for y, a, b in zip(matrices, dicts.range_atoms, dicts.azimuth_atoms):
        cols = [np.kron(b[:, p], a[:, n]) for n, p in support]
        blocks.append(np.stack(cols, axis=1))
        rhs.append(y.reshape(-1, order="F"))
    system = np.vstack(blocks)
    target = np.concatenate(rhs)
    amplitudes, _, rank, _ = np.linalg.lstsq(system, target, rcond=None)
    if rank < len(support):
        n, p = support[-1]
        raise NumericalError(
            f"degenerate support: cell (range {n}, azimuth {p}) is linearly "
            f"dependent on the already selected cells")
    return amplitudes


def _reconstruct(dicts: DictionarySet, support, amplitudes):
    out = []
    ns = [n for n, _ in support]
    ps = [p for _, p in support]
    for a, b in zip(dicts.range_atoms, dicts.azimuth_atoms):
        out.append(a[:, ns] @ (amplitudes[:, None] * b[:, ps].T))
    return out


def matrix_omp(coefficients: CoefficientSet, dicts: DictionarySet,
               max_targets: int | None = None) -> SparseEstimate:
    """Greedy simultaneous sparse recovery over all channels.

    Per iteration: score every grid pair on the current residuals, add the
    argmax (ties resolve to the smallest range cell, then the smallest
    azimuth cell), jointly refit every selected amplitude across channels,
    and subtract the reconstruction. Stops after `max_targets` selections,
    or, when no target count is given, once the summed relative residual
    drops to DEFAULT_RESIDUAL_TOL.
    """
    if coefficients.tx_indices != dicts.tx_indices:
        raise ValidationError("coefficients and dictionaries cover different channels")
    if coefficients.bins != dicts.bins:
        raise ValidationError("coefficients and dictionaries cover different bins")
    if max_targets is not None and max_targets < 1:
        raise ValidationError("max_targets must be at least 1")
    tol = DEFAULT_RESIDUAL_TOL if max_targets is None else 0.0
    n_cells = len(dicts.range_grid) * len(dicts.azi_grid)
    n_meas = sum(y.size for y in coefficients.matrices)
    cap = max_targets if max_targets is not None else min(n_cells, n_meas)

    matrices = coefficients.matrices
    signal_norm = float(sum(np.linalg.norm(y) for y in matrices))
    residuals = [y.copy() for y in matrices]
    support: list[tuple[int, int]] = []
    amplitudes = np.zeros(0, dtype=complex)
    history: list[float] = []

    def _estimate(res_norm: float) -> SparseEstimate:
        ns = np.array([n for n, _ in support], dtype=int)
        ps = np.array([p for _, p in support], dtype=int)
        return SparseEstimate(
            support=tuple(support), amplitudes=amplitudes,
            ranges_m=dicts.range_grid.ranges_m[ns] if len(ns) else np.zeros(0),
            sin_doas=dicts.azi_grid.values[ps] if len(ps) else np.zeros(0),
            residual_norm=res_norm, signal_norm=signal_norm,
            residual_history=tuple(history))

    if signal_norm == 0.0:
        return _estimate(0.0)

    while len(support) < cap:
        scores = _pair_scores(residuals, dicts)
        for n, p in support:  # a pair may only be selected once
            scores[n, p] = -np.inf
        n, p = np.unravel_index(int(np.argmax(scores)), scores.shape)
        support.append((int(n), int(p)))
        amplitudes = _joint_refit(matrices, dicts, support)
        recon = _reconstruct(dicts, support, amplitudes)
        residuals = [y - r for y, r in zip(matrices, recon)]
        history.append(float(sum(np.linalg.norm(r) ** 2 for r in residuals)))
        res_norm = float(sum(np.linalg.norm(r) for r in residuals))
        if res_norm / signal_norm <= tol:
            return _estimate(res_norm)
    return _estimate(float(sum(np.linalg.norm(r) for r in residuals)))


def coherence(dicts: DictionarySet) -> float:
    """Mutual coherence of the range dictionary over channel-Nyquist delay offsets.

    For unit-modulus partial-Fourier atoms the inner product between delay
    cells offset by d full-rate bins is sum over selected bins k of
    exp(-2j*pi*k*d/N); the carrier term is a per-column unit scalar and
    drops out, so the value is channel-independent. Evaluated for every
    d = 1..N-1 via an FFT of the bin-selection indicator.
    """
    if len(dicts.range_grid) < 2:
        raise ValidationError("coherence needs at least two range cells")
    n = dicts.bins.per_channel_bins
    indicator = np.zeros(n)
    indicator[dicts.bins.as_array] = 1.0
    spectrum = np.abs(np.fft.fft(indicator))
    return float(np.max(spectrum[1:]) / len(dicts.bins))
