"""Range/azimuth atoms and simultaneous matrix orthogonal matching pursuit.

The coefficient matrices factor as Y^m = A^m X (B^m)^T with a shared sparse
X: column n of A^m is the phase signature of a delay cell on channel m's
selected bins, column p of B^m the spatial signature of a sine-DoA cell on
that transmitter's virtual elements. The solver greedily selects the grid
pair maximizing the summed per-channel correlation energy, then refits all
selected amplitudes jointly across channels each iteration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import ArrayConfig, AzimuthGrid, azimuth_grid, virtual_positions
from .scene import SPEED_OF_LIGHT
from .waveform import CognitivePlan
from .xampler import BinSet, CoefficientSet, subband_bins

DEFAULT_RESIDUAL_TOL = 1e-3

# score cells per row block: 512 KB of complex products, which stay in cache
_SCORE_BLOCK_CELLS = 1 << 15
# rows scored first; the exact stop test is met after a few to a few dozen
# rows in bound order
_FIRST_ROWS = 16


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
    """Per-transmitter azimuth atoms (Q x N_theta) and the range atoms' grids.

    Channel m is transmitter m. Range atom n of transmitter m is
    exp(-2j*pi*(k + m*N)*n / C) over the selected bins k (N bins per
    channel, C uniform range cells); it is applied by FFT or partial DFT
    and never stored.
    """

    azimuth_atoms: tuple[np.ndarray, ...]
    bins: BinSet
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
                       range_cells: int) -> DictionarySet:
    """Unit-modulus azimuth atoms on the array's sine-DoA grid, with the plan's
    bins and `range_cells` delay cells over one PRI; range atoms stay implicit."""
    if array.num_tx != plan.num_tx:
        raise ValidationError("array and plan disagree on the transmitter count")
    azi_grid = azimuth_grid(array)
    azimuth_atoms = tuple(
        np.exp(2j * np.pi * np.outer(virtual_positions(array, m), azi_grid.values))
        for m in range(plan.num_tx))
    return DictionarySet(azimuth_atoms=azimuth_atoms, bins=subband_bins(plan),
                         range_grid=RangeGrid.from_cells(plan.pri, range_cells),
                         azi_grid=azi_grid)


def _range_maps(residuals, dicts: DictionarySet) -> list[np.ndarray]:
    """Per channel, the C x Q map of a_n^H R over every range cell n.

    That is C * ifft of R scattered to rows (k + m*N) mod C (colliding bins add).
    """
    c, k, n_bins = len(dicts.range_grid), dicts.bins.as_array, dicts.bins.per_channel_bins
    maps = []
    for m, r in enumerate(residuals):
        scattered = np.zeros((c, r.shape[1]), dtype=complex)
        np.add.at(scattered, (k + m * n_bins) % c, r)
        maps.append(c * np.fft.ifft(scattered, axis=0))
    return maps


@functools.lru_cache(maxsize=4)
def _roots_of_unity(c: int) -> np.ndarray:
    """exp(-2j*pi*j/C) for j < C (read-only), indexed by an integer phase mod C."""
    roots = np.exp(-2j * np.pi * np.arange(c) / c)
    roots.flags.writeable = False
    return roots


def _block_maps(stacked, dicts: DictionarySet, rows) -> list[np.ndarray]:
    """The given rows of every channel's range map, as a partial DFT.

    `stacked` holds the channels' K x Q residuals side by side. One GEMM of
    the rows x K table exp(2j*pi*k*n/C) against it, then each channel's row
    phase exp(2j*pi*m*N*n/C).
    """
    c, k, n_bins = len(dicts.range_grid), dicts.bins.as_array, dicts.bins.per_channel_bins
    roots = _roots_of_unity(c).conj()
    phase = np.multiply.outer(rows, k)
    phase %= c
    g = roots[phase] @ stacked
    edges = np.cumsum([0] + [b.shape[0] for b in dicts.azimuth_atoms])
    return [roots[m * n_bins * rows % c][:, None] * g[:, lo:hi]
            for m, (lo, hi) in enumerate(zip(edges, edges[1:]))]


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT takes fast."""
    best = 1 << (n - 1).bit_length()  # the power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _row_bound(residuals, dicts: DictionarySet, weights) -> np.ndarray:
    """sum_m w_m ||h_m(n)||^2 for every range cell n, from lag autocorrelations.

    ||h_m(n)||^2 = sum over lags d of a_m(d) exp(2j*pi*d*n/C), with
    a_m(d) = sum_q sum_k r_m(k + d, q) r_m(k, q)^* (the channel offset m*N
    is a unit phase per row and drops out). Lags reach only |d| < span, the
    span of the selected bins, and do not move when the bins shift; so the
    bins sit at k - min(k) in an FFT of the smallest 5-smooth length
    >= 2*span - 1, whose weighted power spectra, summed over receivers and
    channels, give sum_m w_m a_m without wrap. Folded mod C, the lags take
    one C-point Hermitian transform.
    """
    c, k = len(dicts.range_grid), dicts.bins.as_array
    offsets = k - k.min()
    span = int(offsets.max()) + 1
    length = _smooth_length(2 * span - 1)
    power = 0.0
    for r, w in zip(residuals, weights):  # per channel, so the spectra stay in cache
        spec = np.zeros((r.shape[1], length), dtype=complex)
        spec[:, offsets] = r.T
        pairs = np.fft.fft(spec, out=spec).view(float)
        power = power + w * np.einsum("ij,ij->j", pairs, pairs)
    # power interleaves the re^2 and im^2 sums; lag d sits at index d mod length
    lags = np.fft.ifft(power.reshape(-1, 2).sum(axis=1))
    d = np.arange(1 - span, span)
    folded = np.zeros(c, dtype=complex)
    np.add.at(folded, d % c, lags[d])
    return c * np.fft.irfft(folded[:c // 2 + 1], n=c)


def _pair_scores(block_maps, dicts: DictionarySet) -> np.ndarray:
    """S(n, p) = sum over channels of |a_n^H R b_p^*|^2 for the maps' rows n.

    `block_maps` holds, per channel, the range-map rows of the scored block.
    """
    score = 0.0
    for h, b in zip(block_maps, dicts.azimuth_atoms):
        g = h @ b.conj()
        score += g.real ** 2 + g.imag ** 2
    return score


def _select(residuals, dicts: DictionarySet, support) -> tuple[int, int]:
    """Exact argmax of S over the cells not in `support`, scanned in row blocks.

    Rows are pruned by the Cauchy-Schwarz bound
    S(n, p) <= sum_m ||h_m(n)||^2 max_p ||b_mp||^2: first the _FIRST_ROWS
    rows of largest bound, found by partition, are scored; then every other
    row whose bound can still reach the best score is sorted by descending
    bound and scanned in cache-sized blocks, stopping at the first block
    whose top bound cannot beat the best score found. A grid spanning at
    most 2N cells takes every range map, and so the bound, from one FFT per
    channel; a wider one takes the bound from the residuals' lag
    autocorrelation (`_row_bound`) and only the scored rows' maps
    (`_block_maps`).
    Within a block, equal scores resolve to the smallest (range, azimuth)
    cell; across blocks too, but only for scores equal in floating point.
    """
    c, n_azi = len(dicts.range_grid), len(dicts.azi_grid)
    rows = max(1, _SCORE_BLOCK_CELLS // n_azi)
    ns, ps = np.array(support, dtype=int).reshape(-1, 2).T
    weights = [np.max(np.sum(np.abs(b) ** 2, axis=0)) for b in dicts.azimuth_atoms]
    if c > 2 * dicts.bins.per_channel_bins:
        block_maps = functools.partial(_block_maps, np.hstack(residuals), dicts)
        bound = _row_bound(residuals, dicts, weights)
    else:
        maps = _range_maps(residuals, dicts)
        block_maps = lambda block: [h[block] for h in maps]
        bound = sum(np.einsum("ij,ij->i", h.view(float), h.view(float)) * w
                    for h, w in zip(maps, weights))
    best, cell = -np.inf, (0, 0)

    def scan(block):
        # `block` holds rows ascending, so the argmax breaks ties row-major
        nonlocal best, cell
        score = _pair_scores(block_maps(block), dicts)
        j = np.minimum(np.searchsorted(block, ns), len(block) - 1)
        hit = block[j] == ns  # a pair may only be selected once
        score[j[hit], ps[hit]] = -np.inf
        i = int(np.argmax(score))
        top, at = score.flat[i], (int(block[i // n_azi]), i % n_azi)
        if top > best or (top == best and at < cell):
            best, cell = top, at

    # the lag-domain bound rounds at the scale of the largest row
    slack = 1e-9 * bound.max()
    first = min(_FIRST_ROWS, rows, c)
    head = np.sort(np.argpartition(bound, c - first)[c - first:])
    scan(head)
    open_rows = bound + slack >= best
    open_rows[head] = False
    candidates = np.flatnonzero(open_rows)
    order = candidates[np.argsort(-bound[candidates], kind="stable")]
    for lo in range(0, len(order), rows):
        block = order[lo:lo + rows]
        if bound[block[0]] + slack < best:
            break
        scan(np.sort(block))
    return cell


def _support_atoms(dicts: DictionarySet, support):
    """Per channel, the range (K x s) and azimuth (Q x s) atoms of the support."""
    c, k, n_bins = len(dicts.range_grid), dicts.bins.as_array, dicts.bins.per_channel_bins
    ns, ps = (list(cells) for cells in zip(*support))
    roots = _roots_of_unity(c)  # indexed by the integer phase (k + m*N)*n mod C
    return [(roots[np.outer(k + m * n_bins, ns) % c], b[:, ps])
            for m, b in enumerate(dicts.azimuth_atoms)]


def _joint_refit(matrices, atoms, support):
    """Least-squares amplitudes fitting all channels simultaneously.

    The column of support entry (n, p) on channel m is vec(a_n b_p^T), so
    the normal equations are s x s: the Gram sum_m (A_S^H A_S) * (B_S^H B_S)
    (elementwise) against sum_m diag(A_S^H Y_m B_S^*), as in Batch-OMP.
    """
    gram = sum((a.conj().T @ a) * (b.conj().T @ b) for a, b in atoms)
    rhs = sum(np.sum((a.conj().T @ y) * b.conj().T, axis=1)
              for y, (a, b) in zip(matrices, atoms))
    if np.linalg.matrix_rank(gram, hermitian=True) < len(support):
        n, p = support[-1]
        raise NumericalError(
            f"degenerate support: cell (range {n}, azimuth {p}) is linearly "
            f"dependent on the already selected cells")
    return np.linalg.solve(gram, rhs)


def matrix_omp(coefficients: CoefficientSet, dicts: DictionarySet,
               max_targets: int | None = None) -> SparseEstimate:
    """Greedy simultaneous sparse recovery over all channels.

    Per iteration: add the best-scoring grid pair on the current residuals
    (found exactly by `_select`'s bound-pruned scan, which on every grid
    scores a few to a few dozen range rows), jointly refit every selected
    amplitude across channels, and subtract the reconstruction. Scores
    equal in floating point resolve to the smallest range cell, then the
    smallest azimuth cell. Scores equal only in exact arithmetic may round
    apart, and differently on a grid wider than 2N, whose partial-DFT maps
    round unlike the FFT maps; such ties may resolve to any of the tied
    cells.
    Stops after `max_targets` selections, or, when no target count is given,
    once the summed relative residual drops to DEFAULT_RESIDUAL_TOL.
    """
    if coefficients.tx_indices != tuple(range(len(dicts.azimuth_atoms))):
        raise ValidationError("coefficients and dictionaries cover different channels")
    if coefficients.bins != dicts.bins:
        raise ValidationError("coefficients and dictionaries cover different bins")
    if any(y.shape[1] != b.shape[0]
           for y, b in zip(coefficients.matrices, dicts.azimuth_atoms)):
        raise ValidationError("coefficients and dictionaries cover different receivers")
    if not all(np.isfinite(y).all() for y in coefficients.matrices):
        raise ValidationError("coefficients hold non-finite values")
    if max_targets is not None and max_targets < 1:
        raise ValidationError("max_targets must be at least 1")
    tol = DEFAULT_RESIDUAL_TOL if max_targets is None else 0.0
    cap = max_targets or min(len(dicts.range_grid) * len(dicts.azi_grid),
                             sum(y.size for y in coefficients.matrices))
    matrices = coefficients.matrices
    signal_norm = res_norm = float(sum(np.linalg.norm(y) for y in matrices))
    residuals = list(matrices)
    support: list[tuple[int, int]] = []
    amplitudes = np.zeros(0, dtype=complex)
    history: list[float] = []
    while len(support) < cap and res_norm > tol * signal_norm:
        support.append(_select(residuals, dicts, support))
        atoms = _support_atoms(dicts, support)
        amplitudes = _joint_refit(matrices, atoms, support)
        residuals = [y - a @ (amplitudes[:, None] * b.T)
                     for y, (a, b) in zip(matrices, atoms)]
        history.append(float(sum(np.linalg.norm(r) ** 2 for r in residuals)))
        res_norm = float(sum(np.linalg.norm(r) for r in residuals))
    cells = np.array(support, dtype=int).reshape(-1, 2)
    return SparseEstimate(support=tuple(support), amplitudes=amplitudes,
                          ranges_m=dicts.range_grid.ranges_m[cells[:, 0]],
                          sin_doas=dicts.azi_grid.values[cells[:, 1]],
                          residual_norm=res_norm, signal_norm=signal_norm,
                          residual_history=tuple(history))


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
