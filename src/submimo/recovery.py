"""Range/azimuth atoms and simultaneous matrix orthogonal matching pursuit.

The coefficient matrices factor as Y^m = A^m X (B^m)^T with a shared sparse
X: column n of A^m is the phase signature of a delay cell on channel m's
selected bins, column p of B^m the spatial signature of a sine-DoA cell on
that transmitter's virtual elements. The solver works on the channels'
K x Q matrices side by side (K x MQ). It greedily selects the grid pair
maximizing the summed per-channel correlation energy, then grows the
joint least-squares refit of the selected amplitudes across channels by
that one cell: an atom, a Gram row and a right-hand-side entry, with the
new Schur pivot as its rank test, and borders the Gram's inverse by it.
The residual's energies come from the refit's Gram matrices (as in
Batch-OMP) and its bound and scored maps from the coefficients'
transforms, updated by the support; the K x MQ residual is formed only
where a fit is within rounding of exact.
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

# score cells per row block: 256 KB of scores
_SCORE_BLOCK_CELLS = 1 << 15
# rows scored first; the exact stop test is met after a few to a few dozen
# rows in bound order
_FIRST_ROWS = 16
# cells the support's buffers hold before they first double (fewer when a
# call selects fewer): a 10-target call never doubles them
_START_CELLS = 16
# the scan's slack, as a share of the values its bound rounds against
_SLACK = 1e-9
# an updated bound is kept while its largest row exceeds this many slacks
# of its terms, 1e-6 of them: it then rounds at under 1e-10 of itself and
# its slack is under a thousandth of it, so the scan prunes as on the
# residual's own bound. Below (a residual under a millionth of the
# coefficients, as after a noiseless fit) the update is mostly rounding
# and would leave every row open; the state transforms the residual itself
_KEEP_UPDATE_SLACKS = 1e3
# a channel's expanded residual energy is kept while it exceeds this share
# of its terms: it then rounds at under 1e-12 of itself, near the explicit
# norm's own rounding. Below (a residual under about a thousandth of the
# coefficients, as after a noiseless fit), the refit forms the residual
_KEEP_ENERGY = 1e-3
_EPS = np.finfo(float).eps


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
    """Per-transmitter azimuth atoms (M x Q x N_theta) and the range atoms' grids.

    Channel m is transmitter m; `azimuth_atoms[m]` holds its Q x N_theta
    atoms. Range atom n of transmitter m is
    exp(-2j*pi*(k + m*N)*n / C) over the selected bins k (N bins per
    channel, C uniform range cells); it is applied by FFT or partial DFT
    and never stored. The solver's tables that depend only on these (the
    underscored properties) are built on first use and kept, read-only.
    The pair scores need atoms that factor as b_mqp = t_mp r_qp with
    |t_mp| = 1, a transmitter phase times a receive steering, as
    `build_dictionaries`' exp(i*pi*(xi_m + zeta_q)*u_p) do; `_pair_table`
    checks it.
    """

    azimuth_atoms: np.ndarray
    bins: BinSet
    range_grid: RangeGrid
    azi_grid: AzimuthGrid

    @functools.cached_property
    def _bin_array(self) -> np.ndarray:
        """The selected bins k."""
        return _read_only(self.bins.as_array)

    @functools.cached_property
    def _conj_roots(self) -> np.ndarray:
        """exp(2j*pi*j/C) for j < C, as the conjugates of exp(-2j*pi*j/C),
        indexed by an integer phase mod C."""
        c = len(self.range_grid)
        return _read_only(np.exp(-2j * np.pi * np.arange(c) / c).conj())

    @functools.cached_property
    def _scatter(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Layer j's (rows, picks): the j-th bin, in bin order, of each row
        k mod C onto which more than j bins fold, and those bins' positions."""
        folded = self._bin_array % len(self.range_grid)
        # a bin's layer is the count of earlier bins on its row
        order = np.argsort(folded, kind="stable")
        layer = np.empty_like(order)
        layer[order] = np.arange(len(order)) - np.searchsorted(folded[order], folded[order])
        picks = [np.flatnonzero(layer == j) for j in range(layer.max() + 1)]
        return tuple((_read_only(folded[p]), _read_only(p)) for p in picks)

    @functools.cached_property
    def _kernel(self) -> np.ndarray:
        """kappa(n) = a_n^H a_0 for every range cell n: the map of atom 0.

        a_n^H a_j = kappa((n - n_j) mod C), so the residual states take the
        support's part of a row's map from it, K[n, j] = kappa((n - n_j) mod C),
        not from the support's atoms; one C-point inverse FFT, on the first
        selection that needs it.
        """
        return _read_only(_range_maps(np.ones((len(self.bins), 1)), self)[:, 0])

    @functools.cached_property
    def _weight(self) -> float:
        """w = max_{m,p} ||b_mp||^2, the row weight (Q for unit-modulus atoms)."""
        return np.max(np.sum(np.abs(self.azimuth_atoms) ** 2, axis=1))

    @functools.cached_property
    def _pair_table(self) -> np.ndarray:
        """The Q^2 x P real table of the pair scores (`_pair_scores`).

        W[q, q', p] = b_mqp b_mq'p^* is the same on every channel m, as the
        transmitter phase cancels; its rows are |b_0qp|^2, then 2 Re W and
        -2 Im W over q < q' (`_hermitian_features`' order). Raises
        ValidationError when some channel's products differ from channel
        0's by more than 1e-9 of the largest |b_mqp|^2: atoms that do not
        factor would be scored wrong.
        """
        atoms = self.azimuth_atoms
        b, q = atoms[0], atoms.shape[1]
        half = q * (q - 1) // 2
        table = np.empty((q + 2 * half, atoms.shape[2]))
        table[:q] = b.real ** 2 + b.imag ** 2
        tol = 1e-9 * np.max(np.abs(atoms)) ** 2
        row = q
        # one row i of products b_i b_j^*, j >= i, at a time: small temporaries
        for i in range(q):
            w = b[i] * b[i:].conj()
            table[row:row + q - 1 - i] = 2 * w[1:].real
            table[row + half:row + half + q - 1 - i] = -2 * w[1:].imag
            row += q - 1 - i
            for m, bm in enumerate(atoms[1:], 1):
                if np.max(np.abs(bm[i] * bm[i:].conj() - w)) > tol:
                    raise ValidationError(f"azimuth atoms of channel {m} do not factor as a "
                                          f"transmitter phase times channel 0's atoms")
        return _read_only(table)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _doubled(buffer: np.ndarray, axes=(0,)) -> np.ndarray:
    """`buffer` with its length doubled along `axes`, zero-filled past its entries."""
    shape = [n * 2 if axis in axes else n for axis, n in enumerate(buffer.shape)]
    grown = np.zeros(shape, dtype=buffer.dtype)
    grown[tuple(slice(n) for n in buffer.shape)] = buffer
    return grown


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
    azimuth_atoms = np.empty((plan.num_tx, array.num_rx, len(azi_grid)), dtype=complex)
    for m, atoms in enumerate(azimuth_atoms):  # a channel at a time: no M-fold temporaries
        np.exp(2j * np.pi * np.outer(virtual_positions(array, m), azi_grid.values), out=atoms)
    return DictionarySet(azimuth_atoms=azimuth_atoms, bins=subband_bins(plan),
                         range_grid=RangeGrid.from_cells(plan.pri, range_cells),
                         azi_grid=azi_grid)


def _range_maps(stacked, dicts: DictionarySet) -> np.ndarray:
    """The C x MQ map a_n^H R of every range cell n, a_n(k) = exp(-2j*pi*k*n/C).

    `stacked` holds the channels' K x Q residuals side by side. That is
    C * ifft of R scattered to rows k mod C, where colliding bins add in
    bin order, as `np.add.at` adds them: one layer of distinct rows at a
    time (`DictionarySet._scatter`). Channel m's range atom is
    phi_m(n) a_n (`_cell_atoms`); the unit row phase cancels in every
    score and bound, so no map carries it.
    """
    scattered = np.zeros((len(dicts.range_grid), stacked.shape[1]), dtype=complex)
    for rows, picks in dicts._scatter:
        scattered[rows] += stacked[picks]
    return len(dicts.range_grid) * np.fft.ifft(scattered, axis=0)


def _partial_dft(rows, dicts: DictionarySet) -> np.ndarray:
    """The rows x K table exp(2j*pi*k*n/C) of the given range rows n."""
    phase = np.multiply.outer(rows, dicts._bin_array)
    phase %= len(dicts.range_grid)
    return dicts._conj_roots[phase]


def _block_maps(stacked, dicts: DictionarySet, rows) -> np.ndarray:
    """The given rows of `_range_maps`, as a partial DFT: one GEMM of the
    rows' `_partial_dft` table against `stacked`."""
    return _partial_dft(rows, dicts) @ stacked


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT takes fast."""
    while True:
        m = n
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        if m == 1:
            return n
        n += 1


def _power_spectrum(stacked, channels: int, offsets, length) -> np.ndarray:
    """sum_c |F r_c|^2 at the `length` frequencies of F.

    F r is the FFT of a column r_c of `stacked` (the channels' K x Q
    matrices side by side), placed at `offsets` (its bins' k - min(k)),
    zero elsewhere; the result is `length` floats.
    """
    power = 0.0
    # per channel, so the spectra stay in cache: each is placed into one
    # buffer, zero off `offsets` throughout, and transformed into another
    placed = np.zeros((stacked.shape[1] // channels, length), dtype=complex)
    spec = np.empty_like(placed)
    pairs = spec.view(float)
    for r in np.hsplit(stacked, channels):
        placed[:, offsets] = r.T
        np.fft.fft(placed, out=spec)
        power = power + np.einsum("ij,ij->j", pairs, pairs)
    # power interleaves the re^2 and im^2 sums
    return power[0::2] + power[1::2]


def _fold_bound(power, span: int, c: int) -> np.ndarray:
    """||g(n)||^2 for every range cell n, from a power spectrum.

    g(n) is row n of `_range_maps`: ||g(n)||^2 = sum over lags d of
    a(d) exp(2j*pi*d*n/C), with a(d) = sum_c sum_k r(k + d, c) r(k, c)^*
    over the stacked columns c. Lags reach only |d| < span, the span of the
    selected bins, and do not move when the bins shift; so the inverse FFT
    of `power` (`_power_spectrum` at a length >= 2*span - 1) gives a
    without wrap. On a grid of C > 2N >= 2*span cells the lags do not fold,
    and a C-point Hermitian transform reads only the lags 0 <= d < span.
    """
    lags = np.fft.ifft(power)  # lag d sits at index d mod length
    half = np.zeros(c // 2 + 1, dtype=complex)
    half[:span] = lags[:span]
    return c * np.fft.irfft(half, n=c)


class _MapState:
    """The range maps of a trial's residuals, on a grid of C <= 2N cells.

    The coefficients' maps G(Y) (`_range_maps`) are transformed once. Since
    a_n^H a_n' = kappa((n - n') mod C), with kappa the map of atom 0 (all
    ones), and the residual is Y - sum_j x_j a_j d_j^T (the refit's
    factors), its maps are G(R) = G(Y) - K[:, S] (x d_S), with
    K[n, j] = kappa(n - n_j): one C x s by s x MQ product, no scatter and
    no inverse FFT, written into one buffer per call. The support grows as
    matrix OMP selects, and each cell adds its column of K once (kappa is
    the dictionaries' `_kernel`). The update rounds at the scale of its
    terms, about 1e-16 of
    |G(Y)| + K sum_j |x_j| per entry (|kappa| <= K, the bin count; unit
    azimuth atoms), so its bound rounds at about 1e-16 of
    w MQ (max |G(Y)| + K sum_j |x_j|)^2. While the updated bound's largest
    row exceeds _KEEP_UPDATE_SLACKS slacks of that, the update is kept;
    below (a noiseless fit), the maps are taken from the residual the refit
    forms (`_Refit.residual`, then `_range_maps`), so later selections
    follow the residual, not the update's rounding. The scan reads the bound and the scores from the
    same maps, so its slack need only cover their rounding against each
    other: _SLACK of the largest bound.
    """

    def __init__(self, refit, dicts: DictionarySet, cells: int = _START_CELLS):
        self.refit, self.dicts, self.weight = refit, dicts, dicts._weight
        self.maps = _range_maps(refit.stacked, dicts)
        self.peak, self.bins = np.abs(self.maps).max(), len(dicts.bins)
        self.bound = self._bound(self.maps)
        self.top = self.bound.max()
        # the support's kernel columns K[:, j], in a buffer that doubles when full
        self.columns, self.size = np.zeros((len(self.maps), cells), dtype=complex), 0

    def _bound(self, maps) -> np.ndarray:
        return self.weight * np.einsum("ij,ij->i", maps.view(float), maps.view(float))

    def residual(self, support, amplitudes):
        """The residual's row bound, block-map source (rows -> maps) and slack
        at the support's `amplitudes`."""
        if not support:
            return self.bound, self.maps.__getitem__, _SLACK * self.top
        s = len(support)
        while self.columns.shape[1] < s:
            self.columns = _doubled(self.columns, axes=(1,))
        kernel = self.dicts._kernel
        c = len(kernel)
        for j in range(self.size, s):  # K[n, j] = kappa((n - n_j) mod C)
            n = support[j][0]
            self.columns[:n, j], self.columns[n:, j] = kernel[c - n:], kernel[:c - n]
        self.size = s
        maps = self.columns[:, :s] @ (amplitudes[:, None] * self.refit.d[:s])
        np.subtract(self.maps, maps, out=maps)
        bound = self._bound(maps)
        top = np.maximum.reduce(bound)
        fit = self.bins * np.add.reduce(np.abs(amplitudes))
        terms = self.weight * maps.shape[1] * (self.peak + fit) ** 2
        if top < _KEEP_UPDATE_SLACKS * _SLACK * terms:
            maps = _range_maps(self.refit.residual(amplitudes), self.dicts)
            bound = self._bound(maps)
            top = np.maximum.reduce(bound)
        return bound, maps.__getitem__, _SLACK * top


class _LagState:
    """The row bound of a trial's residuals, on a grid of C > 2N cells.

    The bins sit at k - min(k) in FFTs F of the smallest 5-smooth length
    >= 2*span - 1. The coefficients' power spectrum P_Y is transformed once
    (M*Q FFTs). The residual is Y - sum_j x_j a_j d_j^T (the refit's
    factors); so with S_j = F a_j and V_j = F (Y d_j^*),
    P = P_Y - 2 Re sum_j x_j S_j V_j^* + sum_{j,l} S_j Gamma_jl S_l^*,
    Gamma_jl = x_j x_l^* (d_j . d_l^*), and the bound is w times its fold.
    A selected cell costs two FFTs, once. A scored block's maps are
    T Y - K[rows, S] (x d_S), as `_MapState`'s: T Y the coefficients' maps
    of the block's rows (their partial DFT, `_block_maps`) and K the
    dictionaries' `_kernel` at the rows' lags to the support, one
    rows x s by s x MQ product; no residual and no table of the whole grid.
    A row's T Y is formed once per call and kept, as the scans keep
    returning to the same rows: a block's new rows are kept while the
    cache then holds at most _FIRST_ROWS rows per selection (or per first
    cell of the support's buffers, if more), which a scan's head always
    fits; a block past that, as when a scan opens most of the grid, is
    scored and dropped, so no C x MQ table is kept. The bound
    must not fall below the scores by more than the slack. The terms
    cancel, however small the residual: the bound rounds at about 1e-16 of
    the largest term, at most the coefficients' largest bound plus
    w K^2 sum_jl |Gamma_jl| (|S_j| <= K, the bin count; the cross term is
    bounded by the other two), and the maps at about 1e-16 of
    |T Y| + K sum_j |x_j|, far inside it. The slack is _SLACK of that sum,
    within a small factor of _SLACK of the coefficients' largest bound for
    a well-conditioned support. It would open every row once the
    residual's bound falls below it, as a noiseless fit's does; below
    _KEEP_UPDATE_SLACKS slacks the bound is taken from the spectrum of the
    residual the refit forms (M*Q FFTs) and the block maps from that
    residual (`_block_maps`), with _SLACK of its largest row as the slack.
    """

    def __init__(self, refit, dicts: DictionarySet, cells: int = _START_CELLS):
        self.refit, self.dicts, self.weight = refit, dicts, dicts._weight
        self.offsets = dicts._bin_array - min(dicts.bins.indices)
        self.span = int(self.offsets.max()) + 1
        self.cells, self.bins = len(dicts.range_grid), len(dicts.bins)
        length = _smooth_length(2 * self.span - 1)
        self.power = _power_spectrum(refit.stacked, len(dicts.azimuth_atoms), self.offsets,
                                     length)
        self.bound = self._fold(self.power)
        self.top = self.bound.max()
        # S_j and S_j V_j^* of the support's cells and their range cells n_j,
        # in buffers that double when full
        self.spectra, self.cross = (np.zeros((cells, length), dtype=complex) for _ in range(2))
        self.ranges, self.size = np.zeros(cells, dtype=int), 0
        # the kept T Y rows, row n's at slots[n] (-1 when not kept), in a
        # buffer of _FIRST_ROWS rows per first cell that doubles when a scan
        # may keep more
        self.slots, self.reserve = np.full(self.cells, -1), _FIRST_ROWS * cells
        self.kept = np.empty((self.reserve, refit.stacked.shape[1]), dtype=complex)
        self.held = 0

    def _fold(self, power) -> np.ndarray:
        return self.weight * _fold_bound(power, self.span, self.cells)

    def _add_cell(self, j: int, n: int) -> None:
        if j == len(self.spectra):
            self.spectra, self.cross = _doubled(self.spectra), _doubled(self.cross)
            self.ranges = _doubled(self.ranges)
        a, d = self.refit.a[j], self.refit.d[j]
        pair = np.zeros((2, self.spectra.shape[1]), dtype=complex)
        pair[0, self.offsets], pair[1, self.offsets] = a, self.refit.stacked @ d.conj()
        s, v = np.fft.fft(pair, out=pair)
        self.spectra[j], self.ranges[j] = s, n
        np.multiply(s, v.conj(), out=self.cross[j])

    def _scan_maps(self, z):
        """rows -> T Y - K[rows, S] z for a support of len(z) cells. A block's
        new T Y rows are kept when the cache then holds at most _FIRST_ROWS
        rows per selection, this scan's included, or per first cell of the
        support buffers if more; a head's always are."""
        budget = max(_FIRST_ROWS * (len(z) + 1), self.reserve)
        kernel = self.dicts._kernel if len(z) else None

        def block_maps(rows):
            slots = self.slots[rows]
            maps = self.kept[slots]  # rows not kept are written below
            new = (slots < 0).nonzero()[0]
            if len(new):
                maps[new] = _block_maps(self.refit.stacked, self.dicts, rows[new])
                end = self.held + len(new)
                if end <= budget:
                    while end > len(self.kept):
                        self.kept = _doubled(self.kept)
                    self.kept[self.held:end] = maps[new]
                    self.slots[rows[new]] = np.arange(self.held, end)
                    self.held = end
            if kernel is not None:
                lags = np.subtract.outer(rows, self.ranges[:len(z)])
                lags %= self.cells
                maps -= kernel[lags] @ z
            return maps

        return block_maps

    def residual(self, support, amplitudes):
        """As `_MapState.residual`."""
        s = len(support)
        for j in range(self.size, s):
            self._add_cell(j, support[j][0])
        self.size = s
        if not support:
            return self.bound, self._scan_maps(amplitudes[:, None]), _SLACK * self.top
        d, spectra = self.refit.d[:s], self.spectra[:s]
        gamma = (amplitudes[:, None] * amplitudes.conj()) * (d @ d.conj().T)
        # sum_l Re(S_l^* (Gamma^T S)_l): the re*re + im*im pairs, in place
        quad = (gamma.T @ spectra).view(float)
        quad *= spectra.view(float)
        quad = np.add.reduce(quad)
        bound = self._fold(self.power - 2 * (amplitudes @ self.cross[:s]).real
                           + (quad[0::2] + quad[1::2]))
        slack = _SLACK * (self.top
                          + self.weight * self.bins ** 2 * np.add.reduce(np.abs(gamma), axis=None))
        if np.maximum.reduce(bound) < _KEEP_UPDATE_SLACKS * slack:
            # a residual below a millionth of the terms (a noiseless fit): the
            # expansion cannot resolve its bound or its maps, its own transforms can
            residual = self.refit.residual(amplitudes)
            bound = self._fold(_power_spectrum(residual, len(self.dicts.azimuth_atoms),
                                               self.offsets, len(self.power)))
            return (bound, functools.partial(_block_maps, residual, self.dicts),
                    _SLACK * np.maximum.reduce(bound))
        return bound, self._scan_maps(amplitudes[:, None] * d), slack


def _residual_state(refit, dicts: DictionarySet, cells: int = _START_CELLS):
    """The state a trial's selections read the residual's bound and maps from.

    `_MapState` on a grid of C <= 2N cells, `_LagState` on a wider one.
    Both hold the coefficients' row bound as `bound`, read the coefficients
    and the support's cell factors a_j, d_j from `refit` (a `_Refit`), and
    ask it for the residual (`_Refit.residual`) only when their updates
    cannot resolve it. Both weigh their rows by the dictionaries'
    w = max_{m,p} ||b_mp||^2 (Q for unit-modulus atoms). Their support
    buffers start at `cells` cells.
    """
    wide = len(dicts.range_grid) > 2 * dicts.bins.per_channel_bins
    return (_LagState if wide else _MapState)(refit, dicts, cells)


@functools.cache
def _hermitian_features(q: int) -> np.ndarray:
    """Where a Q x Q complex matrix's float view (Q * 2Q floats a row) holds
    its real diagonal, then the real and the imaginary parts of its
    entries q < q': the order of `DictionarySet._pair_table`'s rows."""
    upper = np.ravel_multi_index(np.triu_indices(q, 1), (q, q))
    return _read_only(np.concatenate([2 * np.arange(q) * (q + 1), 2 * upper, 2 * upper + 1]))


def _pair_scores(maps, dicts: DictionarySet) -> np.ndarray:
    """S(n, p) = sum over channels of |a_{m,n}^H R_m b_mp^*|^2 for the rows n
    of the stacked range maps `maps` (rows x MQ, `_range_maps` rows).

    With H the row's M x Q maps, S(n, p) = sum_m |h_m^H b_mp|^2 =
    sum_{q,q'} A_n[q, q'] W[q, q', p], A_n = H^H H: the transmitter phase
    of b_mqp = t_mp r_qp cancels, so W = b_mqp b_mq'p^* is channel 0's on
    every channel. A_n is Hermitian, so its real diagonal and the real and
    imaginary parts of its upper entries take one real (rows, Q^2) @
    (Q^2, P) product with `DictionarySet._pair_table`; no M-fold product.
    """
    channels, q = dicts.azimuth_atoms.shape[:2]
    h = maps.reshape(len(maps), channels, q)
    gram = h.conj().transpose(0, 2, 1) @ h
    features = gram.view(float).reshape(len(maps), -1)[:, _hermitian_features(q)]
    return features @ dicts._pair_table


def _select(bound, block_maps, slack: float, dicts: DictionarySet,
            support) -> tuple[int, int]:
    """Exact argmax of S over the cells not in `support`, scanned in row blocks.

    `bound` holds every range row's Cauchy-Schwarz bound
    w ||g(n)||^2 >= S(n, p), w = max_{m,p} ||b_mp||^2, and
    `block_maps(rows)` the rows' stacked maps g(n), ascending rows in. First
    the _FIRST_ROWS rows of largest bound, found by partition, are scored,
    and the scan ends there when the largest bound outside them plus
    `slack` cannot reach the best score; otherwise every other row whose
    bound plus `slack` can still reach the best score is sorted by
    descending bound and scanned in blocks of _SCORE_BLOCK_CELLS cells,
    stopping at the first block whose top bound plus `slack`
    cannot beat the best score found. A grid of at most _FIRST_ROWS rows is
    all head. `slack` must cover the bound's rounding error.
    Within a block, equal scores resolve to the smallest (range, azimuth)
    cell; across blocks too, but only for scores equal in floating point.
    """
    c, n_azi = len(bound), dicts.azimuth_atoms.shape[2]
    rows = max(1, _SCORE_BLOCK_CELLS // n_azi)
    ns, ps = np.array(support, dtype=int).reshape(-1, 2).T
    best, cell = -np.inf, (0, 0)

    def scan(block):
        # `block` holds rows ascending, so the argmax breaks ties row-major
        nonlocal best, cell
        score = _pair_scores(block_maps(block), dicts)
        j = np.minimum(block.searchsorted(ns), len(block) - 1)
        hit = block[j] == ns  # a pair may only be selected once
        score[j[hit], ps[hit]] = -np.inf
        i = int(score.argmax())
        top, at = score.flat[i], (int(block[i // n_azi]), i % n_azi)
        if top > best or (top == best and at < cell):
            best, cell = top, at

    first = min(_FIRST_ROWS, rows, c)
    # partitioned at the largest bound outside the head, which ends most scans
    part = bound.argpartition(c - first - 1)
    edge, head = bound[part[c - first - 1]], part[c - first:]
    head.sort()
    scan(head)
    if edge + slack < best:
        return cell
    open_rows = bound + slack >= best
    open_rows[head] = False
    candidates = open_rows.nonzero()[0]
    order = candidates[(-bound[candidates]).argsort(kind="stable")]
    for lo in range(0, len(order), rows):
        block = order[lo:lo + rows]
        if bound[block[0]] + slack < best:
            break
        block.sort()  # in place: later blocks are other slices of `order`
        scan(block)
    return cell


def _cell_atoms(dicts: DictionarySet):
    """(n, p) -> the factors a_n, d of cell (n, p)'s atom a_n d^T on the
    channels' K x Q matrices side by side: a_n(k) = exp(-2j*pi*k*n/C) and
    d stacks phi_m(n) b_{m,p} over the channels, since channel m's range
    atom is phi_m(n) a_n with the phase phi_m(n) = exp(-2j*pi*m*N*n/C).
    This is the only place the channel phase is taken."""
    c, k, atoms = len(dicts.range_grid), dicts._bin_array, dicts.azimuth_atoms
    conj_roots = dicts._conj_roots  # indexed by the integer phase mod C
    shift = np.repeat(np.arange(len(atoms)) * dicts.bins.per_channel_bins, atoms.shape[1])
    return lambda n, p: (conj_roots[k * n % c].conj(),
                         conj_roots[shift * n % c].conj() * atoms[:, :, p].ravel())


class _Refit:
    """The support's joint least-squares fit, grown by one cell per selection.

    Cell s appends its factors a_s, d_s (`_cell_atoms`), its correlation
    row c_s = a_s^H Y, the range-atom Gram row H[s, l] = a_s^H a_l, the
    Gram row H[s, l] (d_s^H d_l) and the right-hand side c_s d_s^* to
    buffers of `cells` cells that double when full. Its Schur pivot g_ss - g^H u,
    u = G^-1 g, is 0 when it depends on the support; a pivot within
    rounding of the terms it cancels, (s + 1) eps tr(G) (1 + u^H u), raises
    NumericalError. Otherwise the same u borders the kept inverse Gram,
    [[G^-1 + u u^H / pivot, -u / pivot], [-u^H / pivot, 1 / pivot]]
    (as Batch-OMP grows its factor), so no s x s system is solved. The
    residual states read the coefficients `stacked` and the rows of `a`
    and `d`, so a cell's factors are built once, and take the residual
    itself from `residual` when they need it.
    """

    def __init__(self, stacked, dicts: DictionarySet, cells: int = _START_CELLS):
        self.stacked, self.atoms, self.size = stacked, _cell_atoms(dicts), 0
        self.channels = len(dicts.azimuth_atoms)
        self.signal = self._channel_energies(stacked)  # ||Y_m||^2
        self.norms = np.sqrt(self.signal)
        # ||a_j|| ||d_jm|| <= sqrt(K w): K bins, w the dictionaries' row weight
        self.atom_norm = np.sqrt(len(dicts.bins) * dicts._weight)
        self.a, self.d, self.c = (np.zeros((cells, n), complex) for n in (
            len(dicts.bins), stacked.shape[1], stacked.shape[1]))
        self.gram, self.h, self.inverse = (np.zeros((cells, cells), complex) for _ in range(3))
        self.rhs = np.zeros(cells, complex)

    def _channel_energies(self, stacked) -> np.ndarray:
        """Each channel's squared Frobenius norm of a stacked K x MQ array."""
        parts = stacked.view(float).reshape(len(stacked), self.channels, -1)
        return np.einsum("kmq,kmq->m", parts, parts)

    def add(self, n: int, p: int) -> None:
        s = self.size
        if s == len(self.rhs):
            self.a, self.d, self.c = _doubled(self.a), _doubled(self.d), _doubled(self.c)
            self.rhs = _doubled(self.rhs)
            self.gram, self.h, self.inverse = (_doubled(g, axes=(0, 1))
                                               for g in (self.gram, self.h, self.inverse))
        self.a[s], self.d[s] = self.atoms(n, p)
        ac, dc = self.a[s].conj(), self.d[s].conj()
        ranges = self.a[:s + 1] @ ac
        self.h[s, :s + 1], self.h[:s, s] = ranges, ranges[:s].conj()
        row = ranges * (self.d[:s + 1] @ dc)
        self.gram[s, :s + 1], self.gram[:s, s] = row, row[:s].conj()
        self.c[s] = ac @ self.stacked
        self.rhs[s] = self.c[s] @ dc
        # u from the kept inverse, refined once against G: unrefined, its
        # rounding compounds through the bordered inverse, and a dependent
        # cell's pivot can rise above its rounding bound. g = G[:s, s] is
        # the conjugate of row[:s], so g^H u = row[:s] @ u
        inverse, g = self.inverse[:s, :s], self.gram[:s, s]
        u = inverse @ g
        u += inverse @ (g - self.gram[:s, :s] @ u)
        uc = u.conj()
        pivot, terms = row[s].real - (row[:s] @ u).real, 1 + (uc @ u).real
        if pivot <= (s + 1) * _EPS * self.gram.trace().real * terms:
            raise NumericalError(f"degenerate support: cell (range {n}, azimuth {p}) is "
                                 f"linearly dependent on the already selected cells")
        u /= pivot
        self.inverse[:s, :s] += u[:, None] * uc
        self.inverse[:s, s], self.inverse[s, :s] = -u, -uc / pivot
        self.inverse[s, s] = 1 / pivot
        self.size = s + 1

    def fit(self):
        """The amplitudes x and each channel's squared residual norm.

        With Z = x d_S (s x MQ), channel m's energy is ||Y_m||^2 +
        sum_{q in m} Re sum_j conj(z_jq) ((H Z)_jq - 2 c_jq): one s x s by
        s x MQ product, no residual. It rounds at about 1e-16 of its terms,
        at most (||Y_m|| + sqrt(K w) sum_j |x_j|)^2, since each atom's
        channel-m part a_j d_jm^T has norm at most sqrt(K w) (K bins, w the
        row weight); when some channel's energy falls below _KEEP_ENERGY of
        its terms (a noiseless fit), every channel's is taken from the
        residual.
        """
        s = self.size
        x = self.inverse[:s, :s] @ self.rhs[:s]
        z = x[:, None] * self.d[:s]
        hz = self.h[:s, :s] @ z
        hz -= 2 * self.c[:s]
        zf = z.view(float).reshape(s, self.channels, -1)
        energies = self.signal + np.einsum("jmq,jmq->m", zf, hz.view(float).reshape(zf.shape))
        terms = (self.norms + self.atom_norm * np.add.reduce(np.abs(x))) ** 2
        if np.logical_or.reduce(energies < _KEEP_ENERGY * terms):
            energies = self._channel_energies(self.residual(x))
        return x, energies

    def residual(self, x) -> np.ndarray:
        """The stacked residual Y - A_S^T (x d_S) of the first len(x) cells
        at amplitudes x, formed in one buffer."""
        s = len(x)
        residual = self.a[:s].T @ (x[:, None] * self.d[:s])
        return np.subtract(self.stacked, residual, out=residual)


def matrix_omp(coefficients: CoefficientSet, dicts: DictionarySet,
               max_targets: int | None = None) -> SparseEstimate:
    """Greedy simultaneous sparse recovery over all channels.

    Per iteration: add the best-scoring grid pair on the current residuals
    (`_select`'s exact, bound-pruned scan, on the state `_residual_state`
    updates from the coefficients transformed once per call), grow the
    joint least-squares refit across channels by that cell (`_Refit`: one
    atom, one Gram row and one right-hand-side entry; a dependent cell's
    Schur pivot raises NumericalError; the amplitudes are one product with
    the bordered inverse Gram), and take every channel's residual
    energy from the refit's Gram matrices, one s x s by s x MQ product;
    the residual itself is formed only past a fit within rounding of
    exact (`_Refit.fit`, `_residual_state`). Scores equal in floating point resolve to the smallest
    range cell, then the smallest azimuth cell; scores equal only in exact
    arithmetic may round apart and resolve to any of the tied cells. Stops
    after min(`max_targets`, C*P, sum_m K*Q) selections, or, when no target
    count is given, once the summed relative residual drops to
    DEFAULT_RESIDUAL_TOL.
    """
    matrices = coefficients.matrices
    channels, k, receivers = matrices.shape
    if (channels, receivers) != dicts.azimuth_atoms.shape[:2]:
        raise ValidationError("coefficients and dictionaries cover different channels "
                              "or receivers")
    if coefficients.bins != dicts.bins:
        raise ValidationError("coefficients and dictionaries cover different bins")
    if not np.isfinite(matrices).all():
        raise ValidationError("coefficients hold non-finite values")
    if max_targets is not None and max_targets < 1:
        raise ValidationError("max_targets must be at least 1")
    tol = DEFAULT_RESIDUAL_TOL if max_targets is None else 0.0
    cap = min(max_targets or np.inf, len(dicts.range_grid) * len(dicts.azi_grid),
              matrices.size)
    cells = min(cap, _START_CELLS)
    refit = _Refit(matrices.transpose(1, 0, 2).reshape(k, -1), dicts, cells)
    signal_norm = res_norm = float(np.add.reduce(refit.norms))
    state = _residual_state(refit, dicts, cells)
    support: list[tuple[int, int]] = []
    amplitudes, history = np.zeros(0, dtype=complex), []
    while len(support) < cap and res_norm > tol * signal_norm:
        support.append(_select(*state.residual(support, amplitudes), dicts, support))
        refit.add(*support[-1])
        amplitudes, energies = refit.fit()
        history.append(float(np.add.reduce(energies)))
        res_norm = float(np.add.reduce(np.sqrt(energies)))
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
