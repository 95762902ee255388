"""Range/azimuth atoms and simultaneous matrix orthogonal matching pursuit.

The coefficient matrices factor as Y^m = A^m X (B^m)^T with a shared sparse
X: column n of A^m is the phase signature of a delay cell on channel m's
selected bins, column p of B^m the spatial signature of a sine-DoA cell on
that transmitter's virtual elements. The solver works on the channels'
K x Q matrices side by side (K x MQ). It greedily selects the grid pair
maximizing the summed per-channel correlation energy, then grows the
joint least-squares refit of the selected amplitudes across channels by
that one cell: an atom, a Gram row and a right-hand-side entry, with the
new Schur pivot as its rank test.
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
# the scan's slack, as a share of the values its bound rounds against
_SLACK = 1e-9
# an updated bound is kept while its largest row exceeds this many slacks
# of its terms, 1e-6 of them: it then rounds at under 1e-10 of itself and
# its slack is under a thousandth of it, so the scan prunes as on the
# residual's own bound. Below (a residual under a millionth of the
# coefficients, as after a noiseless fit) the update is mostly rounding
# and would leave every row open; the state transforms the residual itself
_KEEP_UPDATE_SLACKS = 1e3


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
    and never stored.
    """

    azimuth_atoms: np.ndarray
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
    azimuth_atoms = np.empty((plan.num_tx, array.num_rx, len(azi_grid)), dtype=complex)
    for m, atoms in enumerate(azimuth_atoms):  # a channel at a time: no M-fold temporaries
        np.exp(2j * np.pi * np.outer(virtual_positions(array, m), azi_grid.values), out=atoms)
    return DictionarySet(azimuth_atoms=azimuth_atoms, bins=subband_bins(plan),
                         range_grid=RangeGrid.from_cells(plan.pri, range_cells),
                         azi_grid=azi_grid)


def _range_maps(stacked, dicts: DictionarySet) -> np.ndarray:
    """The C x MQ map a_n^H R of every range cell n, a_n(k) = exp(-2j*pi*k*n/C).

    `stacked` holds the channels' K x Q residuals side by side. That is
    C * ifft of R scattered to rows k mod C (colliding bins add). Channel
    m's range atom is phi_m(n) a_n (`_cell_atoms`); the unit row phase
    cancels in every score and bound, so no map carries it.
    """
    c = len(dicts.range_grid)
    scattered = np.zeros((c, stacked.shape[1]), dtype=complex)
    np.add.at(scattered, dicts.bins.as_array % c, stacked)
    return c * np.fft.ifft(scattered, axis=0)


@functools.lru_cache(maxsize=4)
def _roots_of_unity(c: int) -> np.ndarray:
    """exp(-2j*pi*j/C) for j < C (read-only), indexed by an integer phase mod C."""
    roots = np.exp(-2j * np.pi * np.arange(c) / c)
    roots.flags.writeable = False
    return roots


def _block_maps(stacked, dicts: DictionarySet, rows) -> np.ndarray:
    """The given rows of `_range_maps`, as a partial DFT: one GEMM of the
    rows x K table exp(2j*pi*k*n/C) against `stacked`."""
    c = len(dicts.range_grid)
    phase = np.multiply.outer(rows, dicts.bins.as_array)
    phase %= c
    return _roots_of_unity(c).conj()[phase] @ stacked


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
    for r in np.hsplit(stacked, channels):  # per channel, so the spectra stay in cache
        spec = np.zeros((r.shape[1], length), dtype=complex)
        spec[:, offsets] = r.T
        pairs = np.fft.fft(spec, out=spec).view(float)
        power = power + np.einsum("ij,ij->j", pairs, pairs)
    # power interleaves the re^2 and im^2 sums
    return power.reshape(-1, 2).sum(axis=1)


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
    no inverse FFT. The update rounds at the scale of its terms, about
    1e-16 of |G(Y)| + K sum_j |x_j| per entry (|kappa| <= K, the bin count;
    unit azimuth atoms), so its bound rounds at about 1e-16 of
    w MQ (max |G(Y)| + K sum_j |x_j|)^2. While the updated bound's largest
    row exceeds _KEEP_UPDATE_SLACKS slacks of that, the update is kept;
    below (a noiseless fit), the maps are taken from the residual
    (`_range_maps`), so later selections follow the residual, not the
    update's rounding. The scan reads the bound and the scores from the
    same maps, so its slack need only cover their rounding against each
    other: _SLACK of the largest bound.
    """

    def __init__(self, refit, dicts: DictionarySet, weight: float):
        self.refit, self.dicts, self.weight = refit, dicts, weight
        self.maps = _range_maps(refit.stacked, dicts)
        self.peak = np.abs(self.maps).max()
        self.kernel = _range_maps(np.ones((len(dicts.bins), 1)), dicts)[:, 0]
        self.bound = self._bound(self.maps)

    def _bound(self, maps) -> np.ndarray:
        return self.weight * np.einsum("ij,ij->i", maps.view(float), maps.view(float))

    def residual(self, support, amplitudes, residual):
        """The residual's row bound, block-map source (rows -> maps) and slack."""
        maps, bound = self.maps, self.bound
        if support:
            c = len(self.dicts.range_grid)
            lag = np.subtract.outer(np.arange(c), [n for n, _ in support]) % c
            maps = maps - self.kernel[lag] @ (amplitudes[:, None] * self.refit.d[:len(support)])
            bound = self._bound(maps)
            fit = len(self.dicts.bins) * np.abs(amplitudes).sum()
            terms = self.weight * maps.shape[1] * (self.peak + fit) ** 2
            if bound.max() < _KEEP_UPDATE_SLACKS * _SLACK * terms:
                maps = _range_maps(residual, self.dicts)
                bound = self._bound(maps)
        return bound, lambda block: maps[block], _SLACK * bound.max()


class _LagState:
    """The row bound of a trial's residuals, on a grid of C > 2N cells.

    The bins sit at k - min(k) in FFTs F of the smallest 5-smooth length
    >= 2*span - 1. The coefficients' power spectrum P_Y is transformed once
    (M*Q FFTs). The residual is Y - sum_j x_j a_j d_j^T (the refit's
    factors); so with S_j = F a_j and V_j = F (Y d_j^*),
    P = P_Y - 2 Re sum_j x_j S_j V_j^* + sum_{j,l} S_j Gamma_jl S_l^*,
    Gamma_jl = x_j x_l^* (d_j . d_l^*), and the bound is w times its fold.
    A selected cell costs two FFTs, once. The scored rows' maps still come
    from the residual (`_block_maps`), so the bound must not fall below
    their scores by more than the slack. The terms cancel, however small
    the residual: the bound rounds at about 1e-16 of the largest term, at
    most the coefficients' largest bound plus w K^2 sum_jl |Gamma_jl|
    (|S_j| <= K, the bin count; the cross term is bounded by the other
    two). The slack is _SLACK of that sum, within a small factor of _SLACK
    of the coefficients' largest bound for a well-conditioned support. It
    would open every row once the residual's bound falls below it, as a
    noiseless fit's does; below _KEEP_UPDATE_SLACKS slacks the bound is
    taken from the residual's own spectrum (M*Q FFTs), with _SLACK of its
    largest row as the slack.
    """

    def __init__(self, refit, dicts: DictionarySet, weight: float):
        self.refit, self.dicts, self.weight = refit, dicts, weight
        self.offsets = dicts.bins.as_array - min(dicts.bins.indices)
        self.span = int(self.offsets.max()) + 1
        length = _smooth_length(2 * self.span - 1)
        self.power = _power_spectrum(refit.stacked, len(dicts.azimuth_atoms), self.offsets,
                                     length)
        self.bound = self._fold(self.power)
        self.spectra = self.cross = np.zeros((0, length), dtype=complex)  # S_j, S_j V_j^*

    def _fold(self, power) -> np.ndarray:
        return self.weight * _fold_bound(power, self.span, len(self.dicts.range_grid))

    def _add_cell(self, j: int) -> None:
        a, d = self.refit.a[j], self.refit.d[j]
        pair = np.zeros((2, self.spectra.shape[1]), dtype=complex)
        pair[0, self.offsets], pair[1, self.offsets] = a, self.refit.stacked @ d.conj()
        s, v = np.fft.fft(pair, out=pair)
        self.spectra = np.vstack([self.spectra, s])
        self.cross = np.vstack([self.cross, s * v.conj()])

    def residual(self, support, amplitudes, residual):
        """As `_MapState.residual`; the block maps read `residual` as it is."""
        block_maps = functools.partial(_block_maps, residual, self.dicts)
        if not support:
            return self.bound, block_maps, _SLACK * self.bound.max()
        for j in range(len(self.spectra), len(support)):
            self._add_cell(j)
        d = self.refit.d[:len(support)]
        gamma = np.outer(amplitudes, amplitudes.conj()) * (d @ d.conj().T)
        # sum_l Re(S_l^* (Gamma^T S)_l): the re*re + im*im pairs, in place
        quad = (gamma.T @ self.spectra).view(float)
        quad *= self.spectra.view(float)
        bound = self._fold(self.power - 2 * (amplitudes @ self.cross).real
                           + quad.sum(axis=0).reshape(-1, 2).sum(axis=1))
        slack = _SLACK * (self.bound.max()
                          + self.weight * len(self.dicts.bins) ** 2 * np.abs(gamma).sum())
        if bound.max() < _KEEP_UPDATE_SLACKS * slack:
            # a residual below a millionth of the terms (a noiseless fit): the
            # expansion cannot resolve its bound, its own spectrum can
            bound = self._fold(_power_spectrum(residual, len(self.dicts.azimuth_atoms),
                                               self.offsets, len(self.power)))
            slack = _SLACK * bound.max()
        return bound, block_maps, slack


def _residual_state(refit, dicts: DictionarySet):
    """The state a trial's selections read the residual's bound and maps from.

    `_MapState` on a grid of C <= 2N cells, `_LagState` on a wider one.
    Both hold the coefficients' row bound as `bound`, read the coefficients
    and the support's cell factors a_j, d_j from `refit` (a `_Refit`), and
    take the residual as the refit forms it. The row weight
    w = max_{m,p} ||b_mp||^2 (Q for unit-modulus atoms) is taken once.
    """
    weight = np.max(np.sum(np.abs(dicts.azimuth_atoms) ** 2, axis=1))
    wide = len(dicts.range_grid) > 2 * dicts.bins.per_channel_bins
    return (_LagState if wide else _MapState)(refit, dicts, weight)


def _pair_scores(maps, dicts: DictionarySet) -> np.ndarray:
    """S(n, p) = sum over channels of |a_{m,n}^H R_m b_mp^*|^2 for the rows n
    of the stacked range maps `maps` (rows x MQ, `_range_maps` rows)."""
    score = 0.0
    for h, b in zip(np.hsplit(maps, len(dicts.azimuth_atoms)), dicts.azimuth_atoms):
        g = h @ b.conj()
        score += g.real ** 2 + g.imag ** 2
    return score


def _select(bound, block_maps, slack: float, dicts: DictionarySet,
            support) -> tuple[int, int]:
    """Exact argmax of S over the cells not in `support`, scanned in row blocks.

    `bound` holds every range row's Cauchy-Schwarz bound
    w ||g(n)||^2 >= S(n, p), w = max_{m,p} ||b_mp||^2, and
    `block_maps(rows)` the rows' stacked maps g(n), ascending rows in. First
    the _FIRST_ROWS rows of largest bound, found by partition, are scored;
    then every other row whose bound plus `slack` can still reach the best
    score is sorted by descending bound and scanned in cache-sized blocks,
    stopping at the first block whose top bound plus `slack` cannot beat
    the best score found. `slack` must cover the bound's rounding error.
    Within a block, equal scores resolve to the smallest (range, azimuth)
    cell; across blocks too, but only for scores equal in floating point.
    """
    c, n_azi = len(dicts.range_grid), len(dicts.azi_grid)
    rows = max(1, _SCORE_BLOCK_CELLS // n_azi)
    ns, ps = np.array(support, dtype=int).reshape(-1, 2).T
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


def _cell_atoms(dicts: DictionarySet):
    """(n, p) -> the factors a_n, d of cell (n, p)'s atom a_n d^T on the
    channels' K x Q matrices side by side: a_n(k) = exp(-2j*pi*k*n/C) and
    d stacks phi_m(n) b_{m,p} over the channels, since channel m's range
    atom is phi_m(n) a_n with the phase phi_m(n) = exp(-2j*pi*m*N*n/C).
    This is the only place the channel phase is taken."""
    c, k, atoms = len(dicts.range_grid), dicts.bins.as_array, dicts.azimuth_atoms
    roots = _roots_of_unity(c)  # indexed by the integer phase mod C
    shift = np.repeat(np.arange(len(atoms)) * dicts.bins.per_channel_bins, atoms.shape[1])
    return lambda n, p: (roots[k * n % c], roots[shift * n % c] * atoms[:, :, p].ravel())


class _Refit:
    """The support's joint least-squares fit, grown by one cell per selection.

    Cell s appends its factors a_s, d_s (`_cell_atoms`), the Gram row
    (a_s^H a_l)(d_s^H d_l) and the right-hand side a_s^H Y d_s^* to buffers
    that double when full. Its Schur pivot g_ss - g^H u, u = G^-1 g, is 0
    when it depends on the support; a pivot within rounding of the terms it
    cancels, (s + 1) eps tr(G) (1 + u^H u), raises NumericalError. The
    residual states read the coefficients `stacked` and the rows of `a`
    and `d`, so a cell's factors are built once.
    """

    def __init__(self, stacked, dicts: DictionarySet):
        self.stacked, self.atoms, self.size = stacked, _cell_atoms(dicts), 0
        self.channels = len(dicts.azimuth_atoms)
        self.a, self.d = (np.zeros((8, n), complex) for n in (len(dicts.bins), stacked.shape[1]))
        self.gram, self.rhs = np.zeros((8, 8), complex), np.zeros(8, complex)

    def add(self, n: int, p: int) -> None:
        s = self.size
        if s == len(self.rhs):
            self.a, self.d = np.pad(self.a, ((0, s), (0, 0))), np.pad(self.d, ((0, s), (0, 0)))
            self.gram, self.rhs = np.pad(self.gram, (0, s)), np.pad(self.rhs, (0, s))
        a, d = self.a[s], self.d[s] = self.atoms(n, p)
        row = (self.a[:s + 1] @ a.conj()) * (self.d[:s + 1] @ d.conj())
        self.gram[s, :s + 1], self.gram[:s, s] = row, row[:s].conj()
        self.rhs[s] = (a.conj() @ self.stacked) @ d.conj()
        g = self.gram[:s, s]
        u = np.linalg.solve(self.gram[:s, :s], g)
        pivot, terms = row[s].real - (g.conj() @ u).real, 1 + (u.conj() @ u).real
        if pivot <= (s + 1) * np.finfo(float).eps * self.gram.trace().real * terms:
            raise NumericalError(f"degenerate support: cell (range {n}, azimuth {p}) is "
                                 f"linearly dependent on the already selected cells")
        self.size = s + 1

    def fit(self):
        """The amplitudes, the stacked residual and each channel's squared norm."""
        x = np.linalg.solve(self.gram[:self.size, :self.size], self.rhs[:self.size])
        residual = self.stacked - self.a[:self.size].T @ (x[:, None] * self.d[:self.size])
        parts = residual.view(float).reshape(len(residual), self.channels, -1)
        return x, residual, np.einsum("kmq,kmq->m", parts, parts)


def matrix_omp(coefficients: CoefficientSet, dicts: DictionarySet,
               max_targets: int | None = None) -> SparseEstimate:
    """Greedy simultaneous sparse recovery over all channels.

    Per iteration: add the best-scoring grid pair on the current residuals
    (`_select`'s exact, bound-pruned scan, on the state `_residual_state`
    updates from the coefficients transformed once per call), grow the
    joint least-squares refit across channels by that cell (`_Refit`: one
    atom, one Gram row and one right-hand-side entry; a dependent cell's
    Schur pivot raises NumericalError), and form every channel's residual
    in one product. Scores equal in floating point resolve to the smallest
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
    signal_norm = res_norm = float(sum(np.linalg.norm(y) for y in matrices))
    refit = _Refit(matrices.transpose(1, 0, 2).reshape(k, -1), dicts)
    state, residual = _residual_state(refit, dicts), refit.stacked
    support: list[tuple[int, int]] = []
    amplitudes, history = np.zeros(0, dtype=complex), []
    while len(support) < cap and res_norm > tol * signal_norm:
        support.append(_select(*state.residual(support, amplitudes, residual),
                               dicts, support))
        refit.add(*support[-1])
        amplitudes, residual, energies = refit.fit()
        history.append(float(energies.sum()))
        res_norm = float(np.sqrt(energies).sum())
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
