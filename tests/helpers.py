"""Shared test-side oracles and synthetic solver instances."""

import functools
import struct
from dataclasses import dataclass

import numpy as np

from submimo import harness, recovery
from submimo.errors import ConfigError, ValidationError
from submimo.geometry import AzimuthGrid, virtual_positions
from submimo.recovery import DictionarySet, RangeGrid
from submimo.scene import ReceivedBaseband, Scene, Target, _active_mask
from submimo.waveform import _BIN_EPS, DEFAULT_PHASE_SEED, channel_spectrum
from submimo.xampler import BinSet, CoefficientSet, _decimation, _normalization


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
                 for m in range(len(dicts.azimuth_atoms)))


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


def loop_pair_scores(maps, dicts):
    """`recovery._pair_scores` as a loop over the channels: each channel's
    rows x Q slice of the conjugated maps times its atoms, and |g|^2 added
    in channel order."""
    score = 0.0
    conj, q = maps.conj(), dicts.azimuth_atoms.shape[1]
    for m, b in enumerate(dicts.azimuth_atoms):
        g = conj[:, m * q:(m + 1) * q] @ b
        score += g.real ** 2 + g.imag ** 2
    return score


def row_bound(stacked, dicts, weight):
    """w ||g(n)||^2 for every range cell n, from the residual's lags.

    The reference for the updated bounds: g(n) is row n of the range maps
    of the channels' residuals side by side (`stacked`), and lag d is
    a(d) = sum_c sum_k r(k + d, c) r(k, c)^* over its columns c, from their
    power spectra, with the bins at k - min(k), in FFTs of 2*span - 1
    points (no wrap); the lags fold mod C (C may be below the span) and
    take one C-point Hermitian transform.
    """
    c, k = len(dicts.range_grid), np.asarray(dicts.bins.indices)
    offsets = k - k.min()
    span = int(offsets.max()) + 1
    length = 2 * span - 1
    spec = np.zeros((stacked.shape[1], length), dtype=complex)
    spec[:, offsets] = stacked.T
    power = weight * np.sum(np.abs(np.fft.fft(spec, axis=1)) ** 2, axis=0)
    lags = np.fft.ifft(power)
    d = np.arange(1 - span, span)
    folded = np.zeros(c, dtype=complex)
    np.add.at(folded, d % c, lags[d])
    return c * np.fft.irfft(folded[:c // 2 + 1], n=c)


def dense_maps(stacked, dicts):
    """The range maps of the channels' residuals side by side (C x MQ), from
    the dense atoms, without the channel phase.

    Channel m's map a_{m,n}^H R_m times phi_m(n) = exp(-2j*pi*m*N*n/C) on
    row n: the phase that channel m's range atom carries on top of
    channel 0's.
    """
    c, n_bins = len(dicts.range_grid), dicts.bins.per_channel_bins
    rows = np.arange(c)
    return np.hstack([np.exp(-2j * np.pi * m * n_bins * rows / c)[:, None] * (a.conj().T @ r)
                      for m, (a, r) in enumerate(zip(dense_range_atoms(dicts), np.hsplit(
                          stacked, len(dicts.azimuth_atoms))))])


def lstsq_fit(matrices, dicts, support):
    """Least-squares amplitudes of `support` and the residuals they leave.

    Dense atoms and one stacked least-squares solve over every channel; a
    dependent support takes the minimum-norm amplitudes.
    """
    if not support:
        return np.zeros(0, dtype=complex), list(matrices)
    dense = dense_range_atoms(dicts)
    cols = [np.stack([np.kron(b[:, p], a[:, n]) for n, p in support], axis=1)
            for a, b in zip(dense, dicts.azimuth_atoms)]
    rhs = np.concatenate([y.reshape(-1, order="F") for y in matrices])
    amplitudes = np.linalg.lstsq(np.vstack(cols), rhs, rcond=None)[0]
    return amplitudes, dense_residuals(matrices, dicts, support, amplitudes)


def dense_residuals(matrices, dicts, support, amplitudes):
    """Each channel's residual Y_m - A_m[:, S] diag(x) B_m[:, S]^T of `support`
    at `amplitudes`, from the dense atoms."""
    ns, ps = [n for n, _ in support], [p for _, p in support]
    return [y - a[:, ns] @ (amplitudes[:, None] * b[:, ps].T)
            for y, a, b in zip(matrices, dense_range_atoms(dicts), dicts.azimuth_atoms)]


def explicit_residual_omp(coefficients, dicts, max_targets):
    """`recovery.matrix_omp` with a known target count, forming the stacked
    residual every iteration: each selection scans the residual's own bound
    and maps (`_range_maps` on C <= 2N cells, its power spectrum and
    partial-DFT block maps on a wider grid), with 1e-9 of its largest bound
    as the slack, and each iteration's energies are the residual's channel
    norms. The amplitudes are the refit's Gram solve.
    Returns (support, amplitudes, residual_history, residual_norm)."""
    matrices = coefficients.matrices
    channels, k, _ = matrices.shape
    stacked = matrices.transpose(1, 0, 2).reshape(k, -1)
    c, weight = len(dicts.range_grid), dicts._weight
    offsets = dicts._bin_array - min(dicts.bins.indices)
    span = int(offsets.max()) + 1
    refit = recovery._Refit(stacked, dicts)
    cap = min(max_targets, c * len(dicts.azi_grid), matrices.size)
    support, history, residual = [], [], stacked
    amplitudes, res_norm = np.zeros(0, dtype=complex), None
    while len(support) < cap:
        if c > 2 * dicts.bins.per_channel_bins:
            power = recovery._power_spectrum(residual, channels, offsets,
                                             recovery._smooth_length(2 * span - 1))
            bound = weight * recovery._fold_bound(power, span, c)
            block_maps = functools.partial(recovery._block_maps, residual, dicts)
        else:
            maps = recovery._range_maps(residual, dicts)
            bound = weight * np.sum(maps.real ** 2 + maps.imag ** 2, axis=1)
            block_maps = maps.__getitem__
        support.append(recovery._select(bound, block_maps, recovery._SLACK * bound.max(),
                                        dicts, *taken_cells(support)))
        refit.add(*support[-1])
        s = len(support)
        amplitudes = np.linalg.solve(refit.gram[:s, :s], refit.rhs[:s])
        residual = stacked - refit.a[:s].T @ (amplitudes[:, None] * refit.d[:s])
        energies = [np.linalg.norm(r) ** 2 for r in np.hsplit(residual, channels)]
        history.append(float(np.sum(energies)))
        res_norm = float(np.sqrt(energies).sum())
    return support, amplitudes, history, res_norm


def taken_cells(support):
    """The range and azimuth cells of a support's (n, p) pairs, as the two
    int arrays `recovery._select` reads them from."""
    return np.array(support, dtype=int).reshape(-1, 2).T


def random_instance(rng, n_channels=2, n_bins=12, n_rx=3, n_range=25, n_azi=12,
                    total_bins=64):
    """A small synthetic solver instance with structured unit-modulus atoms."""
    kappa = np.sort(rng.choice(total_bins, size=n_bins, replace=False))
    bins = BinSet(indices=tuple(int(k) for k in kappa), per_channel_bins=total_bins)
    rgrid = RangeGrid.from_cells(1e-4, n_range)
    agrid = AzimuthGrid(values=-1.0 + 2.0 * np.arange(n_azi) / n_azi)
    # continuous positions keep the azimuth atoms free of exact grating ties
    vpos = np.sort(rng.uniform(0.0, 20.0, size=n_rx))
    atoms = np.exp(2j * np.pi * np.outer(vpos, agrid.values))
    dicts = DictionarySet(azimuth_atoms=np.stack([atoms] * n_channels), bins=bins,
                          range_grid=rgrid, azi_grid=agrid)
    shape = (n_bins, n_rx)
    matrices = np.stack([rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                         for _ in range(n_channels)])
    return CoefficientSet(matrices=matrices, bins=bins), dicts


def write_blob(path, bins, matrices, tx, rx):
    """A version-1 coefficient blob with the given index lists, laid out from
    the format itself: magic, the u32 version and counts M, K, Q, N, the i32
    transmitter, receiver and bin lists, then the complex64 (M, K, Q) array."""
    with open(path, "wb") as fh:
        fh.write(b"SMCS" + struct.pack("<IIIII", 1, len(tx), len(bins), len(rx),
                                       bins.per_channel_bins))
        for ids in (tx, rx, bins.indices):
            fh.write(np.asarray(ids, dtype="<i4").tobytes())
        fh.write(np.asarray(matrices, dtype="<c8").tobytes())


# blobs whose index lists are not every transmitter and every receiver in
# order, as (M, K, Q) array -> (array, tx list, rx list)
MISINDEXED_BLOBS = {
    "tx_subset": lambda y: (y[1:], range(1, len(y)), range(y.shape[2])),
    "rx_reversed": lambda y: (y[:, :, ::-1], range(len(y)), range(y.shape[2])[::-1]),
    "rx_subset": lambda y: (y[:, :, ::2], range(len(y)), range(0, y.shape[2], 2)),
}


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


def loop_channel_spectrum(plan, tx):
    """`waveform.channel_spectrum` on the cells of `loop_occupied_cells`."""
    pri = plan.base.pri
    cells, fracs = loop_occupied_cells(plan.subbands, pri)
    bins = cells + tx * plan.base.bins_per_channel
    g = np.sqrt(plan.total_power / plan.base.signal_band) / pri
    rng = np.random.default_rng([DEFAULT_PHASE_SEED, tx])
    phases = np.exp(2j * np.pi * rng.random(len(bins)))
    return bins, plan.amplitude_scale * g * np.sqrt(fracs) * phases


# -- the time-domain receiver chain and per-target synthesis ------------------
# `xampler.acquire` and `scene.synth_received` compute the same results in the
# frequency domain; these are the references they are checked against.

def channelize(rx, plan):
    """Split the received frames into per-transmitter channel signals.

    Ideal brick-wall extraction: channel m keeps the coefficient block
    [m*N, (m+1)*N) of the full-rate frame and is reconstructed at the
    channel rate, shifted down to [0, channel_spacing). Returns an array
    of shape (num_tx, num_rx, N).
    """
    base = plan.base
    n = base.bins_per_channel
    samples = np.atleast_2d(rx.samples)
    n_frame = samples.shape[1]
    if n_frame < base.num_tx * n:
        raise ValidationError("received frame does not cover the full FDM band")
    coeffs = np.fft.fft(samples, axis=1) / n_frame
    out = np.empty((base.num_tx, samples.shape[0], n), dtype=complex)
    for m in range(base.num_tx):
        block = coeffs[:, m * n:(m + 1) * n]
        out[m] = np.fft.ifft(block, axis=1) * n
    return out


def subsample(channel, plan, adc):
    """Keep every D-th sample of a channel-rate signal (last axis)."""
    return np.asarray(channel)[..., ::_decimation(plan, adc)]


def extract_coefficients(lowrate, bins, adc):
    """Read the selected Fourier coefficients off the folded low-rate spectrum.

    With a coset-clean plan each selected bin k lands alone on low-rate bin
    k mod (rate*pri), and the low-rate Fourier-series coefficient there
    equals the full-rate one exactly. Colliding folded positions are a
    coset violation and raise.
    """
    lowrate = np.asarray(lowrate)
    n_low = lowrate.shape[-1]
    folded = bins.as_array % n_low
    if len(set(folded.tolist())) != len(folded):
        raise ValidationError("folded bin collision: subbands are not coset bands")
    coeffs = np.fft.fft(lowrate, axis=-1) / n_low
    return coeffs[..., folded]


def in_order_acquire(rx, plan, adc, bins):
    """`xampler.acquire`'s (M, K, Q) coefficients as each channel's D folded
    aliases of the frame's spectrum added one after another, in alias order,
    and divided by the channel's normalization."""
    n = plan.base.bins_per_channel
    d = _decimation(plan, adc)
    aliases = bins.as_array % (n // d) + (n // d) * np.arange(d)[:, None]  # D x K
    norm = _normalization(plan, bins)
    want = np.stack([sum(rx.spectrum[:, m * n + a] for a in aliases) / norm[m]
                     for m in range(plan.num_tx)])  # M x Q x K
    return want.transpose(0, 2, 1)


def time_domain_acquire(rx, plan, adc, bins):
    """`xampler.acquire` as channelize -> subsample -> extract, per transmitter."""
    n = plan.base.bins_per_channel
    matrices = np.zeros((plan.num_tx, len(bins), rx.num_rx), dtype=complex)
    for m, channel in enumerate(channelize(rx, plan)):
        values = extract_coefficients(subsample(channel, plan, adc), bins, adc)
        abs_bins, design = loop_channel_spectrum(plan, m)
        lookup = dict(zip(abs_bins.tolist(), design))
        norm = np.array([lookup[k + m * n] for k in bins.indices])
        matrices[m] = (values / norm).T
    return CoefficientSet(matrices=matrices, bins=bins)


def loop_synth_received(scene, array, plan, sample_rate):
    """Received frames built one target and one transmitter at a time."""
    base = plan.base
    n_frame = int(round(sample_rate * base.pri))
    coeffs = np.zeros((array.num_rx, n_frame), dtype=complex)
    for m in range(base.num_tx):
        bins, values = loop_channel_spectrum(plan, m)
        vpos = virtual_positions(array, m)
        for t in scene.targets:
            delayed = values * np.exp(-2j * np.pi * bins * (t.delay / base.pri))
            spatial = t.amplitude * np.exp(2j * np.pi * vpos * t.sin_doa)
            coeffs[:, bins] += np.outer(spatial, delayed)
    return np.fft.ifft(coeffs, axis=1) * n_frame


def per_transmitter_synth_received(scene, array, plan, sample_rate):
    """`scene.synth_received` one transmitter at a time: per transmitter m,
    its spatial factors, their (receivers x targets) @ (targets x cells)
    product and its write into the frame's spectrum."""
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


# -- the time-domain pulse ------------------------------------------------------
# The pipeline works on `waveform.channel_spectrum`; a pulse sampled from it
# checks the designed spectrum's power relations in the time domain.

@dataclass(frozen=True)
class BasebandPulse:
    """One transmitter's baseband pulse over a full PRI frame."""

    samples: np.ndarray
    sample_rate: float
    tx_index: int

    @property
    def pri(self) -> float:
        return len(self.samples) / self.sample_rate


def synth_pulse(plan, tx, sample_rate):
    """Synthesize transmitter `tx`'s baseband pulse over one PRI frame.

    The frame's spectrum is exactly the designed one: flat (scaled) slices,
    zero elsewhere, so FDM channels stay perfectly disjoint after
    channelization. Complex sampling means the rate must cover the whole
    one-sided multiplexed band.
    """
    base = plan.base
    if sample_rate < base.total_bandwidth - 1e-6:
        raise ConfigError(
            f"sample_rate {sample_rate} below the occupied band "
            f"{base.total_bandwidth}")
    n_frame = int(round(sample_rate * base.pri))
    if abs(sample_rate * base.pri - n_frame) > 1e-6:
        raise ConfigError("sample_rate * pri must be an integer sample count")
    bins, values = channel_spectrum(plan, tx)
    coeffs = np.zeros(n_frame, dtype=complex)
    coeffs[bins] = values
    samples = np.fft.ifft(coeffs) * n_frame
    return BasebandPulse(samples=samples, sample_rate=sample_rate, tx_index=tx)


def pulse_energy(pulse):
    """Continuous-time energy of the frame, integral of |h(t)|^2 dt."""
    return float(np.sum(np.abs(pulse.samples) ** 2) / pulse.sample_rate)


def spectral_power(pulse, band):
    """Power spectral density of the pulse integrated over `band` (absolute Hz).

    The frame's spectrum is a line spectrum on the 1/pri grid; each line at
    k/pri contributes its full power when it lies in [lo, hi). This keeps
    whole-band integration exactly Parseval.
    """
    if band.hi > pulse.sample_rate + 1e-6:
        raise ValidationError("band extends beyond the pulse's Nyquist range")
    n = len(pulse.samples)
    pri = pulse.pri
    coeffs = np.fft.fft(pulse.samples) / n
    k_first = max(int(np.ceil(band.lo * pri - _BIN_EPS)), 0)
    k_last = min(int(np.ceil(band.hi * pri - _BIN_EPS)), n)
    power = np.sum(np.abs(coeffs[k_first:k_last]) ** 2)
    return float(power * pri)


# -- scene placement ----------------------------------------------------------

def loop_generate_scene(rng, spec, range_cells, pri):
    """`harness.generate_scene` testing each draw against every placed target
    in turn. It reads the harness's placement constants at call time, so a
    test may lower the draw cap on both."""
    n_background = spec.num_targets - (2 if spec.close_pair_sin_gap else 0)
    if n_background < 0:
        raise ConfigError("close pair does not fit into num_targets")
    placed: list[tuple[int, int]] = []  # (range cell, coarse azimuth cell)
    guard = 0
    while len(placed) < n_background:
        guard += 1
        if guard > harness._MAX_PLACEMENT_DRAWS:
            raise ConfigError("scene constraints too tight to satisfy")
        n = int(rng.integers(0, range_cells))
        p = int(rng.integers(0, harness.COARSE_AZIMUTH_CELLS))
        ok = True
        for n2, p2 in placed:
            range_ok = (spec.min_range_sep_cells > 0
                        and abs(n - n2) >= spec.min_range_sep_cells)
            sin_gap = abs(p - p2) * (2.0 / harness.COARSE_AZIMUTH_CELLS)
            sin_ok = (spec.min_sin_sep > 0 and n != n2
                      and sin_gap >= spec.min_sin_sep - 1e-12)
            if spec.min_range_sep_cells > 0 or spec.min_sin_sep > 0:
                if not (range_ok or sin_ok):
                    ok = False
                    break
            elif (n, p) == (n2, p2):
                ok = False
                break
        if ok:
            placed.append((n, p))

    targets = [Target(delay=n * pri / range_cells,
                      sin_doa=-1.0 + 2.0 * p / harness.COARSE_AZIMUTH_CELLS,
                      amplitude=np.exp(2j * np.pi * rng.random()))
               for n, p in placed]

    if spec.close_pair_sin_gap:
        half = spec.close_pair_sin_gap / 2
        fine = 2.0 / harness.FINE_AZIMUTH_CELLS
        if abs(half / fine - round(half / fine)) > 1e-9:
            raise ConfigError("half the pair gap must sit on the fine azimuth grid")
        margin = harness._pair_margin(spec.close_pair_sin_gap)
        for _ in range(harness._MAX_PLACEMENT_DRAWS):
            n0 = int(rng.integers(0, range_cells))
            center_cell = int(rng.integers(margin, harness.COARSE_AZIMUTH_CELLS - margin))
            if all(abs(n0 - n) >= harness.PAIR_RANGE_CLEARANCE_CELLS for n, _ in placed):
                break
        else:
            raise ConfigError("no range cell clears the close pair's range clearance")
        center = -1.0 + 2.0 * center_cell / harness.COARSE_AZIMUTH_CELLS
        for sin_doa in (center - half, center + half):
            targets.append(Target(delay=n0 * pri / range_cells, sin_doa=sin_doa,
                                  amplitude=np.exp(2j * np.pi * rng.random())))
    return Scene(targets=tuple(targets))
