import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (brute_force_scores, dense_maps, dense_range_atoms, dense_residuals,
                     explicit_residual_omp, loop_pair_scores, lstsq_fit, random_instance,
                     row_bound)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from submimo import (ArrayMode, NumericalError, Scene, SceneSpec, Target,
                     ValidationError, acquire, add_noise, build_environment,
                     coherence, generate_scene, matrix_omp, oracle_coefficients,
                     recovery, synth_received)
from submimo.geometry import AzimuthGrid
from submimo.recovery import (DictionarySet, RangeGrid, _block_maps, _cell_atoms,
                              _LagState, _MapState, _pair_scores, _range_maps, _Refit,
                              _residual_state, _select, _smooth_length)
from submimo.xampler import BinSet, CoefficientSet


def test_dictionary_entries_at_the_grid_origin(desk_env):
    dicts = desk_env.dictionaries
    p0 = np.where(desk_env.azi_grid.values == 0.0)[0][0]
    a, d = _cell_atoms(dicts)(0, p0)  # zero delay, broadside
    np.testing.assert_allclose(a, np.ones(len(dicts.bins)))
    np.testing.assert_allclose(d, np.ones(sum(len(b) for b in dicts.azimuth_atoms)))


@pytest.mark.parametrize("instance", ["desk", "random"])
def test_support_atoms_match_the_dense_formula(desk_env, instance):
    # on the desk grid the channel offset m*N is a multiple of C; the random
    # instance keeps it
    if instance == "desk":
        dicts = desk_env.dictionaries
    else:
        _, dicts = random_instance(np.random.default_rng(5))
    # channel m's atom a_{m,n} b_{m,p}^T is the outer product of a_n and
    # channel m's block of d; on channel 0 (no phase) they are a_{0,n} and
    # b_{0,p} themselves
    cells = [(n, n % len(dicts.azi_grid)) for n in range(len(dicts.range_grid))]
    atoms, dense = _cell_atoms(dicts), dense_range_atoms(dicts)
    for n, p in cells:
        a, d = atoms(n, p)
        np.testing.assert_allclose(a, dense[0][:, n], atol=1e-9)
        np.testing.assert_array_equal(d[:len(dicts.azimuth_atoms[0])],
                                      dicts.azimuth_atoms[0][:, p])
        for a_m, d_m, full_b in zip(dense, np.split(d, len(dense)), dicts.azimuth_atoms):
            np.testing.assert_allclose(np.outer(a, d_m), np.outer(a_m[:, n], full_b[:, p]),
                                       atol=1e-9)


def test_dictionary_atoms_are_unit_modulus(desk_env):
    dicts = desk_env.dictionaries
    k = len(desk_env.bins)
    q = desk_env.array.num_rx
    for a, b in zip(dense_range_atoms(dicts), dicts.azimuth_atoms):
        np.testing.assert_allclose(np.abs(a), 1.0)
        np.testing.assert_allclose(np.abs(b), 1.0)
        np.testing.assert_allclose(np.linalg.norm(a, axis=0), np.sqrt(k))
        np.testing.assert_allclose(np.linalg.norm(b, axis=0), np.sqrt(q))


def test_single_target_recovered_exactly(desk_env):
    n, p = 57, 12
    delay = desk_env.range_grid.delays[n]
    sin = desk_env.azi_grid.values[p]
    amp = 1.3 - 0.4j
    scene = Scene(targets=(Target(delay, sin, amp),))
    coeffs = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    est = matrix_omp(coeffs, desk_env.dictionaries, max_targets=1)
    assert est.support == ((n, p),)
    assert est.amplitudes[0] == pytest.approx(amp, abs=1e-9)
    assert est.residual_rel <= 1e-9
    # the selection agrees with an exhaustive scoring pass
    scores = brute_force_scores(coeffs.matrices, desk_env.dictionaries)
    assert np.unravel_index(np.argmax(scores), scores.shape) == (n, p)


def test_three_separated_targets_recovered_exactly(desk_env):
    cells = [(30, 10), (120, 45), (250, 70)]
    amps = [1.0, 0.8j, -0.5 + 0.5j]
    targets = tuple(
        Target(desk_env.range_grid.delays[n], desk_env.azi_grid.values[p], a)
        for (n, p), a in zip(cells, amps))
    coeffs = oracle_coefficients(Scene(targets=targets), desk_env.array,
                                 desk_env.plan, desk_env.bins)
    est = matrix_omp(coeffs, desk_env.dictionaries, max_targets=3)
    assert sorted(est.support) == sorted(cells)
    # amplitudes agree with an independent least-squares fit on the true support
    dicts = desk_env.dictionaries
    blocks, rhs = [], []
    for y, a, b in zip(coeffs.matrices, dense_range_atoms(dicts), dicts.azimuth_atoms):
        blocks.append(np.stack([np.kron(b[:, p], a[:, n]) for n, p in cells], axis=1))
        rhs.append(y.reshape(-1, order="F"))
    want, *_ = np.linalg.lstsq(np.vstack(blocks), np.concatenate(rhs), rcond=None)
    by_cell = dict(zip(est.support, est.amplitudes))
    got = np.array([by_cell[c] for c in cells])
    np.testing.assert_allclose(got, want, atol=1e-9)
    np.testing.assert_allclose(got, amps, atol=1e-9)


def test_zero_input_returns_empty_estimate(desk_env):
    shape = (desk_env.array.num_tx, len(desk_env.bins), desk_env.array.num_rx)
    coeffs = CoefficientSet(matrices=np.zeros(shape, dtype=complex), bins=desk_env.bins)
    est = matrix_omp(coeffs, desk_env.dictionaries, max_targets=5)
    assert est.support == ()
    assert est.residual_norm == 0.0


def test_mismatched_channels_rejected(desk_env):
    shape = (1, len(desk_env.bins), desk_env.array.num_rx)
    coeffs = CoefficientSet(matrices=np.zeros(shape, dtype=complex), bins=desk_env.bins)
    with pytest.raises(ValidationError):
        matrix_omp(coeffs, desk_env.dictionaries)


def test_degenerate_support_is_reported():
    # two identical azimuth cells; channels driven in anti-phase leave the
    # residual untouched by the first selection, so its duplicate is selected
    # second and the joint refit loses rank
    bins = BinSet(indices=(0, 1, 2, 3), per_channel_bins=8)
    rgrid = RangeGrid.from_cells(1e-4, 8)
    agrid = AzimuthGrid(values=np.array([0.0, 0.5]))
    atom_b = np.ones((2, 2), dtype=complex)
    dicts = DictionarySet(azimuth_atoms=np.stack([atom_b] * 2), bins=bins,
                          range_grid=rgrid, azi_grid=agrid)
    y = np.ones((4, 2), dtype=complex)  # range cell 0, either azimuth cell
    coeffs = CoefficientSet(matrices=np.stack([y, -y]), bins=bins)
    with pytest.raises(NumericalError):
        matrix_omp(coeffs, dicts, max_targets=2)


def test_max_targets_above_the_grid_selects_every_cell_once():
    # 4 x 3 cells: the selections stop at the grid's 12, where every score
    # is -inf and another selection would repeat a cell of the support
    coeffs, dicts = random_instance(np.random.default_rng(5), n_range=4, n_azi=3)
    est = matrix_omp(coeffs, dicts, max_targets=14)
    assert len(est) == len(set(est.support)) == 12


@pytest.mark.parametrize("instance", ["desk", "random"])
def test_grown_refit_matches_the_least_squares_reference(desk_env, instance):
    # one cell at a time, as in matrix_omp, past the buffers' first
    # doubling; on the desk grid the channel offset m*N is a multiple of C,
    # the random instance keeps it
    rng = np.random.default_rng(11)
    if instance == "desk":
        dicts, shape = desk_env.dictionaries, (len(desk_env.bins), desk_env.array.num_rx)
        matrices = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    for _ in dicts.azimuth_atoms]
    else:
        coeffs, dicts = random_instance(rng)
        matrices = list(coeffs.matrices)
    n_azi = len(dicts.azi_grid)
    cells = [divmod(int(c), n_azi)
             for c in rng.choice(len(dicts.range_grid) * n_azi, size=12, replace=False)]
    scale = max(np.abs(y).max() for y in matrices)
    refit = _Refit(np.hstack(matrices), dicts, cells=8)
    for size, cell in enumerate(cells, start=1):
        refit.add(*cell)
        amplitudes, energies = refit.fit()
        stacked = refit.residual(amplitudes)
        want_x, want_r = lstsq_fit(matrices, dicts, cells[:size])
        np.testing.assert_allclose(amplitudes, want_x, rtol=1e-9,
                                   atol=1e-9 * np.abs(want_x).max())
        np.testing.assert_allclose(stacked, np.hstack(want_r), rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(energies, [np.linalg.norm(r) ** 2 for r in want_r],
                                   rtol=1e-9)


def _near_dependent_support(seed, ratio):
    """A random instance and a support of 9 cells whose last repeats the first
    cell's azimuth atom plus a perturbation sized so that the support's Gram
    has an eigenvalue ratio near `ratio` (the ratio scales as the
    perturbation squared)."""
    rng = np.random.default_rng(seed)
    coeffs, dicts = random_instance(rng)
    n_azi = len(dicts.azi_grid)
    cells = [divmod(int(c), n_azi)
             for c in rng.choice(len(dicts.range_grid) * n_azi, size=8, replace=False)]
    n, p = cells[0]
    q = (p + 1) % n_azi
    if (n, q) in cells:
        cells.remove((n, q))
    cells.append((n, q))
    plain, base = dicts, dicts.azimuth_atoms
    noise = rng.standard_normal(base[:, :, p].shape) + 1j * rng.standard_normal(
        base[:, :, p].shape)
    size, got = 1e-3, None
    for _ in range(4):
        atoms = base.copy()
        atoms[:, :, q] = base[:, :, p] + size * noise
        dicts = dataclasses.replace(plain, azimuth_atoms=atoms)
        columns = np.stack([np.concatenate([np.kron(b[:, j], a[:, i]) for a, b in zip(
            dense_range_atoms(dicts), dicts.azimuth_atoms)]) for i, j in cells], axis=1)
        eig = np.linalg.eigvalsh(columns.conj().T @ columns)
        got = eig[0] / eig[-1]
        size *= np.sqrt(ratio / got)
    return list(coeffs.matrices), dicts, cells, got


@pytest.mark.parametrize("case, seed", [("24 cells", 12), ("eigenvalue ratio 1e-6", 0),
                                        ("eigenvalue ratio 1e-6", 1),
                                        ("eigenvalue ratio 1e-6", 2)])
def test_bordered_inverse_matches_the_least_squares_reference(desk_env, case, seed):
    # where the kept inverse Gram is weakest: bordered past two doublings of
    # its buffer (8 -> 16 -> 32), and on a full-rank support whose Gram is
    # near singular; at each size, as test_grown_refit_... checks. Without
    # the refinement of u, seed 0's near-singular amplitudes are off by 5e-8
    if case == "24 cells":
        rng = np.random.default_rng(seed)
        dicts, shape = desk_env.dictionaries, (len(desk_env.bins), desk_env.array.num_rx)
        matrices = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    for _ in dicts.azimuth_atoms]
        n_azi = len(dicts.azi_grid)
        cells = [divmod(int(c), n_azi)
                 for c in rng.choice(len(dicts.range_grid) * n_azi, size=24, replace=False)]
    else:
        matrices, dicts, cells, ratio = _near_dependent_support(seed, 1e-6)
        assert 0.5e-6 < ratio < 2e-6
    refit = _Refit(np.hstack(matrices), dicts, cells=8)
    for size, cell in enumerate(cells, start=1):
        refit.add(*cell)
        amplitudes, energies = refit.fit()
        want_x, want_r = lstsq_fit(matrices, dicts, cells[:size])
        np.testing.assert_allclose(amplitudes, want_x, rtol=1e-9,
                                   atol=1e-9 * np.abs(want_x).max())
        np.testing.assert_allclose(energies, [np.linalg.norm(r) ** 2 for r in want_r],
                                   rtol=1e-9)
    assert len(refit.rhs) == (32 if case == "24 cells" else 16)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_channels=st.integers(1, 3),
       n_bins=st.integers(1, 10), total_bins=st.integers(10, 16), n_rx=st.integers(1, 4),
       n_range=st.integers(2, 30), n_azi=st.integers(2, 6), n_selected=st.integers(1, 6),
       planted=st.booleans())
@example(seed=0, n_channels=2, n_bins=4, total_bins=12, n_rx=2, n_range=5, n_azi=3,
         n_selected=3, planted=True)
@example(seed=1, n_channels=1, n_bins=1, total_bins=10, n_rx=1, n_range=6, n_azi=2,
         n_selected=3, planted=False)  # one bin and one receiver: rank 1
def test_pivot_rank_check_raises_exactly_when_the_dense_gram_is_short(
        seed, n_channels, n_bins, total_bins, n_rx, n_range, n_azi, n_selected, planted):
    rng = np.random.default_rng(seed)
    coeffs, dicts = random_instance(rng, n_channels=n_channels, n_bins=n_bins, n_rx=n_rx,
                                    n_range=n_range, n_azi=n_azi, total_bins=total_bins)
    cells = [divmod(int(c), n_azi)
             for c in rng.choice(n_range * n_azi, size=min(n_selected, n_range * n_azi - 1),
                                 replace=False)]
    if planted:
        # azimuth cell p2 repeats p1 on every channel; (n, p2) follows (n, p1)
        n, p1 = cells[int(rng.integers(len(cells)))]
        p2 = (p1 + 1 + int(rng.integers(n_azi - 1))) % n_azi
        atoms = dicts.azimuth_atoms.copy()
        atoms[:, :, p2] = atoms[:, :, p1]
        dicts = dataclasses.replace(dicts, azimuth_atoms=atoms)
        if (n, p2) in cells:
            cells.remove((n, p2))
        after = cells.index((n, p1)) + 1
        cells.insert(after + int(rng.integers(len(cells) - after + 1)), (n, p2))
    columns = np.stack([np.concatenate([np.kron(b[:, p], a[:, n]) for a, b in zip(
        dense_range_atoms(dicts), dicts.azimuth_atoms)]) for n, p in cells], axis=1)
    refit = _Refit(np.hstack(coeffs.matrices), dicts)
    for size, cell in enumerate(cells, start=1):
        gram = columns[:, :size].conj().T @ columns[:, :size]
        short = np.linalg.matrix_rank(gram, hermitian=True) < size
        eig = np.linalg.eigvalsh(gram)
        # no draw within rounding of either tolerance: a full Gram is well
        # conditioned, a short one is singular in exact arithmetic
        assume(short or eig[0] > 1e-4 * eig[-1])
        if not short:
            refit.add(*cell)
            continue
        with pytest.raises(NumericalError, match=f"range {cell[0]}, azimuth {cell[1]}"):
            refit.add(*cell)
        break


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(item) for item in obj)
    if dataclasses.is_dataclass(obj):
        return sum(_array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


@pytest.mark.parametrize("mode", list(ArrayMode))
def test_full_profile_dictionaries_hold_under_a_megabyte(mode):
    dicts = build_environment(mode, "full", seed=7).dictionaries
    assert len(dicts.range_grid) == 12000
    assert _array_bytes(dicts) < 1 << 20


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_channels=st.integers(1, 3),
       bin_share=st.floats(0.05, 1.0), total_bins=st.integers(4, 40),
       n_range=st.integers(2, 60), n_rx=st.integers(1, 4), n_azi=st.integers(1, 9))
@example(seed=0, n_channels=2, bin_share=1.0, total_bins=40, n_range=7,
         n_rx=3, n_azi=5)  # C far below the bin span: rows collide
@example(seed=1, n_channels=3, bin_share=0.5, total_bins=8, n_range=60,
         n_rx=2, n_azi=4)  # C above every absolute bin: no collision
def test_fft_pair_scores_match_brute_force(seed, n_channels, bin_share, total_bins,
                                           n_range, n_rx, n_azi):
    n_bins = max(1, round(bin_share * total_bins))
    coeffs, dicts = random_instance(np.random.default_rng(seed), n_channels=n_channels,
                                    n_bins=n_bins, n_rx=n_rx, n_range=n_range,
                                    n_azi=n_azi, total_bins=total_bins)
    want = brute_force_scores(coeffs.matrices, dicts)
    got = _pair_scores(_range_maps(np.hstack(coeffs.matrices), dicts), dicts)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * want.max())


@pytest.mark.parametrize("rows", [16, 81])
@pytest.mark.parametrize("n_azi", [80, 400])
@pytest.mark.parametrize("n_channels", [4, 8])
def test_pair_scores_match_the_loop_over_channels(n_channels, n_azi, rows):
    # the desk and full grids' channel counts and azimuth cells, on the
    # first pass's rows and a full-grid block's; atoms that factor as a
    # random phase per (m, p) times a random receive phase per (q, p)
    rng = np.random.default_rng([n_channels, n_azi, rows])
    _, dicts = random_instance(rng, n_channels=n_channels, n_rx=10, n_azi=n_azi)
    tx = rng.random((n_channels, 1, n_azi))
    rx = rng.random((1, 10, n_azi))
    dicts = dataclasses.replace(dicts, azimuth_atoms=np.exp(2j * np.pi * (tx + rx)))
    shape = (rows, n_channels * 10)
    maps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = loop_pair_scores(maps, dicts)
    np.testing.assert_allclose(_pair_scores(maps, dicts), want, rtol=1e-12,
                               atol=1e-12 * want.max())


def test_atoms_that_do_not_factor_raise_through_matrix_omp():
    # a random phase per (m, q, p): channel 1's products b b'^* are not channel 0's
    rng = np.random.default_rng(19)
    coeffs, dicts = random_instance(rng, n_channels=3, n_rx=4, n_azi=6)
    phases = rng.random(dicts.azimuth_atoms.shape)
    dicts = dataclasses.replace(dicts, azimuth_atoms=np.exp(2j * np.pi * phases))
    with pytest.raises(ValidationError, match="channel 1 do not factor"):
        matrix_omp(coeffs, dicts, max_targets=1)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_bins=st.integers(1, 40),
       total_bins=st.integers(1, 64), n_range=st.integers(1, 12), cols=st.integers(1, 4),
       zero_share=st.floats(0.0, 1.0))
@example(seed=0, n_bins=40, total_bins=40, n_range=1, cols=2, zero_share=0.0)  # one row
@example(seed=1, n_bins=30, total_bins=64, n_range=3, cols=1, zero_share=0.5)
def test_range_map_scatter_is_np_add_at_bit_for_bit(seed, n_bins, total_bins, n_range,
                                                    cols, zero_share):
    # bins in any order, colliding mod C, with magnitudes across many decades
    # (so the order of the sums shows in their bits) and signed zeros
    rng = np.random.default_rng(seed)
    bins = rng.permutation(total_bins)[:n_bins]
    dicts = DictionarySet(azimuth_atoms=np.ones((1, 1, 1), dtype=complex),
                          bins=BinSet(indices=tuple(bins.tolist()),
                                      per_channel_bins=total_bins),
                          range_grid=RangeGrid.from_cells(1e-4, n_range),
                          azi_grid=AzimuthGrid(values=np.array([0.0])))
    values = rng.standard_normal((len(bins), 2 * cols)) * 10.0 ** rng.integers(
        -8, 9, (len(bins), 2 * cols))
    zeros = rng.random(values.shape) < zero_share
    values[zeros] = np.where(rng.random(values.shape) < 0.5, -0.0, 0.0)[zeros]
    stacked = values.view(complex)
    scattered = np.zeros((n_range, cols), dtype=complex)
    np.add.at(scattered, bins % n_range, stacked)
    want = n_range * np.fft.ifft(scattered, axis=0)
    assert _range_maps(stacked, dicts).tobytes() == want.tobytes()


@pytest.mark.parametrize("instance", ["ula", "wide", "random"])
def test_dictionary_tables_are_their_definitions_built_once(desk_envs, instance):
    if instance == "random":
        _, dicts = random_instance(np.random.default_rng(9), n_channels=3, n_bins=7,
                                   n_rx=2, n_range=5, n_azi=4, total_bins=12)
    else:
        dicts = dataclasses.replace(desk_envs[ArrayMode(instance)].dictionaries)
    c, k = len(dicts.range_grid), dicts.bins.as_array
    scattered = np.zeros((c, 1), dtype=complex)
    np.add.at(scattered, k % c, 1.0)
    layers = {}  # layer j: the j-th bin, in bin order, folding onto each row
    for i, row in enumerate(k % c):
        rows, picks = layers.setdefault(int(np.sum(k[:i] % c == row)), ([], []))
        rows.append(row)
        picks.append(i)
    # W[q, q', p] = b_0qp b_0q'p^*: |b_0qp|^2, then 2 Re W and -2 Im W, q < q'
    b = dicts.azimuth_atoms[0]
    upper = [(i, j) for i in range(len(b)) for j in range(i + 1, len(b))]
    pair_table = np.array([b[i].real ** 2 + b[i].imag ** 2 for i in range(len(b))]
                          + [2 * (b[i] * b[j].conj()).real for i, j in upper]
                          + [-2 * (b[i] * b[j].conj()).imag for i, j in upper])
    want = {"_bin_array": [k],
            "_conj_roots": [np.exp(-2j * np.pi * np.arange(c) / c).conj()],
            "_kernel": [c * np.fft.ifft(scattered[:, 0])],
            "_weight": [np.max(np.sum(np.abs(dicts.azimuth_atoms) ** 2, axis=1))],
            "_pair_table": [pair_table],
            "_scatter": [a for j in sorted(layers) for a in layers[j]]}
    for name, value in want.items():
        table = getattr(dicts, name)
        assert getattr(dicts, name) is table  # built on first use, then kept
        got = [a for layer in table for a in layer] if name == "_scatter" else [table]
        assert len(got) == len(value), name
        for a, b in zip(got, value):
            assert np.array_equal(a, b), name
            if isinstance(a, np.ndarray):
                assert not a.flags.writeable, name
    # the kernel is the map of atom 0: kappa(n) = sum_k exp(2j*pi*k*n/C)
    dense = np.exp(2j * np.pi * np.outer(np.arange(c), k) / c).sum(axis=1)
    np.testing.assert_allclose(dicts._kernel, dense, rtol=0, atol=1e-9 * len(k))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dicts._kernel = dicts._kernel


# grids below, at and above 2N, the last one scored through the lag-domain
# bound and partial-DFT block maps; C below the bin span folds bins together
_GRID_EXAMPLES = [dict(seed=0, n_channels=2, n_bins=8, total_bins=8, n_range=5, n_rx=3),
                  dict(seed=1, n_channels=3, n_bins=5, total_bins=8, n_range=16, n_rx=2),
                  dict(seed=2, n_channels=2, n_bins=6, total_bins=9, n_range=41, n_rx=4)]
# bins 8, 9, 11 of N = 16 and 7, 8, 10 of N = 14 span 4: the bound's FFT
# takes 8 points, not 2N; C = 3 folds the seven lags, C = 40 and 33 exceed 2N
_SHIFTED_BINS_EXAMPLES = [
    dict(seed=0, n_channels=2, n_bins=3, total_bins=16, n_range=40, n_rx=2),
    dict(seed=0, n_channels=1, n_bins=3, total_bins=16, n_range=3, n_rx=3),
    dict(seed=0, n_channels=3, n_bins=3, total_bins=14, n_range=33, n_rx=4)]


def test_smooth_length_is_the_smallest_5_smooth_length():
    smooth = sorted(2 ** a * 3 ** b * 5 ** c
                    for a in range(14) for b in range(9) for c in range(7))
    for n in range(1, 5001):
        assert _smooth_length(n) == next(m for m in smooth if m >= n)
    assert _smooth_length(2 * 1106 - 1) == 2250  # the reference plan's bin span


def _refit_of(matrices, dicts, support):
    """What the residual states read of a `_Refit` holding `support`: the
    stacked coefficients and the cells' factors (`_cell_atoms`), taken
    without the refit's pivot test, so a dependent support is held too, and
    the residual of the first len(x) cells at amplitudes x, from the dense
    atoms (`helpers.lstsq_fit`'s residuals at its amplitudes, bit for bit)."""
    stacked, atoms = np.hstack(matrices), _cell_atoms(dicts)
    a = np.zeros((len(support), len(dicts.bins)), dtype=complex)
    d = np.zeros((len(support), stacked.shape[1]), dtype=complex)
    for j, cell in enumerate(support):
        a[j], d[j] = atoms(*cell)
    return SimpleNamespace(stacked=stacked, a=a, d=d, residual=lambda x: np.hstack(
        dense_residuals(matrices, dicts, support[:len(x)], x)))


def _grid_instance(seed, n_channels, n_bins, total_bins, n_range, n_rx, n_azi=3):
    return random_instance(np.random.default_rng(seed), n_channels=n_channels,
                           n_bins=min(n_bins, total_bins), n_rx=n_rx, n_range=n_range,
                           n_azi=n_azi, total_bins=total_bins)


_grids = dict(seed=st.integers(0, 2**32 - 1), n_channels=st.integers(1, 3),
              n_bins=st.integers(1, 16), total_bins=st.integers(1, 16),
              n_range=st.integers(1, 50), n_rx=st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(**_grids)
@example(**_GRID_EXAMPLES[0])
@example(**_GRID_EXAMPLES[1])
@example(**_GRID_EXAMPLES[2])
@example(**_SHIFTED_BINS_EXAMPLES[0])
@example(**_SHIFTED_BINS_EXAMPLES[1])
@example(**_SHIFTED_BINS_EXAMPLES[2])
def test_lag_domain_bound_matches_the_weighted_row_energies(**draw):
    # the reference, and the coefficients' bound of the state matrix_omp
    # takes on every grid: the lag-domain state on grids wider than 2N
    coeffs, dicts = _grid_instance(**draw)
    stacked = np.hstack(coeffs.matrices)
    state = _residual_state(_refit_of(coeffs.matrices, dicts, []), dicts)
    assert isinstance(state, _LagState) == (draw["n_range"] > 2 * draw["total_bins"])
    assert state.weight == pytest.approx(draw["n_rx"], rel=1e-15)  # unit-modulus atoms
    want = state.weight * np.sum(np.abs(_range_maps(stacked, dicts)) ** 2, axis=1)
    for bound in (row_bound(stacked, dicts, state.weight), state.bound):
        np.testing.assert_allclose(bound, want, rtol=1e-9, atol=1e-12 * want.max())


def _fitted_instance(seed, n_channels, n_bins, total_bins, n_range, n_rx, n_azi,
                     n_selected, noiseless):
    """A random instance, a random support and its least-squares amplitudes.

    Noiseless, the coefficients are the support's atoms times random
    amplitudes, which the fit recovers up to rounding: the residual is
    about 1e-15 of the coefficients.
    """
    rng = np.random.default_rng(seed)
    coeffs, dicts = random_instance(rng, n_channels=n_channels,
                                    n_bins=min(n_bins, total_bins), n_rx=n_rx,
                                    n_range=n_range, n_azi=n_azi, total_bins=total_bins)
    cells = rng.choice(n_range * n_azi, size=min(n_selected, n_range * n_azi - 1),
                       replace=False)
    support = [divmod(int(c), n_azi) for c in cells]
    matrices = coeffs.matrices
    if noiseless and support:
        x = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
        ns, ps = [n for n, _ in support], [p for _, p in support]
        matrices = [a[:, ns] @ (x[:, None] * b[:, ps].T)
                    for a, b in zip(dense_range_atoms(dicts), dicts.azimuth_atoms)]
    amplitudes, residuals = lstsq_fit(matrices, dicts, support)
    return matrices, dicts, support, amplitudes, residuals


def _fit_peak(dicts, amplitudes):
    """K sum_j |x_j|: no entry of a range map of the support's atoms exceeds it."""
    return len(dicts.bins) * np.abs(amplitudes).sum()


_fits = dict(seed=st.integers(0, 2**32 - 1), n_channels=st.integers(1, 3),
             n_bins=st.integers(1, 16), total_bins=st.integers(1, 16),
             n_rx=st.integers(1, 4), n_azi=st.integers(1, 6),
             n_selected=st.integers(0, 5), noiseless=st.booleans())


@settings(max_examples=60, deadline=None)
@given(n_range=st.integers(1, 50), **_fits)
@example(seed=0, n_channels=2, n_bins=8, total_bins=8, n_range=5, n_rx=3, n_azi=4,
         n_selected=3, noiseless=False)  # C below the bin span: rows collide
@example(seed=1, n_channels=3, n_bins=6, total_bins=8, n_range=16, n_rx=3, n_azi=4,
         n_selected=4, noiseless=True)  # C = 2N, fitted exactly
def test_updated_maps_match_the_residual_maps(**draw):
    matrices, dicts, support, amplitudes, residuals = _fitted_instance(**draw)
    weight = draw["n_rx"]  # max_p ||b_mp||^2 of unit-modulus atoms
    state = _MapState(_refit_of(matrices, dicts, support), dicts)
    bound, block_maps, _ = state.residual(support, amplitudes)
    # the stacked maps without the channel phase, every channel at once
    want = dense_maps(np.hstack(residuals), dicts)
    # the update rounds at its largest term: |G(Y)| or K |x_j| (unit atoms)
    peak = np.abs(state.maps).max() + _fit_peak(dicts, amplitudes)
    np.testing.assert_allclose(block_maps(np.arange(draw["n_range"])), want,
                               rtol=0, atol=1e-12 * peak)
    energies = weight * np.sum(np.abs(want) ** 2, axis=1)
    rows_scale = weight * want.shape[1]
    np.testing.assert_allclose(bound, energies, rtol=0, atol=1e-12 * rows_scale * peak ** 2)


@settings(max_examples=60, deadline=None)
@given(extra_cells=st.integers(1, 30), **_fits)
@example(seed=2, n_channels=2, n_bins=6, total_bins=9, extra_cells=22, n_rx=4, n_azi=3,
         n_selected=4, noiseless=False)
@example(seed=3, n_channels=3, n_bins=3, total_bins=14, extra_cells=4, n_rx=2, n_azi=5,
         n_selected=5, noiseless=True)  # a bin span below N, fitted exactly
@example(seed=0, n_channels=3, n_bins=1, total_bins=6, extra_cells=21, n_rx=1, n_azi=1,
         n_selected=4, noiseless=False)  # three cells nearly dependent: |x| near 1e14
def test_expanded_lag_bound_matches_the_reference(extra_cells, **draw):
    # one state grows its support a cell per call, as in matrix_omp; a fresh
    # one takes the whole support at once
    draw["n_range"] = 2 * draw["total_bins"] + extra_cells  # C > 2N
    matrices, dicts, support, _, _ = _fitted_instance(**draw)
    weight, refit = draw["n_rx"], _refit_of(matrices, dicts, support)
    state = _LagState(refit, dicts)
    calls = [(state, size) for size in range(len(support) + 1)]
    calls.append((_LagState(refit, dicts), len(support)))
    for state, size in calls:
        amplitudes, residuals = lstsq_fit(matrices, dicts, support[:size])
        bound, _, slack = state.residual(support[:size], amplitudes)
        # the slack is 1e-9 of the largest term: of the coefficients' bound
        # for a well-conditioned support, more for a nearly dependent one
        if size == 0:
            assert slack == 1e-9 * state.bound.max()
        np.testing.assert_allclose(bound, row_bound(np.hstack(residuals), dicts, weight),
                                   rtol=0, atol=1e-3 * slack)


@settings(max_examples=60, deadline=None)
@given(extra_cells=st.integers(1, 30), head_share=st.floats(0.0, 1.0), **_fits)
@example(seed=2, n_channels=2, n_bins=6, total_bins=9, extra_cells=22, n_rx=4, n_azi=3,
         n_selected=4, noiseless=False, head_share=0.5)
@example(seed=0, n_channels=3, n_bins=1, total_bins=6, extra_cells=21, n_rx=1, n_azi=1,
         n_selected=4, noiseless=False, head_share=1.0)  # |x| near 1e14
def test_expanded_lag_block_maps_match_the_residual_maps(extra_cells, head_share, **draw):
    # one state grows its support a cell per call, as in matrix_omp, from
    # buffers of one cell, so they double; each scan asks for a head and
    # then for every row, kept rows and new ones alike
    draw["n_range"] = 2 * draw["total_bins"] + extra_cells  # C > 2N
    matrices, dicts, support, _, _ = _fitted_instance(**draw)
    refit, n_range = _refit_of(matrices, dicts, support), draw["n_range"]
    state, own = _LagState(refit, dicts, cells=1), []
    refit.residual = lambda x, _f=refit.residual: own.append(x) or _f(x)
    coefficient_peak = np.abs(_range_maps(np.hstack(matrices), dicts)).max()
    rng = np.random.default_rng([draw["seed"], 2])
    for size in range(len(support) + 1):
        amplitudes, residuals = lstsq_fit(matrices, dicts, support[:size])
        del own[:]
        _, block_maps, _ = state.residual(support[:size], amplitudes)
        first = max(1, round(head_share * recovery._FIRST_ROWS))
        for rows in (np.sort(rng.permutation(n_range)[:first]), np.arange(n_range)):
            got = block_maps(rows)
            if own:  # a noiseless fit's maps: its residual's (see the noiseless test)
                continue
            # the update rounds at its largest term: |T Y| or K |x_j| (unit atoms)
            peak = coefficient_peak + _fit_peak(dicts, amplitudes)
            np.testing.assert_allclose(got, _block_maps(np.hstack(residuals), dicts, rows),
                                       rtol=0, atol=1e-12 * peak)
    assert state.held <= recovery._FIRST_ROWS * max(len(support) + 1, 1)


@settings(max_examples=60, deadline=None)
@given(row_share=st.floats(0.0, 1.0), **_grids)
@example(row_share=0.5, **_GRID_EXAMPLES[0])
@example(row_share=1.0, **_GRID_EXAMPLES[1])
@example(row_share=0.3, **_GRID_EXAMPLES[2])
def test_block_maps_are_the_range_map_rows(row_share, **draw):
    # both against the dense maps, each channel's row phase taken off
    coeffs, dicts = _grid_instance(**draw)
    n_range = draw["n_range"]
    rows = np.random.default_rng([draw["seed"], 1]).permutation(n_range)[
        :max(1, round(row_share * n_range))]  # unsorted
    stacked = np.hstack(coeffs.matrices)
    want = dense_maps(stacked, dicts)
    peak = np.abs(want).max()
    full = _range_maps(stacked, dicts)
    np.testing.assert_allclose(full, want, rtol=0, atol=1e-9 * peak)
    got = _block_maps(stacked, dicts, rows)
    np.testing.assert_allclose(got, want[rows], rtol=0, atol=1e-9 * peak)


@pytest.mark.parametrize("seed", range(4))
def test_lag_bound_of_a_noiseless_fit_comes_from_the_residual(seed):
    # the expansion rounds at the coefficients' scale, far above this
    # residual's bound; the state takes the bound from the residual instead,
    # so the slack shrinks with it and the scan still prunes, and the block
    # maps from the residual too, not from the update's rounding
    matrices, dicts, support, amplitudes, residuals = _fitted_instance(
        seed=seed, n_channels=3, n_bins=3, total_bins=14, n_range=33, n_rx=2, n_azi=5,
        n_selected=5, noiseless=True)
    weight = 2  # n_rx, with unit-modulus atoms
    state = _LagState(_refit_of(matrices, dicts, support), dicts)
    bound, block_maps, slack = state.residual(support, amplitudes)
    want = row_bound(np.hstack(residuals), dicts, weight)
    assert want.max() < 1e-20 * state.bound.max()
    assert slack == 1e-9 * bound.max()
    np.testing.assert_allclose(bound, want, rtol=0, atol=1e-9 * want.max())
    rows = np.arange(33)
    assert np.array_equal(block_maps(rows), _block_maps(np.hstack(residuals), dicts, rows))


def test_desk_selections_past_a_noiseless_fit_follow_the_residual(desk_envs, monkeypatch):
    # coefficients made of three cells' atoms fit exactly, leaving a residual
    # of about 1e-16 of them: the updated maps would be the update's
    # rounding, so the state maps the residual itself and the surplus
    # selections are the masked argmax of the residual's own scores
    env = desk_envs[ArrayMode.THINNED]
    cells = [(105, 50), (169, 74), (184, 73)]
    x = np.array([1.0, 0.7j, -0.5])
    coeffs = oracle_coefficients(Scene(targets=()), env.array, env.plan, env.bins)
    atoms = _cell_atoms(env.dictionaries)
    stacked = sum(x_j * np.outer(*atoms(n, p)) for x_j, (n, p) in zip(x, cells))
    coeffs = dataclasses.replace(coeffs, matrices=np.stack(np.hsplit(stacked, env.array.num_tx)))
    env.dictionaries._kernel  # built on first use: an earlier test may have built it
    seen, mapped = [], []
    residual, range_maps = _MapState.residual, recovery._range_maps

    def spy(self, support, amplitudes):
        # the residual as the refit forms it for the state's fallback
        seen.append((list(support), self.refit.residual(amplitudes)))
        return residual(self, support, amplitudes)

    monkeypatch.setattr(_MapState, "residual", spy)
    monkeypatch.setattr(recovery, "_range_maps",
                        lambda r, d: mapped.append(r) or range_maps(r, d))
    est = matrix_omp(coeffs, env.dictionaries, max_targets=5)
    assert sorted(est.support[:3]) == cells
    assert est.residual_history[2] < 1e-28 * est.residual_history[0]
    # the coefficients' maps, then the residual's at selections 4, 5
    assert [np.array_equal(r, later)
            for r, (_, later) in zip(mapped[1:], seen[3:])] == [True, True]
    for (support, stacked), cell in zip(seen[3:], est.support[3:]):
        want = brute_force_scores(np.hsplit(stacked, env.array.num_tx), env.dictionaries)
        for n, p in support:
            want[n, p] = -np.inf
        assert want[cell] >= want.max() * (1 - 1e-9)


def _select_through_state(matrices, dicts, support, amplitudes):
    """`_select` on the residual as matrix_omp reaches it: through the state
    of the coefficients, updated by the support and its amplitudes."""
    state = _residual_state(_refit_of(matrices, dicts, support), dicts)
    return _select(*state.residual(support, amplitudes), dicts, support)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_channels=st.integers(1, 3),
       n_bins=st.integers(1, 12), total_bins=st.integers(4, 16),
       n_range=st.integers(2, 40), n_rx=st.integers(1, 4), n_azi=st.integers(1, 9),
       block_rows=st.one_of(st.integers(1, 5), st.integers(1, 48)),
       first_rows=st.one_of(st.integers(1, 3), st.integers(1, 48)),
       n_selected=st.integers(0, 4))
@example(seed=3, n_channels=2, n_bins=5, total_bins=6, n_range=31, n_rx=3, n_azi=4,
         block_rows=2, first_rows=1, n_selected=2)  # C > 2N: the lag-domain scan
@example(seed=0, n_channels=2, n_bins=3, total_bins=16, n_range=40, n_rx=2, n_azi=3,
         block_rows=3, first_rows=2, n_selected=3)  # and a bin span below N
@example(seed=4, n_channels=2, n_bins=6, total_bins=8, n_range=12, n_rx=3, n_azi=5,
         block_rows=16, first_rows=16, n_selected=2)  # one block, C < first rows
@example(seed=5, n_channels=3, n_bins=4, total_bins=5, n_range=13, n_rx=2, n_azi=4,
         block_rows=20, first_rows=16, n_selected=3)  # and the same with C > 2N
def test_bound_pruned_selection_is_the_masked_argmax(block_rows, first_rows, **draw):
    matrices, dicts, support, amplitudes, residuals = _fitted_instance(
        noiseless=False, **draw)
    want = brute_force_scores(residuals, dicts)
    for n, p in support:
        want[n, p] = -np.inf
    refit = _refit_of(matrices, dicts, support)
    state = _residual_state(refit, dicts)
    own = []  # whether the state transforms the residual itself
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refit, "residual", lambda x, _f=refit.residual: own.append(x) or _f(x))
        scan = state.residual(support, amplitudes)
    updated = isinstance(state, _MapState) and support and not own
    # blocks of a few rows leave the candidate pass several blocks to scan,
    # wider ones fit the whole grid; a first pass of more rows than the grid
    # holds scores every row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "_SCORE_BLOCK_CELLS", block_rows * draw["n_azi"])
        mp.setattr(recovery, "_FIRST_ROWS", first_rows)
        got = _select(*scan, dicts, support)
    # The scored maps' entries round at about 1e-16 of the values they come
    # from, v_m: K |R_m| for the residual's own maps (and for brute force),
    # plus |H_m(Y)| + K sum_j |x_j| for the updated desk maps (the lag state's
    # updated block maps are held to the residual's floor). A score of such
    # maps is within 2 sqrt(S) E + E^2 of the true one, E^2 = sum_m (Q_m e_m)^2,
    # e_m the entries' error, so the selected cell's true score is within
    # 4 sqrt(S*) E + 2 E^2 of the best, S*; with e_m below 1e-13 v_m that is
    # under 1e-9 S* + floor, floor = 1e-15 sum_m (Q_m v_m)^2.
    values = [len(dicts.bins) * np.abs(r).max() for r in residuals]
    if updated:
        maps = np.hsplit(_range_maps(np.hstack(matrices), dicts), len(matrices))
        values = [v + np.abs(h).max() + _fit_peak(dicts, amplitudes)
                  for v, h in zip(values, maps)]
    floor = 1e-15 * sum((b.shape[0] * v) ** 2 for v, b in zip(values, dicts.azimuth_atoms))
    # a best score within rounding of zero ties every cell (one bin and one
    # azimuth cell, say) and checks nothing: no such draw is taken
    assume(floor < 1e-9 * want.max())
    # cells within rounding of the maximum; more than one only when the
    # instance ties them exactly (for example a single bin), where rounding
    # decides, so the row-major rule is pinned on bit-exact ties below
    best = np.argwhere(want >= want.max() * (1 - 1e-9) - floor)
    assert list(got) in best.tolist()
    if len(best) == 1:
        assert got == np.unravel_index(np.argmax(want), want.shape)


def _scan_of(matrices, dicts, support):
    """The state's bound, block-map source and slack for `support` held at zero
    amplitudes, the block maps recording the rows each call asks for."""
    state = _residual_state(_refit_of(matrices, dicts, support), dicts)
    bound, block_maps, slack = state.residual(support, np.zeros(len(support), complex))
    calls = []
    return (bound, lambda rows: calls.append(rows.tolist()) or block_maps(rows), slack,
            calls)


def _masked_argmax(block_maps, dicts, support):
    """The argmax of S over the cells not in `support`, every row in one block."""
    scores = _pair_scores(block_maps(np.arange(len(dicts.range_grid))), dicts)
    for cell in support:
        scores[cell] = -np.inf
    return np.unravel_index(np.argmax(scores), scores.shape)


@pytest.mark.parametrize("n_range", [1, 9, recovery._FIRST_ROWS])
def test_a_grid_of_at_most_first_rows_is_scored_once(n_range):
    # C <= _FIRST_ROWS: the head is the whole grid, on the FFT maps (C <= 2N)
    # and on the lag-domain bound (C > 2N)
    for total_bins in (64, 4):
        coeffs, dicts = random_instance(np.random.default_rng(n_range), n_bins=4,
                                        n_range=n_range, total_bins=total_bins)
        for support in ([], [(0, 3), (n_range - 1, 5)]):
            bound, block_maps, slack, calls = _scan_of(coeffs.matrices, dicts, support)
            got = _select(bound, block_maps, slack, dicts, support)
            assert calls == [list(range(n_range))]
            assert got == _masked_argmax(block_maps, dicts, support)


@pytest.mark.parametrize("mode", list(ArrayMode))
def test_a_selection_the_head_decides_scores_the_head_alone(desk_envs, mode):
    # the strong target's score exceeds every bound outside the 16-row head
    env = desk_envs[mode]
    grid, azi = env.range_grid, env.azi_grid
    scene = Scene(targets=(Target(grid.delays[40], azi.values[20], 2.0),
                           Target(grid.delays[200], azi.values[60], 1.0)))
    coeffs = oracle_coefficients(scene, env.array, env.plan, env.bins)
    bound, block_maps, slack, calls = _scan_of(coeffs.matrices, env.dictionaries, [])
    got = _select(bound, block_maps, slack, env.dictionaries, [])
    assert len(calls) == 1 and len(calls[0]) == recovery._FIRST_ROWS
    assert got == (40, 20) == _masked_argmax(block_maps, env.dictionaries, [])


def _tie_instance(n_range):
    """Every cell scores exactly 1, under row bounds that differ.

    Both azimuth columns see receiver 0 only, whose residual is bin 0 alone:
    every range row correlates with it to exactly 1. Receiver 1 holds
    1 - exp(2j*pi*n/C) on row n, which raises every bound but row 0's.
    """
    bins = BinSet(indices=(0, 1), per_channel_bins=4)
    atoms = np.array([[1, 1], [0, 0]], dtype=complex)
    dicts = DictionarySet(azimuth_atoms=atoms[None], bins=bins,
                          range_grid=RangeGrid.from_cells(1e-4, n_range),
                          azi_grid=AzimuthGrid(values=np.array([0.0, 0.5])))
    residual = np.array([[1, 1], [0, -1]], dtype=complex)  # rows: bins 0, 1
    return dicts, residual


# 6 cells take the FFT maps; 12 (> 2N = 8) the lag-domain bound and block maps
_TIE_GRIDS = (6, 12)


def _select_masked(residual, dicts, support):
    """Select on `residual` with `support` masked: zero amplitudes leave the
    state's residual equal to the coefficients, bit for bit."""
    zeros = np.zeros(len(support), dtype=complex)
    return _select_through_state([residual], dicts, support, zeros)


def test_selection_of_an_all_zero_residual_is_the_first_cell(monkeypatch):
    monkeypatch.setattr(recovery, "_SCORE_BLOCK_CELLS", 2)  # one row per block
    for n_range in _TIE_GRIDS:
        dicts, _ = _tie_instance(n_range)
        assert _select_masked(np.zeros((2, 2), dtype=complex), dicts, []) == (0, 0)


@pytest.mark.parametrize("block_rows", [1, 3])
def test_exact_ties_across_rows_resolve_to_the_smallest_cell(monkeypatch, block_rows):
    monkeypatch.setattr(recovery, "_SCORE_BLOCK_CELLS", 2 * block_rows)
    for n_range in _TIE_GRIDS:
        dicts, residual = _tie_instance(n_range)
        state = _residual_state(_refit_of([residual], dicts, [(0, 0)]), dicts)
        bound, block_maps, _ = state.residual([(0, 0)], np.zeros(1, dtype=complex))
        np.testing.assert_array_equal(bound, state.bound)
        assert np.argmax(bound) > 0 and np.argmin(bound) == 0  # row 0 is scanned last
        scores = _pair_scores(block_maps(np.arange(n_range)), dicts)
        assert np.all(scores == scores[0, 0])
        np.testing.assert_allclose(scores, brute_force_scores([residual], dicts))
        assert _select_masked(residual, dicts, []) == (0, 0)
        assert _select_masked(residual, dicts, [(0, 0)]) == (0, 1)
        assert _select_masked(residual, dicts, [(0, 0), (0, 1)]) == (1, 0)


def test_single_block_grid_wider_than_2n_takes_the_lag_domain_scan(monkeypatch):
    # 12 > 2N = 8 cells: the bound comes from the power spectrum and the
    # scored rows' maps from the residuals, though all 24 cells fit one block
    dicts, residual = _tie_instance(12)
    assert len(dicts.range_grid) * len(dicts.azi_grid) <= recovery._SCORE_BLOCK_CELLS
    assert isinstance(_residual_state(_refit_of([residual], dicts, []), dicts), _LagState)
    narrow = _tie_instance(8)[0]
    assert isinstance(_residual_state(_refit_of([residual], narrow, []), narrow), _MapState)
    called = []
    for name in ("_range_maps", "_block_maps"):
        monkeypatch.setattr(recovery, name, lambda *args, _name=name, _f=getattr(
            recovery, name): called.append(_name) or _f(*args))
    assert _select_masked(residual, dicts, []) == (0, 0)
    assert set(called) == {"_block_maps"}


@pytest.fixture(scope="module")
def full_envs():
    return {mode: build_environment(mode, "full", seed=7)
            for mode in (ArrayMode.ULA, ArrayMode.WIDE)}


# the four desk modes and the full grid's ULA and wide
_PROFILE_MODES = [("desk", mode) for mode in ArrayMode] + [
    ("full", ArrayMode.ULA), ("full", ArrayMode.WIDE)]


def _trial_coefficients(env, snr_db=-5.0, seed=7):
    """The acquired coefficients of a seeded 10-target trial; noiseless when
    `snr_db` is None."""
    scene = generate_scene(np.random.default_rng([seed, 0, 0]),
                           SceneSpec(num_targets=10, min_sin_sep=0.025),
                           len(env.range_grid), env.plan.pri)
    rx = synth_received(scene, env.array, env.plan, env.sample_rate)
    if snr_db is not None:
        rx = add_noise(rx, snr_db, [seed, 0, 1])
    return acquire(rx, env.plan, env.adc, env.bins)


def _counting_trial(env, monkeypatch):
    """Per matrix OMP iteration of a seeded -5 dB trial, the range rows scored;
    per call, the `_range_maps` calls on the coefficients and on anything
    else, the shapes of the forward FFTs and the cells whose factors
    `_cell_atoms` builds."""
    coeffs = _trial_coefficients(env)
    rows, calls, ffts, factors = [], {"coefficients": 0, "other": 0}, [], []
    select, range_maps, pair_scores, fft = (recovery._select, recovery._range_maps,
                                            recovery._pair_scores, np.fft.fft)
    stacked, cell_atoms = np.hstack(coeffs.matrices), recovery._cell_atoms

    def counting_select(*args):
        rows.append(0)
        return select(*args)

    def counting_range_maps(residuals, dicts):
        calls["coefficients" if np.array_equal(residuals, stacked) else "other"] += 1
        return range_maps(residuals, dicts)

    def counting_pair_scores(*args):
        score = pair_scores(*args)
        rows[-1] += score.shape[0]
        return score

    def counting_fft(a, *args, **kwargs):
        ffts.append(np.shape(a))
        return fft(a, *args, **kwargs)

    def counting_cell_atoms(dicts):
        atoms = cell_atoms(dicts)
        return lambda n, p: factors.append((n, p)) or atoms(n, p)

    monkeypatch.setattr(recovery, "_range_maps", counting_range_maps)
    monkeypatch.setattr(recovery, "_select", counting_select)
    monkeypatch.setattr(recovery, "_pair_scores", counting_pair_scores)
    monkeypatch.setattr(recovery, "_cell_atoms", counting_cell_atoms)
    monkeypatch.setattr(np.fft, "fft", counting_fft)
    est = matrix_omp(coeffs, env.dictionaries, max_targets=10)
    monkeypatch.setattr(np.fft, "fft", fft)
    return est, rows, calls, ffts, factors


@pytest.mark.parametrize("mode", list(ArrayMode))
def test_desk_trial_scores_at_most_64_rows_per_iteration(desk_envs, monkeypatch, mode):
    # ULA, random and thinned fit one block; wide spans several. The range
    # maps of the coefficients are taken once per call, those of the kernel
    # once per dictionary set (built here, if no earlier test has), and each
    # selected cell's factors once
    env = desk_envs[mode]
    assert len(env.range_grid) <= 2 * env.bins.per_channel_bins
    env.dictionaries._kernel
    est, rows, calls, ffts, factors = _counting_trial(env, monkeypatch)
    assert len(rows) == len(est) == 10
    assert calls == {"coefficients": 1, "other": 0}
    assert ffts == []
    assert factors == list(est.support)
    assert max(rows) <= 64


def test_full_wide_trial_never_builds_full_range_maps(full_envs, monkeypatch):
    # no full range map; the L-point FFTs of the coefficients' M x Q columns
    # run once, then each selected cell takes two more. The bound reads the
    # refit's cell factors: one build per selection, none by the bound. The
    # kernel, the map of atom 0, is built once per dictionary set (here, if
    # no earlier test has)
    env = full_envs[ArrayMode.WIDE]
    assert len(env.range_grid) > 2 * env.bins.per_channel_bins
    env.dictionaries._kernel
    est, rows, calls, ffts, factors = _counting_trial(env, monkeypatch)
    assert len(rows) == len(est) == 10
    assert calls == {"coefficients": 0, "other": 0}
    num_rx, length = env.array.num_rx, ffts[0][-1]
    assert ffts == [(num_rx, length)] * env.array.num_tx + [(2, length)] * 9
    assert factors == list(est.support)
    assert max(rows) <= 64


@pytest.mark.parametrize("mode", [ArrayMode.ULA, ArrayMode.WIDE])
def test_full_trial_transforms_each_scored_row_once(full_envs, monkeypatch, mode):
    # the lag state keeps the coefficients' maps of the rows it scores, so a
    # row scored again by a later selection reads them, with the support's
    # part from the kernel
    env = full_envs[mode]
    coeffs = _trial_coefficients(env)
    transformed, scored = [], []
    partial_dft, pair_scores = recovery._partial_dft, recovery._pair_scores
    monkeypatch.setattr(recovery, "_partial_dft",
                        lambda rows, d: transformed.extend(rows.tolist()) or partial_dft(rows, d))
    monkeypatch.setattr(recovery, "_pair_scores",
                        lambda maps, d: scored.append(len(maps)) or pair_scores(maps, d))
    est = matrix_omp(coeffs, env.dictionaries, max_targets=10)
    assert len(est) == 10
    assert len(transformed) == len(set(transformed))
    assert sum(scored) > len(transformed)


def test_a_scan_of_every_row_keeps_at_most_first_rows_per_selection(full_envs,
                                                                   monkeypatch):
    # white coefficients on the full ULA grid: no row stands out from the
    # residual, so the bound prunes none and every scan opens all 12000 rows,
    # as a close pair merged into one selection can also leave; the rows past
    # the cache's bound are scored and dropped
    env = full_envs[ArrayMode.ULA]
    rng = np.random.default_rng(611)
    shape = (env.array.num_tx, len(env.bins), env.array.num_rx)
    coeffs = CoefficientSet(
        matrices=rng.standard_normal(shape) + 1j * rng.standard_normal(shape), bins=env.bins)
    states, rows = [], []
    residual_state, select, pair_scores = (recovery._residual_state, recovery._select,
                                           recovery._pair_scores)
    monkeypatch.setattr(recovery, "_residual_state",
                        lambda *args: states.append(residual_state(*args)) or states[-1])
    monkeypatch.setattr(recovery, "_select",
                        lambda *args: rows.append(0) or select(*args))

    def counting_pair_scores(maps, dicts):
        rows[-1] += len(maps)
        return pair_scores(maps, dicts)

    monkeypatch.setattr(recovery, "_pair_scores", counting_pair_scores)
    est = matrix_omp(coeffs, env.dictionaries, max_targets=3)
    assert est.support == ((3996, 68), (8446, 18), (11713, 2))
    assert rows == [len(env.range_grid)] * 3
    state, bound = states[0], recovery._FIRST_ROWS * len(est)
    assert isinstance(state, _LagState)
    assert state.held <= bound and len(state.kept) <= bound


@pytest.mark.parametrize("profile", ["desk", "full"])
def test_a_ten_target_call_never_doubles_a_buffer(desk_envs, full_envs, monkeypatch,
                                                  profile):
    # the refit's and the residual state's buffers start at the call's cap
    env = (desk_envs if profile == "desk" else full_envs)[ArrayMode.ULA]
    coeffs = _trial_coefficients(env)
    doubled, double = [], recovery._doubled
    monkeypatch.setattr(recovery, "_doubled",
                        lambda *args, **kwargs: doubled.append(1) or double(*args, **kwargs))
    est = matrix_omp(coeffs, env.dictionaries, max_targets=10)
    assert len(est) == 10 and doubled == []


@pytest.mark.parametrize("total_bins, state_type", [(64, _MapState), (12, _LagState)])
def test_a_call_past_sixteen_cells_doubles_every_buffer_once(monkeypatch, total_bins,
                                                             state_type):
    # 25 range cells: within 2N = 128, the map state; past 2N = 24, the lag state
    coeffs, dicts = random_instance(np.random.default_rng(3), n_rx=4, total_bins=total_bins)
    assert isinstance(_residual_state(_refit_of(coeffs.matrices, dicts, []), dicts),
                      state_type)
    support, amplitudes, history, _ = explicit_residual_omp(coeffs, dicts, 20)
    shapes, double = [], recovery._doubled
    monkeypatch.setattr(recovery, "_doubled", lambda buffer, axes=(0,): shapes.append(
        buffer.shape) or double(buffer, axes))
    est = matrix_omp(coeffs, dicts, max_targets=20)
    assert list(est.support) == support
    np.testing.assert_allclose(est.amplitudes, amplitudes, rtol=0,
                               atol=1e-12 * np.abs(amplitudes).max())
    np.testing.assert_allclose(est.residual_history, history, rtol=0, atol=1e-12 * history[0])
    # the refit's seven and the map state's kernel columns, or the lag
    # state's spectra, cross terms and range cells, each from 16 cells
    assert len(shapes) == (8 if state_type is _MapState else 10)
    assert all(recovery._START_CELLS in shape for shape in shapes)


@pytest.mark.parametrize("max_targets", [10, 14])
@pytest.mark.parametrize("snr_db", [-5.0, None])
@pytest.mark.parametrize("profile, mode", _PROFILE_MODES)
def test_matrix_omp_matches_the_explicit_residual_reference(desk_envs, full_envs, profile,
                                                            mode, snr_db, max_targets):
    # 14 selections of a noiseless 10-target scene run past its exact fit,
    # where the energies and both states fall back to the residual itself
    env = (desk_envs if profile == "desk" else full_envs)[mode]
    coeffs = _trial_coefficients(env, snr_db)
    est = matrix_omp(coeffs, env.dictionaries, max_targets=max_targets)
    support, amplitudes, history, res_norm = explicit_residual_omp(
        coeffs, env.dictionaries, max_targets)
    assert list(est.support) == support
    # the refit's amplitudes are a product with its bordered inverse Gram,
    # the reference's an s x s solve: equal up to rounding
    np.testing.assert_allclose(est.amplitudes, amplitudes, rtol=0,
                               atol=1e-13 * np.abs(amplitudes).max())
    np.testing.assert_allclose(est.residual_history, history, rtol=0,
                               atol=1e-13 * history[0])
    assert abs(est.residual_norm - res_norm) <= 1e-13 * est.signal_norm


@pytest.mark.parametrize("profile", ["desk", "full"])
def test_matrix_omp_solves_no_system_and_takes_no_norm(desk_envs, full_envs, monkeypatch,
                                                       profile):
    # the amplitudes and the pivots' u come from the bordered inverse Gram,
    # the signal norm from the refit's channel energies
    env = (desk_envs if profile == "desk" else full_envs)[ArrayMode.ULA]
    coeffs = _trial_coefficients(env)
    calls = []
    for name in ("solve", "norm"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, **k: calls.append(_name))
    est = matrix_omp(coeffs, env.dictionaries, max_targets=10)
    assert len(est) == 10 and calls == []


@pytest.mark.parametrize("snr_db", [-5.0, None])
@pytest.mark.parametrize("profile, mode", _PROFILE_MODES)
def test_only_a_fit_past_an_exact_fit_forms_the_residual(desk_envs, full_envs, monkeypatch,
                                                         profile, mode, snr_db):
    # a noisy trial reads the residual's energies, bound and maps from the
    # expansions; a noiseless one forms it once its 10 cells fit exactly
    env = (desk_envs if profile == "desk" else full_envs)[mode]
    coeffs = _trial_coefficients(env, snr_db)
    sizes, residual = [], _Refit.residual
    monkeypatch.setattr(_Refit, "residual",
                        lambda self, x: sizes.append(len(x)) or residual(self, x))
    est = matrix_omp(coeffs, env.dictionaries, max_targets=12)
    assert len(est) == 12
    if snr_db is None:
        assert sizes and min(sizes) == 10
    else:
        assert sizes == []


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_channels=st.integers(1, 3),
       n_bins=st.integers(1, 16), total_bins=st.integers(1, 16), n_rx=st.integers(1, 4),
       n_range=st.integers(1, 50), n_azi=st.integers(1, 6), n_selected=st.integers(1, 6),
       share=st.one_of(st.floats(-3.5, -2.5), st.floats(-14.0, 0.0)))
@example(seed=0, n_channels=3, n_bins=12, total_bins=16, n_rx=4, n_range=40, n_azi=5,
         n_selected=6, share=-3.3)
@example(seed=1, n_channels=2, n_bins=10, total_bins=12, n_rx=3, n_range=20, n_azi=6,
         n_selected=4, share=-2.7)
def test_expanded_energies_match_the_explicit_norms(share, **draw):
    # an exact fit plus noise scaled to leave about 10**share of the
    # expansion's terms: half the draws sit within half a decade of the
    # fallback threshold, on either side
    clean, dicts, support, x_clean, _ = _fitted_instance(noiseless=True, **draw)
    assume(support)
    rng = np.random.default_rng([draw["seed"], 2])
    shape = (len(clean),) + clean[0].shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, k = shape[2], len(dicts.bins)
    # the terms of the clean fit: (||Y_m|| + sqrt(K) sum_j |x_j| sqrt(Q))^2
    terms = sum((np.linalg.norm(y) + np.sqrt(k * q) * np.abs(x_clean).sum()) ** 2
                for y in clean)
    matrices = np.stack(clean) + np.sqrt(10.0 ** share * terms) / np.linalg.norm(noise) * noise
    refit, formed = _Refit(np.hstack(matrices), dicts), []
    try:
        for cell in support:
            refit.add(*cell)
    except NumericalError:
        assume(False)
    refit.residual = lambda x, _f=refit.residual: formed.append(x) or _f(x)
    x, energies = refit.fit()
    explicit = np.array([np.linalg.norm(r) ** 2 for r in np.hsplit(
        _Refit.residual(refit, x), draw["n_channels"])])
    np.testing.assert_allclose(energies, explicit, rtol=1e-12)
    # the residual is formed exactly when some channel's energy is below
    # _KEEP_ENERGY of its terms, (||Y_m|| + sqrt(K Q) sum_j |x_j|)^2 for
    # unit-modulus atoms
    fit = np.sqrt(k * q) * np.abs(x).sum()
    ratio = explicit / (np.linalg.norm(matrices, axis=(1, 2)) + fit) ** 2
    assume(np.all(np.abs(ratio / recovery._KEEP_ENERGY - 1) > 1e-9))
    assert bool(formed) == bool(np.any(ratio < recovery._KEEP_ENERGY))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_rejected(desk_env, value):
    scene = Scene(targets=(Target(desk_env.range_grid.delays[10],
                                  desk_env.azi_grid.values[5], 1.0),))
    coeffs = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    y = coeffs.matrices.copy()
    y[1, 0, 0] = complex(value, 0.0)
    bad = dataclasses.replace(coeffs, matrices=y)
    with pytest.raises(ValidationError):
        matrix_omp(bad, desk_env.dictionaries, max_targets=3)


def test_receiver_subset_rejected(desk_env):
    scene = Scene(targets=(Target(desk_env.range_grid.delays[10],
                                  desk_env.azi_grid.values[5], 1.0),))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    full = acquire(rx, desk_env.plan, desk_env.adc, desk_env.bins)
    coeffs = CoefficientSet(matrices=full.matrices[:, :, :5], bins=full.bins)
    with pytest.raises(ValidationError):
        matrix_omp(coeffs, desk_env.dictionaries, max_targets=1)


def test_coherence_of_complete_selection():
    rng = np.random.default_rng(0)
    coeffs, dicts = random_instance(rng, n_bins=12, total_bins=12)
    assert coherence(dicts) == pytest.approx(0.0, abs=1e-12)


def test_coherence_of_single_bin():
    rng = np.random.default_rng(1)
    coeffs, dicts = random_instance(rng, n_bins=1, total_bins=32)
    assert coherence(dicts) == pytest.approx(1.0, abs=1e-12)


def test_coherence_of_reference_slices(desk_env):
    value = coherence(desk_env.dictionaries)
    assert value == pytest.approx(0.42, abs=0.03)


def test_coherence_needs_two_range_cells():
    rng = np.random.default_rng(2)
    coeffs, dicts = random_instance(rng)
    tiny = dataclasses.replace(dicts, range_grid=RangeGrid.from_cells(1e-4, 1))
    with pytest.raises(ValidationError):
        coherence(tiny)


def test_residual_monotonicity_and_stacked_orthogonality():
    for trial in range(20):
        coeffs, dicts = random_instance(np.random.default_rng([3, trial]))
        est = matrix_omp(coeffs, dicts, max_targets=4)
        history = np.array(est.residual_history)
        assert np.all(np.diff(history) <= 1e-9 * history[0])
        # joint refit leaves the stacked residual orthogonal to every atom
        dense = dense_range_atoms(dicts)
        recon = [a[:, [n for n, _ in est.support]]
                 @ (est.amplitudes[:, None] * b[:, [p for _, p in est.support]].T)
                 for a, b in zip(dense, dicts.azimuth_atoms)]
        residuals = [y - r for y, r in zip(coeffs.matrices, recon)]
        scale = sum(np.linalg.norm(y) for y in coeffs.matrices)
        for n, p in est.support:
            stacked = sum(
                np.vdot(np.kron(b[:, p], a[:, n]), r.reshape(-1, order="F"))
                for a, b, r in zip(dense, dicts.azimuth_atoms, residuals))
            assert abs(stacked) <= 1e-8 * scale


def test_first_selection_matches_brute_force():
    for trial in range(10):
        coeffs, dicts = random_instance(np.random.default_rng([4, trial]))
        est = matrix_omp(coeffs, dicts, max_targets=1)
        scores = brute_force_scores(coeffs.matrices, dicts)
        assert est.support[0] == np.unravel_index(np.argmax(scores), scores.shape)


def test_default_stopping_uses_the_residual_tolerance(desk_env):
    scene = Scene(targets=(Target(desk_env.range_grid.delays[10],
                                  desk_env.azi_grid.values[5], 1.0),))
    coeffs = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    est = matrix_omp(coeffs, desk_env.dictionaries)  # no max_targets
    assert est.support == ((10, 5),)
    assert est.residual_rel <= 1e-3
