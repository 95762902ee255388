import dataclasses

import numpy as np
import pytest
from helpers import brute_force_scores, dense_range_atoms, random_instance
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submimo import (ArrayMode, NumericalError, Scene, SceneSpec, Target,
                     ValidationError, acquire, add_noise, build_environment,
                     coherence, generate_scene, matrix_omp, oracle_coefficients,
                     recovery, synth_received)
from submimo.geometry import AzimuthGrid
from submimo.recovery import (DictionarySet, RangeGrid, _block_maps, _pair_scores,
                              _range_maps, _row_bound, _select, _smooth_length,
                              _support_atoms)
from submimo.xampler import BinSet, CoefficientSet


def test_dictionary_entries_at_the_grid_origin(desk_env):
    dicts = desk_env.dictionaries
    p0 = np.where(desk_env.azi_grid.values == 0.0)[0][0]
    for a, b in _support_atoms(dicts, [(0, p0)]):  # zero delay, broadside
        np.testing.assert_allclose(a[:, 0], np.ones(a.shape[0]))
        np.testing.assert_allclose(b[:, 0], np.ones(b.shape[0]))


@pytest.mark.parametrize("instance", ["desk", "random"])
def test_support_atoms_match_the_dense_formula(desk_env, instance):
    # on the desk grid the channel offset m*N is a multiple of C; the random
    # instance keeps it
    if instance == "desk":
        dicts = desk_env.dictionaries
    else:
        _, dicts = random_instance(np.random.default_rng(5))
    cells = [(n, n % len(dicts.azi_grid)) for n in range(len(dicts.range_grid))]
    for (a, b), dense, full_b in zip(_support_atoms(dicts, cells),
                                     dense_range_atoms(dicts), dicts.azimuth_atoms):
        np.testing.assert_allclose(a, dense, atol=1e-9)
        np.testing.assert_array_equal(b, full_b[:, [p for _, p in cells]])


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
    k, q = len(desk_env.bins), desk_env.array.num_rx
    zeros = tuple(np.zeros((k, q), dtype=complex)
                  for _ in range(desk_env.array.num_tx))
    coeffs = CoefficientSet(matrices=zeros, bins=desk_env.bins,
                            tx_indices=tuple(range(desk_env.array.num_tx)),
                            rx_indices=tuple(range(q)))
    est = matrix_omp(coeffs, desk_env.dictionaries, max_targets=5)
    assert est.support == ()
    assert est.residual_norm == 0.0


def test_mismatched_channels_rejected(desk_env):
    k, q = len(desk_env.bins), desk_env.array.num_rx
    coeffs = CoefficientSet(matrices=(np.zeros((k, q), dtype=complex),),
                            bins=desk_env.bins, tx_indices=(0,),
                            rx_indices=tuple(range(q)))
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
    dicts = DictionarySet(azimuth_atoms=(atom_b,) * 2, bins=bins,
                          range_grid=rgrid, azi_grid=agrid)
    y = np.ones((4, 2), dtype=complex)  # range cell 0, either azimuth cell
    coeffs = CoefficientSet(matrices=(y, -y), bins=bins, tx_indices=(0, 1),
                            rx_indices=(0, 1))
    with pytest.raises(NumericalError):
        matrix_omp(coeffs, dicts, max_targets=2)


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
    got = _pair_scores(_range_maps(coeffs.matrices, dicts), dicts)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * want.max())


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


def _weights(dicts):
    return [np.max(np.sum(np.abs(b) ** 2, axis=0)) for b in dicts.azimuth_atoms]


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
    coeffs, dicts = _grid_instance(**draw)
    weights = _weights(dicts)
    want = sum(np.sum(np.abs(h) ** 2, axis=1) * w
               for h, w in zip(_range_maps(coeffs.matrices, dicts), weights))
    got = _row_bound(coeffs.matrices, dicts, weights)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * want.max())


@settings(max_examples=60, deadline=None)
@given(row_share=st.floats(0.0, 1.0), **_grids)
@example(row_share=0.5, **_GRID_EXAMPLES[0])
@example(row_share=1.0, **_GRID_EXAMPLES[1])
@example(row_share=0.3, **_GRID_EXAMPLES[2])
def test_block_maps_are_the_range_map_rows(row_share, **draw):
    coeffs, dicts = _grid_instance(**draw)
    n_range = draw["n_range"]
    rows = np.random.default_rng([draw["seed"], 1]).permutation(n_range)[
        :max(1, round(row_share * n_range))]  # unsorted
    full = _range_maps(coeffs.matrices, dicts)
    peak = max(np.abs(h).max() for h in full)
    got = _block_maps(np.hstack(coeffs.matrices), dicts, rows)
    assert len(got) == len(full)
    for g, h in zip(got, full):
        np.testing.assert_allclose(g, h[rows], rtol=0, atol=1e-9 * peak)


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
def test_bound_pruned_selection_is_the_masked_argmax(seed, n_channels, n_bins, total_bins,
                                                     n_range, n_rx, n_azi, block_rows,
                                                     first_rows, n_selected):
    rng = np.random.default_rng(seed)
    coeffs, dicts = random_instance(rng, n_channels=n_channels,
                                    n_bins=min(n_bins, total_bins), n_rx=n_rx,
                                    n_range=n_range, n_azi=n_azi, total_bins=total_bins)
    cells = rng.choice(n_range * n_azi, size=min(n_selected, n_range * n_azi - 1),
                       replace=False)
    support = [divmod(int(c), n_azi) for c in cells]
    want = brute_force_scores(coeffs.matrices, dicts)
    for n, p in support:
        want[n, p] = -np.inf
    # blocks of a few rows leave the candidate pass several blocks to scan,
    # wider ones fit the whole grid; a first pass of more rows than the grid
    # holds scores every row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "_SCORE_BLOCK_CELLS", block_rows * n_azi)
        mp.setattr(recovery, "_FIRST_ROWS", first_rows)
        got = _select(coeffs.matrices, dicts, support)
    # cells within float noise of the maximum; more than one only when the
    # instance ties them exactly (for example a single bin), where rounding
    # decides, so the row-major rule is pinned on bit-exact ties below
    best = np.argwhere(want >= want.max() * (1 - 1e-9))
    assert list(got) in best.tolist()
    if len(best) == 1:
        assert got == np.unravel_index(np.argmax(want), want.shape)


def _tie_instance(n_range):
    """Every cell scores exactly 1, under row bounds that differ.

    Both azimuth columns see receiver 0 only, whose residual is bin 0 alone:
    every range row correlates with it to exactly 1. Receiver 1 holds
    1 - exp(2j*pi*n/C) on row n, which raises every bound but row 0's.
    """
    bins = BinSet(indices=(0, 1), per_channel_bins=4)
    atoms = np.array([[1, 1], [0, 0]], dtype=complex)
    dicts = DictionarySet(azimuth_atoms=(atoms,), bins=bins,
                          range_grid=RangeGrid.from_cells(1e-4, n_range),
                          azi_grid=AzimuthGrid(values=np.array([0.0, 0.5])))
    residual = np.array([[1, 1], [0, -1]], dtype=complex)  # rows: bins 0, 1
    return dicts, residual


# 6 cells take the FFT maps; 12 (> 2N = 8) the lag-domain bound and block maps
_TIE_GRIDS = (6, 12)


def test_selection_of_an_all_zero_residual_is_the_first_cell(monkeypatch):
    monkeypatch.setattr(recovery, "_SCORE_BLOCK_CELLS", 2)  # one row per block
    for n_range in _TIE_GRIDS:
        dicts, _ = _tie_instance(n_range)
        assert _select([np.zeros((2, 2), dtype=complex)], dicts, []) == (0, 0)


@pytest.mark.parametrize("block_rows", [1, 3])
def test_exact_ties_across_rows_resolve_to_the_smallest_cell(monkeypatch, block_rows):
    monkeypatch.setattr(recovery, "_SCORE_BLOCK_CELLS", 2 * block_rows)
    for n_range in _TIE_GRIDS:
        dicts, residual = _tie_instance(n_range)
        bound = (_row_bound([residual], dicts, _weights(dicts)) if n_range > 8 else
                 np.sum(np.abs(_range_maps([residual], dicts)[0]) ** 2, axis=1))
        assert np.argmax(bound) > 0 and np.argmin(bound) == 0  # row 0 is scanned last
        scores = _pair_scores(_range_maps([residual], dicts), dicts)
        assert np.all(scores == scores[0, 0])
        assert _select([residual], dicts, []) == (0, 0)
        assert _select([residual], dicts, [(0, 0)]) == (0, 1)
        assert _select([residual], dicts, [(0, 0), (0, 1)]) == (1, 0)


def test_single_block_grid_wider_than_2n_takes_the_lag_domain_scan(monkeypatch):
    # 12 > 2N = 8 cells: the bound and the scored rows' maps come from the
    # residuals, though all 24 cells fit one block
    dicts, residual = _tie_instance(12)
    assert len(dicts.range_grid) * len(dicts.azi_grid) <= recovery._SCORE_BLOCK_CELLS
    called = []
    for name in ("_range_maps", "_row_bound", "_block_maps"):
        monkeypatch.setattr(recovery, name, lambda *args, _name=name, _f=getattr(
            recovery, name): called.append(_name) or _f(*args))
    assert _select([residual], dicts, []) == (0, 0)
    assert called[0] == "_row_bound" and set(called[1:]) == {"_block_maps"}


def _counting_trial(env, monkeypatch, iteration_marker):
    """Range rows scored per matrix OMP iteration on a seeded -5 dB trial."""
    scene = generate_scene(np.random.default_rng([7, 0, 0]),
                           SceneSpec(num_targets=10, min_sin_sep=0.025),
                           len(env.range_grid), env.plan.pri)
    rx = add_noise(synth_received(scene, env.array, env.plan, env.sample_rate),
                   -5.0, [7, 0, 1])
    coeffs = acquire(rx, env.plan, env.adc, env.bins)
    rows, calls = [], {"_range_maps": 0}
    marker, range_maps, pair_scores = (getattr(recovery, iteration_marker),
                                       recovery._range_maps, recovery._pair_scores)

    def counting_marker(*args):
        rows.append(0)
        return marker(*args)

    def counting_range_maps(*args):
        calls["_range_maps"] += 1
        return range_maps(*args)

    def counting_pair_scores(*args):
        score = pair_scores(*args)
        rows[-1] += score.shape[0]
        return score

    monkeypatch.setattr(recovery, "_range_maps", counting_range_maps)
    monkeypatch.setattr(recovery, iteration_marker, counting_marker)
    monkeypatch.setattr(recovery, "_pair_scores", counting_pair_scores)
    est = matrix_omp(coeffs, env.dictionaries, max_targets=10)
    return est, rows, calls["_range_maps"]


@pytest.mark.parametrize("mode", list(ArrayMode))
def test_desk_trial_scores_at_most_64_rows_per_iteration(desk_envs, monkeypatch, mode):
    # ULA, random and thinned fit one block; wide spans several
    env = desk_envs[mode]
    est, rows, _ = _counting_trial(env, monkeypatch, "_range_maps")
    assert len(rows) == len(est) == 10
    assert max(rows) <= 64


def test_full_wide_trial_never_builds_full_range_maps(monkeypatch):
    env = build_environment(ArrayMode.WIDE, "full", seed=7)
    assert len(env.range_grid) > 2 * env.bins.per_channel_bins
    est, rows, range_maps_calls = _counting_trial(env, monkeypatch, "_row_bound")
    assert range_maps_calls == 0
    assert len(rows) == len(est) == 10
    assert max(rows) <= 64


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_rejected(desk_env, value):
    scene = Scene(targets=(Target(desk_env.range_grid.delays[10],
                                  desk_env.azi_grid.values[5], 1.0),))
    coeffs = oracle_coefficients(scene, desk_env.array, desk_env.plan, desk_env.bins)
    y = coeffs.matrices[1].copy()
    y[0, 0] = complex(value, 0.0)
    bad = dataclasses.replace(coeffs, matrices=(coeffs.matrices[0], y)
                              + coeffs.matrices[2:])
    with pytest.raises(ValidationError):
        matrix_omp(bad, desk_env.dictionaries, max_targets=3)


def test_receiver_subset_rejected(desk_env):
    scene = Scene(targets=(Target(desk_env.range_grid.delays[10],
                                  desk_env.azi_grid.values[5], 1.0),))
    rx = synth_received(scene, desk_env.array, desk_env.plan, desk_env.sample_rate)
    full = acquire(rx, desk_env.plan, desk_env.adc, desk_env.bins)
    coeffs = CoefficientSet(matrices=tuple(y[:, :5] for y in full.matrices),
                            bins=full.bins, tx_indices=full.tx_indices,
                            rx_indices=tuple(range(5)))
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
