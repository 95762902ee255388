import dataclasses

import numpy as np
import pytest
from helpers import brute_force_scores, dense_range_atoms, random_instance
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submimo import (ArrayMode, NumericalError, Scene, Target, ValidationError,
                     build_dictionaries, build_environment, coherence, matrix_omp,
                     oracle_coefficients)
from submimo.geometry import AzimuthGrid
from submimo.recovery import DictionarySet, RangeGrid, _pair_scores, _support_atoms
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
    dicts = DictionarySet(azimuth_atoms=(atom_b,) * 2, bins=bins, tx_indices=(0, 1),
                          range_grid=rgrid, azi_grid=agrid)
    y = np.ones((4, 2), dtype=complex)  # range cell 0, either azimuth cell
    coeffs = CoefficientSet(matrices=(y, -y), bins=bins, tx_indices=(0, 1),
                            rx_indices=(0, 1))
    with pytest.raises(NumericalError):
        matrix_omp(coeffs, dicts, max_targets=2)


def test_dictionaries_need_the_uniform_range_grid(desk_env):
    grid = desk_env.range_grid
    shifted = RangeGrid(delays=grid.delays + grid.resolution / 2,
                        resolution=grid.resolution)
    with pytest.raises(ValidationError):
        build_dictionaries(desk_env.array, desk_env.plan, desk_env.bins, shifted,
                           desk_env.azi_grid)


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
    got = _pair_scores(coeffs.matrices, dicts)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * want.max())


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
