from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submimo import ArrayMode, ValidationError, azimuth_grid, build_mode
from submimo.geometry import virtual_positions


def test_ula_layout_is_the_classic_virtual_array():
    cfg = build_mode(ArrayMode.ULA)
    assert cfg.rx_positions == tuple(range(10))
    assert cfg.tx_positions == (0, 10, 20, 30, 40, 50, 60, 70)
    assert cfg.aperture_slots == 80


def test_ula_pairwise_sums_tile_the_aperture_once():
    cfg = build_mode(ArrayMode.ULA)
    sums = Counter(x + z for x in cfg.tx_positions for z in cfg.rx_positions)
    assert sums == Counter(range(80))


@pytest.mark.parametrize("mode,m,q,t,r,slots", [
    (ArrayMode.ULA, 8, 10, 8, 10, 80),
    (ArrayMode.RANDOM, 8, 10, 8, 10, 80),
    (ArrayMode.THINNED, 4, 5, 8, 10, 80),
    (ArrayMode.WIDE, 8, 10, 20, 20, 400),
])
def test_mode_table(mode, m, q, t, r, slots):
    cfg = build_mode(mode, seed=3)
    assert (cfg.num_tx, cfg.num_rx) == (m, q)
    assert (cfg.virtual_tx, cfg.virtual_rx) == (t, r)
    assert cfg.aperture_slots == slots
    assert cfg.normalized_aperture == t * r / 2


def test_wide_mode_spans_six_meters():
    cfg = build_mode(ArrayMode.WIDE, seed=11)
    assert cfg.aperture_slots == 400
    assert cfg.aperture_m == pytest.approx(6.0)


def test_narrow_modes_span_1_2_meters():
    assert build_mode(ArrayMode.ULA).aperture_m == pytest.approx(1.2)


def test_same_seed_reproduces_layout():
    a = build_mode(ArrayMode.THINNED, seed=42)
    b = build_mode(ArrayMode.THINNED, seed=42)
    assert a == b


def test_distinct_seeds_give_distinct_layouts():
    layouts = {build_mode(ArrayMode.RANDOM, seed=s).tx_positions for s in range(8)}
    assert len(layouts) > 1


def test_virtual_position_examples():
    cfg = build_mode(ArrayMode.ULA)
    assert virtual_positions(cfg, 0)[0] == 0.0
    assert virtual_positions(cfg, 1)[2] == 6.0
    assert virtual_positions(cfg, 7)[9] == 39.5


def test_virtual_position_rejects_bad_indices():
    cfg = build_mode(ArrayMode.ULA)
    with pytest.raises(ValidationError):
        virtual_positions(cfg, 8)
    with pytest.raises(ValidationError):
        virtual_positions(cfg, -1)


def test_azimuth_grid_narrow_modes():
    grid = azimuth_grid(build_mode(ArrayMode.THINNED, seed=1))
    assert len(grid) == 80
    assert grid.spacing == pytest.approx(0.025)


def test_azimuth_grid_wide_mode():
    grid = azimuth_grid(build_mode(ArrayMode.WIDE, seed=1))
    assert len(grid) == 400
    assert grid.spacing == pytest.approx(0.005)


def test_azimuth_grid_is_half_open():
    for mode in ArrayMode:
        grid = azimuth_grid(build_mode(mode, seed=2))
        assert grid.values[0] == -1.0
        assert grid.values[-1] < 1.0


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(list(ArrayMode)), seed=st.integers(0, 10_000))
def test_layout_invariants(mode, seed):
    cfg = build_mode(mode, seed=seed)
    occupied = set(cfg.tx_positions) | set(cfg.rx_positions)
    assert 0 in occupied
    if mode is not ArrayMode.ULA:  # the ULA spans the aperture virtually
        assert cfg.aperture_slots - 1 in occupied
    assert max(cfg.tx_positions) + max(cfg.rx_positions) >= cfg.aperture_slots - 1
    for positions in (cfg.tx_positions, cfg.rx_positions):
        assert all(0 <= p < cfg.aperture_slots for p in positions)
        assert list(positions) == sorted(set(positions))
    for m in range(cfg.num_tx):
        vpos = virtual_positions(cfg, m)
        # half-slot grid: twice the position is an integer
        assert np.all(np.abs(2 * vpos - np.round(2 * vpos)) < 1e-12)
        assert np.all(vpos >= 0) and np.all(vpos <= cfg.aperture_slots - 1)
