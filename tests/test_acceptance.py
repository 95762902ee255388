"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is fixed here; the seeds make each
criterion a deterministic measurement.
"""

import time

import numpy as np
from helpers import (brute_force_scores, dense_range_atoms, pulse_energy,
                     random_instance, synth_pulse)

from submimo import (AdcConfig, ArrayMode, ExperimentConfig, Scene, SceneSpec,
                     Target, coherence, matrix_omp,
                     oracle_coefficients, run_experiment, sampling_reduction,
                     synth_received)
from submimo.waveform import (build_cognitive_plan, build_fdm_plan,
                              conventional_plan, reference_subbands)
from submimo.xampler import _alias_table, acquire

SEED = 7


class Criterion:
    """Times a criterion and prints its PASS/FAIL line when done."""

    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget_s = budget_s
        self.checks = []

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def expect(self, label, ok):
        self.checks.append((label, bool(ok)))

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            self.expect(f"runtime {elapsed:.1f}s < {self.budget_s}s",
                        elapsed < self.budget_s)
        ok = exc_type is None and all(flag for _, flag in self.checks)
        verdict = "PASS" if ok else "FAIL"
        print(f"\nacceptance {self.number} [{verdict}] {self.title} "
              f"({elapsed:.1f}s)")
        for label, flag in self.checks:
            print(f"    {'ok ' if flag else 'BAD'} {label}")
        if exc_type is None:
            assert ok, f"criterion {self.number} failed"
        return False


def test_acceptance_1_coherence_value(desk_env):
    with Criterion(1, "range-dictionary coherence of the reference slices", 10) as c:
        mu = coherence(desk_env.dictionaries)
        c.expect(f"coherence {mu:.4f} within 0.42 +/- 0.03", abs(mu - 0.42) <= 0.03)


def test_acceptance_2_coset_folding(desk_env):
    with Criterion(2, "reference slices survive 7.5 MHz folding", 1) as c:
        adc = AdcConfig(rate=7.5e6)
        table = _alias_table(desk_env.plan, desk_env.bins, adc)
        c.expect(f"alias table builds, shape {table.shape} == (8, 296, 2)",
                 table.shape == (8, 296, 2))
        bands = reference_subbands()
        bin_hz = 1.0 / desk_env.plan.pri
        folded_7 = (bands[6].lo % adc.rate, bands[6].hi % adc.rate)
        folded_8 = (bands[7].lo % adc.rate, bands[7].hi % adc.rate)
        for name, got, want in (("slice 7", folded_7, (1.14e6, 1.51e6)),
                                ("slice 8", folded_8, (4.82e6, 5.19e6))):
            close = (abs(got[0] - want[0]) <= bin_hz + 1e-6
                     and abs(got[1] - want[1]) <= bin_hz + 1e-6)
            c.expect(f"{name} folds to {got[0]/1e6:.3f}-{got[1]/1e6:.3f} MHz "
                     f"(within one bin of {want[0]/1e6}-{want[1]/1e6})", close)


def test_acceptance_3_reduction_accounting(desk_envs):
    with Criterion(3, "sampling-reduction factors", 1) as c:
        thinned = desk_envs[ArrayMode.THINNED]
        s = sampling_reduction(ArrayMode.THINNED, thinned.plan, thinned.adc)
        c.expect("spectral rate factor == 4", s.spectral_rate_factor == 4.0)
        c.expect("bandwidth factor with guards == 5",
                 s.bandwidth_factor_with_guards == 5.0)
        c.expect("bandwidth factor without guards == 4",
                 s.bandwidth_factor_no_guards == 4.0)
        c.expect("combined reduction 87.5% for the 4x5 mode",
                 s.combined_sampling_reduction_pct == 87.5)
        c.expect("hardware channel reduction 75% for the 4x5 mode",
                 s.hardware_channel_reduction_pct == 75.0)
        ula = desk_envs[ArrayMode.ULA]
        s1 = sampling_reduction(ArrayMode.ULA, ula.plan, ula.adc)
        c.expect("filled array spatial factor == 1", s1.spatial_factor == 1.0)


def test_acceptance_4_oracle_equivalence(desk_env):
    with Criterion(4, "acquisition chain matches the coefficient oracle", 60) as c:
        env = desk_env
        worst = 0.0
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            n_targets = int(rng.integers(1, 6))
            cells = set()
            while len(cells) < n_targets:
                cells.add((int(rng.integers(0, 300)), int(rng.integers(0, 80))))
            scene = Scene(targets=tuple(
                Target(n * env.plan.pri / 300, -1.0 + 2.0 * p / 80,
                       np.exp(2j * np.pi * rng.random()))
                for n, p in cells))
            rx = synth_received(scene, env.array, env.plan, env.sample_rate)
            got = acquire(rx, env.plan, env.adc, env.bins)
            want = oracle_coefficients(scene, env.array, env.plan, env.bins)
            for a, b in zip(got.matrices, want.matrices):
                worst = max(worst, float(np.linalg.norm(a - b) / np.linalg.norm(b)))
        c.expect(f"worst relative Frobenius error {worst:.2e} <= 1e-6",
                 worst <= 1e-6)


def test_acceptance_5_noiseless_exact_recovery():
    with Criterion(5, "noiseless strict recovery, all modes, 20 trials", 300) as c:
        spec = SceneSpec(num_targets=10, min_range_sep_cells=3, min_sin_sep=0.05)
        for mode in ArrayMode:
            record = run_experiment(ExperimentConfig(
                mode=mode, scene=spec, profile="desk", snr_db=None,
                trials=20, seed=SEED))
            c.expect(f"{mode.value}: strict rate {record.strict_rate:.3f} == 1, "
                     f"false alarms {record.false_alarm_rate:.3f} == 0",
                     record.strict_rate == 1.0 and record.false_alarm_rate == 0.0)


def test_acceptance_6_thinned_parity_at_minus_5_db():
    with Criterion(6, "thinned 4x5 parity with the filled array at -5 dB", 900) as c:
        spec = SceneSpec(num_targets=10, min_sin_sep=0.025)
        rates = {}
        for mode in (ArrayMode.ULA, ArrayMode.THINNED):
            record = run_experiment(ExperimentConfig(
                mode=mode, scene=spec, profile="desk", snr_db=-5.0,
                trials=60, seed=SEED))
            rates[mode] = record.detection_rate
        c.expect(f"thinned {rates[ArrayMode.THINNED]:.3f} >= "
                 f"ula {rates[ArrayMode.ULA]:.3f} - 0.05 over 60 identical scenes",
                 rates[ArrayMode.THINNED] >= rates[ArrayMode.ULA] - 0.05)


def test_acceptance_7_resolution_separation():
    with Criterion(7, "0.02 sine-DoA pair: wide mode resolves, coarse modes err",
                   900) as c:
        spec = SceneSpec(num_targets=10, min_sin_sep=0.025,
                         close_pair_sin_gap=0.02)
        pair = {spec.num_targets - 2, spec.num_targets - 1}
        outcomes = {}
        for mode in (ArrayMode.ULA, ArrayMode.THINNED, ArrayMode.WIDE):
            record = run_experiment(ExperimentConfig(
                mode=mode, scene=spec, profile="desk", snr_db=-5.0,
                trials=50, seed=SEED))
            both = sum(1 for r in record.reports
                       if pair <= {t for t, _ in r.hits})
            bad = sum(1 for r in record.reports if r.misses or r.false_alarms)
            outcomes[mode] = (both / 50, bad / 50)
        c.expect(f"wide mode detects both pair targets in "
                 f"{outcomes[ArrayMode.WIDE][0]:.0%} of trials (>= 90%)",
                 outcomes[ArrayMode.WIDE][0] >= 0.90)
        for mode in (ArrayMode.ULA, ArrayMode.THINNED):
            c.expect(f"{mode.value}: >=1 false alarm or miss in "
                     f"{outcomes[mode][1]:.0%} of trials (>= 20%)",
                     outcomes[mode][1] >= 0.20)


def test_acceptance_8_power_conservation():
    with Criterion(8, "cognitive and conventional pulses carry equal power", 5) as c:
        base = build_fdm_plan(8, 15e6, 12e6, 3e6, 100e-6, 4.2e-6)
        cognitive = build_cognitive_plan(base, reference_subbands(), total_power=1.0)
        conventional = conventional_plan(base, total_power=1.0)
        worst = 0.0
        for tx in range(8):
            e_cog = pulse_energy(synth_pulse(cognitive, tx, 120e6))
            e_conv = pulse_energy(synth_pulse(conventional, tx, 120e6))
            worst = max(worst, abs(e_cog - e_conv) / e_conv)
        c.expect(f"worst relative energy mismatch {worst:.2e} < 1%", worst < 0.01)


def test_acceptance_9_solver_properties():
    with Criterion(9, "solver invariants on 1000 random small instances", 300) as c:
        n_mono = n_orth = n_select = 0
        for trial in range(1000):
            rng = np.random.default_rng([SEED, trial])
            coeffs, dicts = random_instance(rng)
            est = matrix_omp(coeffs, dicts, max_targets=3)
            history = np.array(est.residual_history)
            if np.all(np.diff(history) <= 1e-9 * history[0]):
                n_mono += 1
            ns = [n for n, _ in est.support]
            ps = [p for _, p in est.support]
            dense = dense_range_atoms(dicts)
            residuals = [
                y - a[:, ns] @ (est.amplitudes[:, None] * b[:, ps].T)
                for y, a, b in zip(coeffs.matrices, dense, dicts.azimuth_atoms)]
            scale = sum(np.linalg.norm(y) for y in coeffs.matrices)
            ortho = all(
                abs(sum(np.vdot(np.kron(b[:, p], a[:, n]),
                                r.reshape(-1, order="F"))
                        for a, b, r in zip(dense, dicts.azimuth_atoms,
                                           residuals)))
                <= 1e-8 * scale
                for n, p in est.support)
            if ortho:
                n_orth += 1
            scores = brute_force_scores(coeffs.matrices, dicts)
            if est.support[0] == np.unravel_index(int(np.argmax(scores)),
                                                  scores.shape):
                n_select += 1
        c.expect(f"residual monotonicity on {n_mono}/1000", n_mono == 1000)
        c.expect(f"joint-refit orthogonality on {n_orth}/1000", n_orth == 1000)
        c.expect(f"first selection matches the exhaustive score oracle on "
                 f"{n_select}/1000", n_select == 1000)
