#!/usr/bin/env python3
"""Check that two checkouts recover the same outputs from the same seeded trials.

    git clone <this repository> ../parent && git -C ../parent checkout HEAD~
    python3 scripts/compare_outputs.py --parent ../parent --seed 4242
    python3 scripts/compare_outputs.py --parent ../parent --seed 4242 --snr-db inf

Each checkout runs, in its own subprocess with its own `src/` on the path,
the same trials of --targets targets (default 10, the detection
experiment's; the front-end benchmark's frames hold 40) at --snr-db
(default -5 dB, the detection experiment's; inf for noiseless trials):
--desk-trials per mode on the
four desk modes and --full-trials per mode on full ULA and wide. Trial r of a
mode takes its scene from `[seed, r, 0]` and its noise from `[seed, r, 1]`
in an environment built from `seed`, as `harness.run_experiment` numbers
trials. For every trial the script reports whether the supports, the
amplitudes, the residual histories and the signal and residual norms are
`np.array_equal`, and per mode in how many trials the supports hold the
same cells in whatever order, so a change that only reorders the selection
of equal-power targets reads apart from one that loses a target; per mode
it also reports each side's detection and false-alarm rates
(as `harness.run_experiment` counts them), and the largest relative difference
|change - parent| / |parent| of any amplitude or norm over the trials with
equal supports, so a change that is not bit-identical can state its
tolerance. A residual-history entry's difference is taken relative to the
parent history's first entry, not to the entry itself: past an exact fit
the entries are rounding, and a rounding-level change would read as a
large relative one. The same is reported per mode for
the acquired coefficients, taken by the public calls `run_trial` makes
(`synth_received`, `add_noise`, `acquire`), over every trial: a front-end
change moves them at rounding level before the estimates show it. The
noisy frame of every trial also goes through the file path, written by
`fileio.write_received` to a temporary directory, read back by
`fileio.read_received` and acquired, and the script reports per mode in
how many trials those coefficients are `np.array_equal` to the parent's.
Per mode it also reports in how many trials the scenes (each target's
delay, sine and amplitude) and the synthesized frames before noise are
`np.array_equal` to the parent's; a frame is compared by a digest of its
spectrum with -0.0 read as 0.0, so equal digests are equal frames.
Its closing lines count the trials with equal supports and with equal
support sets, and the trials that are bit-identical in every field, in the
acquired coefficients and in the file coefficients. It exits 1 when any
support differs, in its cells or in their order, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DESK_MODES = ("ula", "random", "thinned", "wide")
FULL_MODES = ("ula", "wide")
FIELDS = ("support", "amplitudes", "residual_history", "signal_norm", "residual_norm")
VALUES = FIELDS[1:]  # the fields whose relative difference is reported
SNR_DB = -5.0  # the SNR of the detection experiment and the benchmark trials


def run_trials(seed: int, desk_trials: int, full_trials: int, frames: Path,
               snr_db: float, targets: int = 10) -> dict:
    """(profile, mode, r) -> the recovered support, amplitudes, history and norms,
    the trial's target, estimate, hit and false-alarm counts, its scene as
    (delay, sine, amplitude) rows, the digest of its synthesized frame, and
    the coefficients acquired from the noisy frame and from its files in
    `frames`."""
    from submimo import (ArrayMode, SceneSpec, acquire, add_noise, build_environment,
                         fileio, generate_scene, run_trial, synth_received)

    spec = SceneSpec(num_targets=targets, min_sin_sep=0.025)
    outputs = {}
    for profile, modes, trials in (("desk", DESK_MODES, desk_trials),
                                   ("full", FULL_MODES, full_trials)):
        if not trials:
            continue
        for mode in modes:
            env = build_environment(ArrayMode(mode), profile, seed=seed)
            for r in range(trials):
                scene = generate_scene(np.random.default_rng([seed, r, 0]), spec,
                                       len(env.range_grid), env.plan.pri)
                est, report = run_trial(env, scene, snr_db, [seed, r, 1])
                clean = synth_received(scene, env.array, env.plan, env.sample_rate)
                rx = add_noise(clean, snr_db, [seed, r, 1])
                fileio.write_received(frames, rx, env.plan)
                stored = fileio.read_received(frames, env.plan)
                outputs[profile, mode, r] = {
                    "scene": np.array([(t.delay, t.sin_doa, t.amplitude)
                                       for t in scene.targets], dtype=complex).reshape(-1, 3),
                    "frame": hashlib.sha256((clean.spectrum + 0.0).tobytes()).hexdigest(),
                    "coefficients": acquire(rx, env.plan, env.adc, env.bins).matrices,
                    "file_coefficients": acquire(stored, env.plan, env.adc,
                                                 env.bins).matrices,
                    "support": np.array(est.support), "amplitudes": est.amplitudes,
                    "residual_history": np.array(est.residual_history),
                    "signal_norm": np.float64(est.signal_norm),
                    "residual_norm": np.float64(est.residual_norm),
                    "counts": (len(scene), len(est), len(report.hits),
                               len(report.false_alarms))}
    return outputs


def outputs_of(checkout: Path, args) -> dict:
    """run_trials in a subprocess that imports `submimo` from `checkout`."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "outputs.pkl"
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
        subprocess.run([sys.executable, __file__, "--worker", str(out),
                        "--seed", str(args.seed), "--desk-trials", str(args.desk_trials),
                        "--full-trials", str(args.full_trials),
                        "--snr-db", repr(args.snr_db), "--targets", str(args.targets)],
                       cwd=checkout, env=env, check=True)
        return pickle.loads(out.read_bytes())


def relative_difference(parent: np.ndarray, change: np.ndarray, scale=None) -> float:
    """The largest |change - parent| / |scale| over the entries of equal-shaped
    arrays, `scale` the parent's entries unless given; a zero scale counts 0
    if the difference is zero too, else inf."""
    diff = np.abs(change - parent)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0, 0.0, diff / np.abs(parent if scale is None else scale))
    return float(rel.max(initial=0.0))


def same_cells(parent: np.ndarray, change: np.ndarray) -> bool:
    """Whether two supports of (range cell, azimuth cell) rows hold the same
    cells, in whatever order they were selected."""
    cells = [{tuple(cell) for cell in support.tolist()} for support in (parent, change)]
    return cells[0] == cells[1]


def detection_rates(outputs: dict, profile: str, mode: str) -> tuple[float, float]:
    """The detection rate (hits over targets) and false-alarm rate (false
    alarms over estimates) of one side's trials of one mode."""
    targets, estimates, hits, false_alarms = np.sum(
        [out["counts"] for key, out in outputs.items() if key[:2] == (profile, mode)], axis=0)
    return hits / targets, (false_alarms / estimates if estimates else 0.0)


def compare(parent: dict, change: dict) -> tuple[dict, dict, dict, dict, dict]:
    """Per trial key, field -> whether both sides' outputs are array-equal; per
    trial key, whether the supports hold the same cells (`same_cells`); per
    trial key with equal supports, value field -> `relative_difference`, a
    residual history's against its first entry;
    per trial key, the coefficients' (equal, `relative_difference`) and whether
    the file path's coefficients are array-equal; and per trial key, whether
    the scenes and the synthesized frames are equal."""
    if parent.keys() != change.keys():
        raise SystemExit("the checkouts ran different trials")
    equal = {key: {f: np.array_equal(parent[key][f], change[key][f]) for f in FIELDS}
             for key in parent}
    sets = {key: same_cells(parent[key]["support"], change[key]["support"]) for key in parent}
    diffs = {key: {f: relative_difference(parent[key][f], change[key][f],
                                          parent[key][f][:1] if f == "residual_history"
                                          else None) for f in VALUES}
             for key in parent if equal[key]["support"]}
    coefficients = {}
    for key in parent:
        p, c = parent[key]["coefficients"], change[key]["coefficients"]
        coefficients[key] = (np.array_equal(p, c), relative_difference(p, c),
                             np.array_equal(parent[key]["file_coefficients"],
                                            change[key]["file_coefficients"]))
    inputs = {key: (np.array_equal(parent[key]["scene"], change[key]["scene"]),
                    parent[key]["frame"] == change[key]["frame"]) for key in parent}
    return equal, sets, diffs, coefficients, inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout to compare this one with")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--desk-trials", type=int, default=20)
    parser.add_argument("--full-trials", type=int, default=3)
    parser.add_argument("--snr-db", type=float, default=SNR_DB,
                        help="SNR of every trial in dB; inf for noiseless trials")
    parser.add_argument("--targets", type=int, default=10,
                        help="targets per scene (the front-end benchmark's hold 40)")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        with tempfile.TemporaryDirectory() as frames:
            outputs = run_trials(args.seed, args.desk_trials, args.full_trials,
                                 Path(frames), args.snr_db, args.targets)
        args.worker.write_bytes(pickle.dumps(outputs))
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    sides = {"parent": outputs_of(args.parent.resolve(), args),
             "change": outputs_of(ROOT, args)}
    equal, sets, diffs, coefficients, inputs = compare(sides["parent"], sides["change"])
    for profile, mode in sorted({key[:2] for key in equal}):
        trials = [same for key, same in equal.items() if key[:2] == (profile, mode)]
        print(f"{profile} {mode}: {len(trials)} trials, " + ", ".join(
            f"{f} equal in {sum(t[f] for t in trials)}" for f in FIELDS))
        same = [same for key, same in sets.items() if key[:2] == (profile, mode)]
        print(f"{profile} {mode}: support sets equal in {sum(same)} of {len(same)} trials")
        rates = {side: detection_rates(outputs, profile, mode)
                 for side, outputs in sides.items()}
        print(f"{profile} {mode}: " + ", ".join(
            f"{side} detection {hit:.3f} false alarms {false:.3f}"
            for side, (hit, false) in rates.items()))
        rel = [d for key, d in diffs.items() if key[:2] == (profile, mode)]
        print(f"{profile} {mode}: largest relative difference over {len(rel)} trials with "
              f"equal supports: " + ", ".join(
                  f"{f} {max((d[f] for d in rel), default=0.0):.1e}" for f in VALUES))
        coeffs = [c for key, c in coefficients.items() if key[:2] == (profile, mode)]
        print(f"{profile} {mode}: acquired coefficients equal in "
              f"{sum(same for same, _, _ in coeffs)} of {len(coeffs)} trials, largest "
              f"relative difference {max(d for _, d, _ in coeffs):.1e}")
        print(f"{profile} {mode}: coefficients acquired through frame files equal in "
              f"{sum(same for _, _, same in coeffs)} of {len(coeffs)} trials")
        same = [same for key, same in inputs.items() if key[:2] == (profile, mode)]
        print(f"{profile} {mode}: scenes equal in {sum(s for s, _ in same)} of {len(same)} "
              f"trials, synthesized frames equal in {sum(f for _, f in same)}")
    for key, same in sorted(equal.items()):
        if not all(same.values()):
            print(f"differs: {key[0]} {key[1]} trial {key[2]}: "
                  + ", ".join(f for f in FIELDS if not same[f]))
    mismatched = sum(not same["support"] for same in equal.values())
    print(f"{len(equal) - mismatched} of {len(equal)} trials with equal supports, "
          f"{sum(sets.values())} with equal support sets")
    print(f"bit-identical trials of {len(equal)}: "
          f"{sum(all(same.values()) for same in equal.values())} in every field, "
          f"{sum(same for same, _, _ in coefficients.values())} in the acquired "
          f"coefficients, {sum(same for _, _, same in coefficients.values())} in the "
          f"file coefficients")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
