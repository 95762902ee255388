#!/usr/bin/env python3
"""Check that two checkouts recover the same outputs from the same seeded trials.

    git clone <this repository> ../parent && git -C ../parent checkout HEAD~
    python3 scripts/compare_outputs.py --parent ../parent --seed 4242

Each checkout runs, in its own subprocess with its own `src/` on the path,
the same 10-target trials at SNR_DB: --desk-trials per mode on the four
desk modes and --full-trials per mode on full ULA and wide. Trial r of a
mode takes its scene from `[seed, r, 0]` and its noise from `[seed, r, 1]`
in an environment built from `seed`, as `harness.run_experiment` numbers
trials. For every trial the script reports whether the supports, the
amplitudes, the residual histories and the signal and residual norms are
`np.array_equal`, and per mode the largest relative difference
|change - parent| / |parent| of any amplitude, residual-history entry or
norm over the trials with equal supports, so a change that is not
bit-identical can state its tolerance. It exits 1 when any support differs
and 0 otherwise.
"""

from __future__ import annotations

import argparse
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


def run_trials(seed: int, desk_trials: int, full_trials: int) -> dict:
    """(profile, mode, r) -> the recovered support, amplitudes, history and norms."""
    from submimo import ArrayMode, SceneSpec, build_environment, generate_scene, run_trial

    spec = SceneSpec(num_targets=10, min_sin_sep=0.025)
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
                est, _ = run_trial(env, scene, SNR_DB, [seed, r, 1])
                outputs[profile, mode, r] = {
                    "support": np.array(est.support), "amplitudes": est.amplitudes,
                    "residual_history": np.array(est.residual_history),
                    "signal_norm": np.float64(est.signal_norm),
                    "residual_norm": np.float64(est.residual_norm)}
    return outputs


def outputs_of(checkout: Path, args) -> dict:
    """run_trials in a subprocess that imports `submimo` from `checkout`."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "outputs.pkl"
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
        subprocess.run([sys.executable, __file__, "--worker", str(out),
                        "--seed", str(args.seed), "--desk-trials", str(args.desk_trials),
                        "--full-trials", str(args.full_trials)],
                       cwd=checkout, env=env, check=True)
        return pickle.loads(out.read_bytes())


def relative_difference(parent: np.ndarray, change: np.ndarray) -> float:
    """The largest |change - parent| / |parent| over the entries of equal-shaped
    arrays; a zero parent entry counts 0 if the change's is zero too, else inf."""
    diff = np.abs(change - parent)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0, 0.0, diff / np.abs(parent))
    return float(rel.max(initial=0.0))


def compare(parent: dict, change: dict) -> tuple[dict, dict]:
    """Per trial key, field -> whether both sides' outputs are array-equal; and
    per trial key with equal supports, value field -> `relative_difference`."""
    if parent.keys() != change.keys():
        raise SystemExit("the checkouts ran different trials")
    equal = {key: {f: np.array_equal(parent[key][f], change[key][f]) for f in FIELDS}
             for key in parent}
    diffs = {key: {f: relative_difference(parent[key][f], change[key][f]) for f in VALUES}
             for key in parent if equal[key]["support"]}
    return equal, diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout to compare this one with")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--desk-trials", type=int, default=20)
    parser.add_argument("--full-trials", type=int, default=3)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        args.worker.write_bytes(pickle.dumps(
            run_trials(args.seed, args.desk_trials, args.full_trials)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    equal, diffs = compare(outputs_of(args.parent.resolve(), args), outputs_of(ROOT, args))
    for profile, mode in sorted({key[:2] for key in equal}):
        trials = [same for key, same in equal.items() if key[:2] == (profile, mode)]
        print(f"{profile} {mode}: {len(trials)} trials, " + ", ".join(
            f"{f} equal in {sum(t[f] for t in trials)}" for f in FIELDS))
        rel = [d for key, d in diffs.items() if key[:2] == (profile, mode)]
        print(f"{profile} {mode}: largest relative difference over {len(rel)} trials with "
              f"equal supports: " + ", ".join(
                  f"{f} {max((d[f] for d in rel), default=0.0):.1e}" for f in VALUES))
    for key, same in sorted(equal.items()):
        if not all(same.values()):
            print(f"differs: {key[0]} {key[1]} trial {key[2]}: "
                  + ", ".join(f for f in FIELDS if not same[f]))
    mismatched = sum(not same["support"] for same in equal.values())
    print(f"{len(equal) - mismatched} of {len(equal)} trials with equal supports")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
