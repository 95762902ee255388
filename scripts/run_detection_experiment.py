#!/usr/bin/env python3
"""Detection-rate comparison across array modes on identical noisy scenes.

Reproduces the first prototype experiment at desk scale: ten targets with a
minimum sine-DoA spacing, one pulse, complex white Gaussian noise, and the
same seeded scenes for every mode. Prints a rate table and optionally dumps
per-mode metrics and a PPI display of the first trial.
"""

import argparse
from pathlib import Path

import numpy as np

from submimo import (ArrayMode, ExperimentConfig, SceneSpec, build_environment,
                     emit_ppi, fileio, generate_scene, run_experiment,
                     run_trial)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--snr-db", type=float, default=-5.0)
    ap.add_argument("--targets", type=int, default=10)
    ap.add_argument("--min-sin-sep", type=float, default=0.025)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--profile", default="desk", choices=("desk", "full"))
    ap.add_argument("--out", default=None, help="directory for metrics and PPI files")
    args = ap.parse_args()

    spec = SceneSpec(num_targets=args.targets, min_sin_sep=args.min_sin_sep)
    print(f"{args.trials} trials, SNR {args.snr_db} dB, "
          f"{args.targets} targets, min sine spacing {args.min_sin_sep}")
    print(f"{'mode':>8} {'detection':>10} {'strict':>8} {'false_alarm':>12}")
    for mode in ArrayMode:
        record = run_experiment(ExperimentConfig(
            mode=mode, scene=spec, profile=args.profile, snr_db=args.snr_db,
            trials=args.trials, seed=args.seed))
        print(f"{mode.value:>8} {record.detection_rate:10.3f} "
              f"{record.strict_rate:8.3f} {record.false_alarm_rate:12.3f}")
        if args.out:
            out = Path(args.out) / mode.value
            fileio.write_metrics(out, record)

    if args.out:
        # PPI of the first trial for the thinned mode
        env = build_environment(ArrayMode.THINNED, args.profile, seed=args.seed)
        scene = generate_scene(np.random.default_rng([args.seed, 0, 0]), spec,
                               len(env.range_grid), env.plan.pri)
        est, report = run_trial(env, scene, args.snr_db, [args.seed, 0, 1])
        emit_ppi(report, scene, est, Path(args.out) / "ppi_thinned_trial0.svg")
        print(f"wrote metrics and PPI under {args.out}")


if __name__ == "__main__":
    main()
