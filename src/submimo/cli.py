"""Command-line entry points for the simulation and recovery pipeline.

Every subcommand reads the shared INI configuration and exits 0 on
success; failures print `error: <category>: <message>` on stderr and map
the category to a stable nonzero exit code.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio, harness
from .errors import RadarError
from .geometry import ArrayMode, mode_shape
from .recovery import matrix_omp
from .scene import add_noise, synth_received
from .xampler import acquire

_EXIT_CODES = {"config": 2, "validation": 3, "io": 4, "numerical": 5}


def _cmd_simulate(args) -> int:
    env = fileio.ToolkitConfig.from_file(args.config).environment()
    scene = fileio.read_scene(args.scene)
    rx = synth_received(scene, env.array, env.plan, env.sample_rate)
    if args.snr_db is not None:
        rx = add_noise(rx, args.snr_db, args.noise_seed)
    fileio.write_received(args.out, rx, env.plan)
    print(f"wrote {rx.num_rx} receiver frames to {args.out}")
    return 0


def _cmd_acquire(args) -> int:
    env = fileio.ToolkitConfig.from_file(args.config).environment()
    rx = fileio.read_received(args.infile, env.plan)
    coeffs = acquire(rx, env.plan, env.adc, env.bins)
    fileio.write_coefficients(args.out, coeffs)
    if args.csv:
        fileio.coefficients_to_csv(args.csv, coeffs)
    m, k, q = coeffs.matrices.shape
    print(f"extracted {k} bins x {q} receivers x {m} channels -> {args.out}")
    return 0


def _cmd_recover(args) -> int:
    env = fileio.ToolkitConfig.from_file(args.config).environment()
    coeffs = fileio.read_coefficients(args.infile)
    estimate = matrix_omp(coeffs, env.dictionaries, max_targets=args.max_targets)
    fileio.write_estimate_csv(args.out, estimate)
    print(f"recovered {len(estimate)} targets "
          f"(relative residual {estimate.residual_rel:.3e}) -> {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = fileio.ToolkitConfig.from_file(args.config)
    if args.mode:
        cfg = cfg.in_mode(fileio.parse_mode(args.mode))
    exp = cfg.experiment()
    record = harness.run_experiment(exp, cfg.environment())
    fileio.write_metrics(args.out, record)
    print(f"mode {exp.mode.value}: detection {record.detection_rate:.3f}, "
          f"false alarms {record.false_alarm_rate:.3f}, "
          f"strict {record.strict_rate:.3f} over {exp.trials} trials -> {args.out}")
    return 0


def _cmd_reduction(args) -> int:
    cfg = fileio.ToolkitConfig.from_file(args.config)
    modes = ([fileio.parse_mode(args.mode)] if args.mode != "all"
             else list(ArrayMode))
    rows = []
    for mode in modes:
        plan = cfg.cognitive_plan(mode_shape(mode)[0])
        summary = harness.sampling_reduction(mode, plan, cfg.adc())
        rows.append((mode.value, summary))
    header = (f"{'mode':>8} {'rate_x':>7} {'bw_guard_x':>10} {'bw_x':>6} "
              f"{'spatial_x':>9} {'combined_%':>10} {'channels_%':>10}")
    print(header)
    for name, s in rows:
        print(f"{name:>8} {s.spectral_rate_factor:7.2f} "
              f"{s.bandwidth_factor_with_guards:10.2f} "
              f"{s.bandwidth_factor_no_guards:6.2f} {s.spatial_factor:9.3f} "
              f"{s.combined_sampling_reduction_pct:10.2f} "
              f"{s.hardware_channel_reduction_pct:10.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("mode,spectral_rate_factor,bandwidth_factor_with_guards,"
                     "bandwidth_factor_no_guards,spatial_factor,"
                     "combined_sampling_reduction_pct,hardware_channel_reduction_pct\n")
            for name, s in rows:
                fh.write(f"{name},{s.spectral_rate_factor!r},"
                         f"{s.bandwidth_factor_with_guards!r},"
                         f"{s.bandwidth_factor_no_guards!r},{s.spatial_factor!r},"
                         f"{s.combined_sampling_reduction_pct!r},"
                         f"{s.hardware_channel_reduction_pct!r}\n")
    return 0


def _cmd_ppi(args) -> int:
    env = fileio.ToolkitConfig.from_file(args.config).environment()
    truth = fileio.read_scene(args.scene)
    estimate = fileio.read_estimate_csv(args.estimate)
    report = harness.match_targets(truth, estimate, env.range_grid, env.azi_grid)
    harness.emit_ppi(report, truth, estimate, args.out)
    print(f"{len(report.hits)} hits, {len(report.false_alarms)} false alarms, "
          f"{len(report.misses)} misses -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submimo",
        description="Sub-Nyquist MIMO radar simulation and recovery toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", "-c", required=True, help="INI configuration file")
        p.set_defaults(fn=fn)
        return p

    p = add("simulate", _cmd_simulate, "synthesize received I/Q frames for a scene")
    p.add_argument("--scene", required=True, help="scene text file")
    p.add_argument("--out", "-o", required=True, help="output directory")
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--noise-seed", type=int, default=0)

    p = add("acquire", _cmd_acquire, "run the sub-Nyquist receiver on I/Q frames")
    p.add_argument("--in", dest="infile", required=True, help="input I/Q directory")
    p.add_argument("--out", "-o", required=True, help="output coefficient blob")
    p.add_argument("--csv", default=None, help="also dump coefficients as CSV")

    p = add("recover", _cmd_recover, "sparse range/azimuth recovery from a blob")
    p.add_argument("--in", dest="infile", required=True, help="coefficient blob")
    p.add_argument("--out", "-o", required=True, help="estimate CSV")
    p.add_argument("--max-targets", type=int, default=None)

    p = add("experiment", _cmd_experiment, "seeded Monte-Carlo detection experiment")
    p.add_argument("--out", "-o", required=True, help="output directory")
    p.add_argument("--mode", default=None, help="override the configured mode")

    p = add("reduction", _cmd_reduction, "sampling-reduction accounting table")
    p.add_argument("--mode", default="all")
    p.add_argument("--out", "-o", default=None, help="optional CSV output")

    p = add("ppi", _cmd_ppi, "plan-position-indicator plot from scene + estimate")
    p.add_argument("--scene", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--out", "-o", required=True, help="output SVG path")
    return parser


def _joined_values(argv) -> list[str]:
    """`argv` with each `--snr-db VALUE` pair written `--snr-db=VALUE`, and so
    each pair whose option is an abbreviation argparse takes for `--snr-db`.

    argparse reads a separate token that starts with '-' but is not a plain
    decimal, such as `-inf` or `-1e3`, as an option, not as the value.
    """
    joined: list[str] = []
    for token in argv:
        if joined and len(joined[-1]) >= 4 and "--snr-db".startswith(joined[-1]):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    args = build_parser().parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except RadarError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return _EXIT_CODES["io"]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
