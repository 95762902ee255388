"""One benchmark workload in one process: set up, run trials, check, report.

`run.py` starts this file in a child process with the BLAS thread count
pinned and a wall-clock guard, and reads the JSON record it prints as its
last line. Each workload is a closed loop with one caller: a trial starts
when the previous one has finished. Trials cycle through the workload's
array modes round-robin; round r of every mode uses the scene drawn from
[seed, r, 0] and the noise drawn from [seed, r, 1], as
`harness.run_experiment` does for trial r. A host-speed probe
(hostspeed.py) runs between trials; the result line's times are scaled
by it, and `--seconds` counts trial time only.

With --trace 1 the rounds alternate untraced and traced. Spans come from
the traced rounds and the set-up; the difference between the two kinds of
round is the tracing overhead.

Running this file directly skips the pinning, which is how the BLAS
thread comparison in NOTES.md was made:

    OPENBLAS_NUM_THREADS=2 python3 perfbench/workload.py \\
        --workload desk_detect --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import adapter as api
from hostspeed import HostProbe
from spans import TRIAL_SPAN, Tracer, median_or_zero

OUT_DIR = api.ROOT / ".bench_out"

# frames are stored as float32 I/Q and coefficients as complex64, so the
# read-back coefficients match the oracle to a few float32 ulps
FRAME_TOL = 8 * float(np.finfo(np.float32).eps)

# smallest sample count that makes a p90 worth reporting
MIN_P90_SAMPLES = 100

# both profiles detect nearly every target at -5 dB; far less means the
# recovery is broken, not unlucky
MIN_DETECTION_RATE = 0.85


@dataclass(frozen=True)
class Workload:
    profile: str
    modes: tuple[str, ...]
    num_targets: int
    snr_db: float | None   # None: noiseless
    recover: bool          # False: front end and file path only
    setup_reps: int


WORKLOADS = {
    "desk_detect": Workload("desk", ("ula", "random", "thinned", "wide"),
                            num_targets=10, snr_db=-5.0, recover=True, setup_reps=15),
    "full_scale": Workload("full", ("ula", "wide"),
                           num_targets=10, snr_db=-5.0, recover=True, setup_reps=3),
    "frontend_frames": Workload("desk", ("ula", "random", "thinned", "wide"),
                                num_targets=40, snr_db=None, recover=False,
                                setup_reps=15),
}

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms.p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "recovery.matrix_omp_ms": "ms",
    "recovery.omp_iterations": "count",
    "recovery.matrix_omp_ms_per_iter": "ms",
    "recovery.hit_ratio": "ratio",
    "recovery.build_dictionaries_ms": "ms",
    "harness.environment_mb": "MB",
    "harness.build_environment_ms": "ms",
    "harness.generate_scene_ms": "ms",
    "harness.match_targets_ms": "ms",
    "geometry.build_mode_ms": "ms",
    "waveform.channel_spectrum_ms": "ms",
    "waveform.channel_spectrum_calls": "count",
    "scene.synth_received_ms": "ms",
    "scene.add_noise_ms": "ms",
    "xampler.acquire_ms": "ms",
    "xampler.channels_processed": "count",
    "fileio.write_received_ms": "ms",
    "fileio.read_received_ms": "ms",
    "fileio.write_coefficients_ms": "ms",
    "fileio.read_coefficients_ms": "ms",
    "fileio.bytes_written": "bytes",
    "trace_overhead_pct": "%",
}


class CheckFailed(Exception):
    """A trial's output disagrees with what the inputs imply."""


@dataclass
class Trial:
    index: int
    mode: str
    round: int
    traced: bool
    start: float = 0.0
    ms: float = 0.0
    error: str | None = None
    truths: int = 0
    estimates: int = 0
    hits: int = 0
    false_alarms: int = 0
    strict_hits: int = 0
    iterations: int = 0
    channels: int = 0
    bytes_written: int = 0


# -- set-up -------------------------------------------------------------------

def build_environments(w: Workload, seed: int) -> dict:
    return {mode: api.build_environment(mode, w.profile, seed) for mode in w.modes}


def timed_setup(w: Workload, seed: int,
                probe: HostProbe) -> tuple[dict, list[tuple[float, float]]]:
    """Build the workload's environments `setup_reps` times; keep the last set.

    Returns the set and the (start, seconds) of each build, with a probe
    taken before each build and after the last.
    """
    envs: dict = {}
    builds = []
    for _ in range(w.setup_reps):
        envs = {}  # release the previous set, so peak memory holds one set
        probe.sample()
        t0 = time.perf_counter()
        envs = build_environments(w, seed)
        builds.append((t0, time.perf_counter() - t0))
    probe.sample()
    return envs, builds


def environment_mb(w: Workload, seed: int) -> float:
    """Memory retained by the largest single environment, by tracemalloc."""
    sizes = []
    for mode in w.modes:
        tracemalloc.start()
        try:
            env = api.build_environment(mode, w.profile, seed)
            sizes.append(tracemalloc.get_traced_memory()[0] / 2**20)
        finally:
            tracemalloc.stop()
        del env
    return max(sizes)


# -- one trial ----------------------------------------------------------------

def detect_trial(w: Workload, spec, env, seed: int, rnd: int):
    truth = api.generate_scene(spec, seed, rnd, env)
    rx = api.synth_received(truth, env)
    rx = api.add_noise(rx, w.snr_db, seed, rnd)
    coeffs = api.acquire(rx, env)
    estimate = api.matrix_omp(coeffs, env, len(truth))
    report = api.match_targets(truth, estimate, env)
    return truth, coeffs, estimate, report


def frame_trial(spec, env, seed: int, rnd: int, frame_dir: Path):
    truth = api.generate_scene(spec, seed, rnd, env)
    rx = api.synth_received(truth, env)
    api.write_received(frame_dir, rx, env)
    coeffs = api.acquire(api.read_received(frame_dir), env)
    path = frame_dir / "coefficients.bin"
    api.write_coefficients(path, coeffs)
    return truth, api.read_coefficients(path)


def check_estimate(truth, estimate, env) -> None:
    if len(estimate) != len(truth):
        raise CheckFailed(f"{len(estimate)} estimates for {len(truth)} targets")
    if len(set(estimate.support)) != len(estimate.support):
        raise CheckFailed("a grid cell was selected twice")
    n_range, n_azi = len(env.range_grid), len(env.azi_grid)
    if any(not (0 <= n < n_range and 0 <= p < n_azi) for n, p in estimate.support):
        raise CheckFailed("selected cell outside the grid")
    if not np.all(np.isfinite(estimate.amplitudes)):
        raise CheckFailed("non-finite amplitude")
    history = np.asarray(estimate.residual_history)
    if np.any(np.diff(history) > 1e-9 * history[0]):
        raise CheckFailed("residual grew between iterations")
    if not estimate.residual_rel < 1.0:
        raise CheckFailed(f"relative residual {estimate.residual_rel} >= 1")


def check_frame(truth, coeffs, env) -> None:
    oracle = api.oracle_coefficients(truth, env)
    if (coeffs.tx_indices, coeffs.rx_indices) != (oracle.tx_indices, oracle.rx_indices):
        raise CheckFailed("read-back channels differ from the array's")
    for m, (y, ref) in enumerate(zip(coeffs.matrices, oracle.matrices)):
        err = float(np.max(np.abs(y - ref)) / np.max(np.abs(ref)))
        if not err <= FRAME_TOL:
            raise CheckFailed(f"channel {m}: coefficients off the oracle by {err:.3g} "
                              f"of the peak (> {FRAME_TOL:.3g})")


def run_trial(w: Workload, spec, env, trial: Trial, seed: int,
              tracer: Tracer | None, frame_dir: Path | None) -> Trial:
    """Time one trial's pipeline calls, then check its output outside the timing."""
    try:
        with tracer.span(TRIAL_SPAN, trial=trial.index) if tracer else nullcontext():
            trial.start = time.perf_counter()
            if w.recover:
                out = detect_trial(w, spec, env, seed, trial.round)
            else:
                out = frame_trial(spec, env, seed, trial.round, frame_dir)
            trial.ms = (time.perf_counter() - trial.start) * 1e3
        if w.recover:
            truth, coeffs, estimate, report = out
            check_estimate(truth, estimate, env)
            trial.truths, trial.estimates = len(truth), len(estimate)
            trial.hits, trial.false_alarms = len(report.hits), len(report.false_alarms)
            trial.strict_hits = report.strict_hits
            trial.iterations = len(estimate.residual_history)
        else:
            truth, coeffs = out
            check_frame(truth, coeffs, env)
        trial.channels = len(coeffs.tx_indices) * len(coeffs.rx_indices)
    except CheckFailed as exc:
        trial.error = f"check: {exc}"
    except Exception as exc:  # trial boundary: record the failure, keep running
        trial.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        if frame_dir is not None:
            for f in frame_dir.iterdir():
                trial.bytes_written += f.stat().st_size
                f.unlink()
    if trial.error:
        print(f"trial {trial.index} ({trial.mode}, round {trial.round}) failed: "
              f"{trial.error}", file=sys.stderr)
    return trial


def run_rounds(w: Workload, envs: dict, seed: int, seconds: float | None = None,
               rounds: int | None = None, tracer: Tracer | None = None,
               frame_dir: Path | None = None,
               probe: HostProbe | None = None) -> list[Trial]:
    """Run whole rounds (every mode once) for `seconds`, or exactly `rounds`.

    `seconds` counts trial time only, not probes or checks. With a tracer,
    odd rounds run with the spanning wrappers installed; at least two
    rounds run so that both kinds exist. With a probe, one is taken before
    the first trial, between trials every `hostspeed.EVERY_S` and after the
    last trial.
    """
    spec = api.scene_spec(w.num_targets)
    targets = api.trace_targets() if tracer else []
    min_rounds = 2 if tracer else 1
    trials: list[Trial] = []
    rnd = 0
    while (rnd < rounds) if rounds is not None else (
            rnd < min_rounds or sum(t.ms for t in trials) / 1e3 < seconds):
        traced = tracer is not None and rnd % 2 == 1
        with tracer.wrapped(targets) if traced else nullcontext():
            for mode in w.modes:
                if probe:
                    probe.sample_if_due()
                trial = Trial(index=len(trials), mode=mode, round=rnd, traced=traced)
                trials.append(run_trial(w, spec, envs[mode], trial, seed,
                                        tracer if traced else None, frame_dir))
        rnd += 1
    if probe:
        probe.sample()
    return trials


# -- metrics ------------------------------------------------------------------

def detection_rates(trials: list[Trial]) -> dict:
    truths = sum(t.truths for t in trials)
    estimates = sum(t.estimates for t in trials)
    return {
        "detection_rate": sum(t.hits for t in trials) / truths if truths else 0.0,
        "false_alarm_rate": (sum(t.false_alarms for t in trials) / estimates
                             if estimates else 0.0),
        "strict_rate": sum(t.strict_hits for t in trials) / truths if truths else 0.0,
    }


def end_to_end(trials: list[Trial], builds: list[tuple[float, float]],
               probe: HostProbe) -> tuple[dict, list]:
    """The result line's metrics, plus the longer report printed above it.

    Times in the result line are scaled to the reference host speed
    (hostspeed.py); the report gives the raw ones too.
    """
    ok = [t for t in trials if t.error is None]
    raw = [t.ms for t in ok]
    ms = [t.ms * probe.scale(t.start, t.ms / 1e3) for t in ok]
    setup = [s * probe.scale(t0, s) for t0, s in builds]
    setup_raw = [s for _, s in builds]
    metrics = {
        "trials_per_s": len(ms) / (sum(ms) / 1e3),
        "trial_ms.p50": statistics.median(ms),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = [("trial_ms.samples", len(ms), "count")]
    if len(ms) >= MIN_P90_SAMPLES:
        extra.append(("trial_ms.p90", statistics.quantiles(ms, n=10)[-1], "ms"))
    extra += [
        ("setup_s.samples", len(setup), "count"),
        ("trials_per_s.raw", len(raw) / (sum(raw) / 1e3), "1/s"),
        ("trial_ms.p50.raw", statistics.median(raw), "ms"),
        ("setup_s.raw", statistics.median(setup_raw), "s"),
        ("host_probe_ms.p50", statistics.median(probe.seconds) * 1e3, "ms"),
        ("host_probe.samples", len(probe.seconds), "count"),
    ]
    return metrics, extra


def per_layer(trials: list[Trial], tracer: Tracer, env_mb: float) -> dict:
    own = tracer.self_ms_by_name()
    traced = [t for t in trials if t.traced and t.error is None]
    plain = [t for t in trials if not t.traced and t.error is None]
    iterations = {t.index: t.iterations for t in traced}
    omp_spans = [s for s in tracer.spans if s.name == "recovery.matrix_omp"]
    self_by_id = tracer.self_times()
    per_iter = [self_by_id[s.id] * 1e3 / iterations[s.trial] for s in omp_spans
                if iterations.get(s.trial)]
    recovered = [t for t in trials if t.estimates]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def round_ms(subset):
        rounds: dict[int, float] = {}
        for t in subset:
            rounds[t.round] = rounds.get(t.round, 0.0) + t.ms
        return median_or_zero(list(rounds.values()))

    untraced_round = round_ms(plain)
    metrics = {name: median_or_zero(own.get(name.removesuffix("_ms"), []))
               for name in PER_LAYER_UNITS if name.endswith("_ms")}
    metrics.update({
        "recovery.omp_iterations": mean([t.iterations for t in recovered]),
        "recovery.matrix_omp_ms_per_iter": median_or_zero(per_iter),
        "recovery.hit_ratio": (sum(t.hits for t in recovered)
                               / sum(t.estimates for t in recovered)
                               if recovered else 0.0),
        "harness.environment_mb": env_mb,
        "waveform.channel_spectrum_calls": mean(
            tracer.calls_per_trial("waveform.channel_spectrum")),
        "xampler.channels_processed": mean([t.channels for t in trials if t.channels]),
        "fileio.bytes_written": mean([t.bytes_written for t in trials]),
        "trace_overhead_pct": ((round_ms(traced) / untraced_round - 1.0) * 100.0
                               if untraced_round else 0.0),
    })
    return {name: metrics[name] for name in PER_LAYER_UNITS}


# -- entry point --------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[workload]
    env_mb = environment_mb(w, seed) if trace else 0.0
    tracer = Tracer() if trace else None
    probe = HostProbe()
    with tracer.wrapped(api.trace_targets()) if tracer else nullcontext():
        envs, builds = timed_setup(w, seed, probe)

    frame_dir = None if w.recover else OUT_DIR / f"frames-{os.getpid()}"
    if frame_dir is not None:
        frame_dir.mkdir(parents=True, exist_ok=True)
    try:
        trials = run_rounds(w, envs, seed, seconds=seconds, tracer=tracer,
                            frame_dir=frame_dir, probe=probe)
    finally:
        if frame_dir is not None:
            shutil.rmtree(frame_dir, ignore_errors=True)

    failed = [t for t in trials if t.error]
    checks = []
    quality = detection_rates(trials) if w.recover else {}
    if w.recover and quality["detection_rate"] < MIN_DETECTION_RATE:
        checks.append(f"detection rate {quality['detection_rate']:.3f} below "
                      f"{MIN_DETECTION_RATE}")
    ok = [t for t in trials if t.error is None]

    report = [("fail_ratio", len(failed) / len(trials), "ratio")]
    report += [(k, v, "ratio") for k, v in quality.items()]
    if tracer:
        metrics = per_layer(trials, tracer, env_mb)
        units = PER_LAYER_UNITS
        tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.json")
        trial_spans = [s.end - s.start for s in tracer.spans if s.name == TRIAL_SPAN]
        omp = sum(tracer.self_ms_by_name().get("recovery.matrix_omp", []))
        if trial_spans:
            report.append(("recovery.matrix_omp_share_pct",
                           omp / (sum(trial_spans) * 1e3) * 100.0, "%"))
        report.append(("spans", len(tracer.spans), "count"))
    elif ok:
        metrics, extra = end_to_end(trials, builds, probe)
        units = END_TO_END_UNITS
        report += extra
    else:
        metrics, units = {}, END_TO_END_UNITS

    per_mode = {}
    for mode in w.modes:
        mine = [t for t in ok if t.mode == mode]
        per_mode[mode] = {"trials": len(mine),
                          "trial_ms.p50": median_or_zero([t.ms for t in mine]),
                          **(detection_rates(mine) if w.recover else {})}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": api.run_environment(),
        "sizes": {**asdict(w),
                  "range_cells": api.range_cells(w.profile),
                  "rounds": len({t.round for t in trials})},
        "correct": not failed and not checks,
        "attempted": len(trials),
        "failed": len(failed),
        "checks_failed": checks,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "report": [{"name": n, "value": v, "unit": u} for n, v, u in report],
        "per_mode": per_mode,
        "setup_raw_s": [s for _, s in builds],
        "probe_s": probe.seconds,
        "trials": [[t.mode, t.round, t.ms, t.error] for t in trials],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
