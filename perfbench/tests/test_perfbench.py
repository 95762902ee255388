"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import adapter as api  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workload as wl  # noqa: E402
from spans import TRIAL_SPAN, Tracer  # noqa: E402

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "4", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_guard_kills_a_workload_that_overruns(monkeypatch):
    monkeypatch.setattr(run, "GUARD_S", 0.5)
    args = run.argparse.Namespace(workload="full_scale", seed=1, seconds=0.0, trace=0)
    record, reason = run.run_child(args)
    assert record is None and "guard" in reason


def test_desk_loop_is_run_experiments_pipeline():
    w = wl.WORKLOADS["desk_detect"]
    seed, rounds = 5, 3
    trials = wl.run_rounds(w, wl.build_environments(w, seed), seed, rounds=rounds)
    assert all(t.error is None for t in trials)
    for mode in w.modes:
        mine = [t for t in trials if t.mode == mode]
        ref = api.run_experiment(mode, w.num_targets, w.snr_db, trials=rounds, seed=seed)
        assert wl.detection_rates(mine) == {
            "detection_rate": ref.detection_rate,
            "false_alarm_rate": ref.false_alarm_rate,
            "strict_rate": ref.strict_rate}
        assert [(t.hits, t.false_alarms, t.strict_hits) for t in mine] == [
            (len(r.hits), len(r.false_alarms), r.strict_hits) for r in ref.reports]


def test_perturbed_coefficient_fails_the_frame_check(monkeypatch):
    clean = wl.run("frontend_frames", seed=3, seconds=0.0, trace=False)
    assert clean["correct"] and clean["failed"] == 0

    read = api.read_coefficients

    def perturbed(path):
        coeffs = read(path)
        y = coeffs.matrices[0]
        y[3, 1] += 1e-4 * np.abs(y).max()
        return coeffs

    monkeypatch.setattr(api, "read_coefficients", perturbed)
    record = wl.run("frontend_frames", seed=3, seconds=0.0, trace=False)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] > 0
    fail_ratio = {r["name"]: r["value"] for r in record["report"]}["fail_ratio"]
    assert fail_ratio == 1.0
    assert all("oracle" in error for *_, error in record["trials"])


@pytest.mark.parametrize("workload", ["desk_detect", "frontend_frames"])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    report, result = run_bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[-1] for line in report
               if not line.startswith("#")}
    names = {"desk_detect": ["trials_per_s", "trial_ms.p50", "detection_rate",
                             "false_alarm_rate", "strict_rate"],
             "frontend_frames": ["frames_per_s", "frame_ms.p50"]}[workload]
    for name in names + ["setup_s", "peak_rss_mb", "fail_ratio"]:
        assert name in printed and printed[name]


@pytest.mark.parametrize("workload", ["desk_detect", "frontend_frames"])
def test_traced_run_prints_every_per_layer_metric(workload):
    _, result = run_bench(workload, trace=1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    recovery = [v for k, v in metrics.items()
                if k.startswith("recovery.") and k != "recovery.build_dictionaries_ms"]
    fileio = [v for k, v in metrics.items() if k.startswith("fileio.")]
    if workload == "frontend_frames":
        assert not any(recovery) and all(fileio)
    else:
        assert all(recovery) and not any(fileio)


def test_frames_hold_no_recovery_span_and_wrappers_are_restored():
    from submimo import scene, waveform, xampler
    w = wl.WORKLOADS["frontend_frames"]
    tracer = Tracer()
    frame_dir = wl.OUT_DIR / "frames-selftest"
    frame_dir.mkdir(parents=True, exist_ok=True)
    try:
        trials = wl.run_rounds(w, wl.build_environments(w, 2), 2, rounds=2,
                               tracer=tracer, frame_dir=frame_dir)
    finally:
        frame_dir.rmdir()
    assert all(t.error is None for t in trials)
    names = {s.name for s in tracer.spans}
    assert TRIAL_SPAN in names and "waveform.channel_spectrum" in names
    assert not any(n.startswith("recovery.") for n in names)
    # scene and xampler each call channel_spectrum once per transmitter
    assert tracer.calls_per_trial("waveform.channel_spectrum") == [16, 16, 8, 16]
    assert scene.channel_spectrum is waveform.channel_spectrum
    assert xampler.channel_spectrum is waveform.channel_spectrum


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    own = tracer.self_times()
    assert own[outer.id] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))
    assert own[inner.id] == inner.end - inner.start


def test_probes_around_a_trial_scale_its_time():
    probe = hostspeed.HostProbe()
    probe.at, probe.seconds = [0.0, 2.0, 5.0], [hostspeed.REF_S, 2 * hostspeed.REF_S,
                                               4 * hostspeed.REF_S]
    assert probe.scale(1.0, 0.5) == pytest.approx(1 / 1.5)
    assert probe.scale(0.5, 3.0) == pytest.approx(1 / 2.5)


def test_p90_needs_a_hundred_samples():
    probe = hostspeed.HostProbe()
    probe.at, probe.seconds = [-1.0, 1e9], [hostspeed.REF_S, hostspeed.REF_S]
    few = [wl.Trial(i, "ula", i, False, ms=float(i + 1)) for i in range(99)]
    many = few + [wl.Trial(99, "ula", 99, False, ms=100.0)]
    for trials, has_p90 in ((few, False), (many, True)):
        metrics, extra = wl.end_to_end(trials, [(0.0, 1.0)], probe)
        assert metrics["trial_ms.p50"] == pytest.approx(50.5 if has_p90 else 50.0)
        assert ("trial_ms.p90" in {n for n, *_ in extra}) == has_p90
