#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs; write BENCH_<pr>.json.

    git worktree add ../parent HEAD~
    python3 scripts/bench_pairs.py --parent ../parent --out BENCH_<pr>.json

For every workload of BENCHMARK.json, pair i runs `python3 perfbench/run.py
--workload W --seed 501+i --seconds <run_seconds> --trace 0` once in the
parent checkout and once in this repository, for 10 pairs; even pairs run
the parent first, odd pairs the change first, so a drift of the host's
speed hits both sides alike. For every end-to-end metric of BENCHMARK.json
the output gives each side's median and quartiles, the pairs the change
wins and loses, the relative change of the median, the median gain, the
parent's interquartile range, and whether RULE finds the gain met or the
metric worse; the report metrics (`fail_ratio`, detection rates, raw
trials per second) are kept per run, and raw trials per second also gets
the change's pair wins and losses, for comparison with the host-scaled ones.
With --trace-seed, each side also gets one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

PAIRS = 10
FIRST_SEED = 501
RULE = ("a metric's gain is met when the change wins at least 9 of 10 pairs (ties "
        "count for neither side), its median beats the parent's by more than the "
        "parent's interquartile range, every change run is correct and no larger "
        "share of the change's operations fails than of the parent's")
REPORT = ("fail_ratio", "detection_rate", "false_alarm_rate", "strict_rate",
          "trials_per_s.raw")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One perfbench run: its last-line summary plus the report and environment."""
    record_path = checkout / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    record_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: m["value"] for k, m in summary["metrics"].items()},
            "report": {r["name"]: r["value"] for r in record.get("report", [])},
            "environment": record.get("environment", {})}


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def aggregate(pairs, end_to_end) -> dict:
    """Summarize (parent run, change run) pairs of one workload.

    `end_to_end` lists BENCHMARK.json's metric specs (name, better, bound).
    A metric missing from a failed run is left out of that side's
    statistics and of the pair's win and loss counts. Each metric's `met`
    and `worse` apply RULE.
    """
    runs_of = dict(zip(("parent", "change"), zip(*pairs)))
    correct = {side: all(run["correct"] for run in runs) for side, runs in runs_of.items()}
    ops = {side: {key: sum(run[key] for run in runs) for key in ("attempted", "failed")}
           for side, runs in runs_of.items()}
    # failed / attempted on the change side at most the parent's, cross-multiplied
    no_worse = correct["change"] and (ops["change"]["failed"] * ops["parent"]["attempted"]
                                      <= ops["parent"]["failed"] * ops["change"]["attempted"])
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        sides = [[run["metrics"].get(name) for run in side] for side in zip(*pairs)]
        parent, change = ([v for v in side if v is not None] for side in sides)
        if not parent or not change:
            continue
        p, c = _quartiles(parent), _quartiles(change)
        diffs = [sign * (b - a) for a, b in zip(*sides) if a is not None and b is not None]
        wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
        gain, iqr = sign * (c["median"] - p["median"]), p["q3"] - p["q1"]
        metrics[name] = {
            "better": spec["better"], "bound": spec["bound"], "parent": p, "change": c,
            "change_wins": wins, "change_losses": losses,
            "relative_change_of_median": c["median"] / p["median"] - 1.0,
            "median_gain": gain, "parent_iqr": iqr,
            "met": 10 * wins >= 9 * len(pairs) and gain > iqr and no_worse,
            "worse": 10 * losses >= 9 * len(pairs) and -gain > iqr}
    report = {}
    for name in REPORT:
        parent_all, change_all = ([run["report"].get(name) for run in side]
                                  for side in zip(*pairs))
        if None in parent_all or None in change_all:
            continue
        report[name] = {"parent": float(np.median(parent_all)),
                        "change": float(np.median(change_all)),
                        "parent_all": parent_all, "change_all": change_all}
        if name == "trials_per_s.raw":
            # the pairs of trials_per_s without the host-speed scaling, to show
            # whether the probe decided them; report only, no verdict
            diffs = [c - p for p, c in zip(parent_all, change_all)]
            report[name].update(change_wins=sum(d > 0 for d in diffs),
                                change_losses=sum(d < 0 for d in diffs))
    return {"pairs": len(pairs), "metrics": metrics, "report": report,
            "correct": correct, "operations": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one traced run per side and workload")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, names = spec["run_seconds"], [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    workloads, environment = {}, {}
    for workload in names:
        pairs = []
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: run_once(sides[side], workload, seed, seconds) for side in order}
            pairs.append((runs["parent"], runs["change"]))
            environment = {side: run["environment"] for side, run in runs.items()}
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} {runs[side]['metrics'].get('trials_per_s', float('nan')):.4g}"
                for side in order) + " trials/s", flush=True)
        workloads[workload] = aggregate(pairs, spec["end_to_end"])

    out = {
        "command": f"python3 perfbench/run.py --workload <w> --seed <{FIRST_SEED}+i> "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": f"parent and change alternate which side runs first; seed "
                 f"{FIRST_SEED}+i for pair i on both sides",
        "rule": RULE,
        "workloads": workloads,
        "environment": {k: v for k, v in environment.get("change", {}).items()
                        if k != "git_sha"},
        "parent_commit": environment.get("parent", {}).get("git_sha", "")[:7],
    }
    if args.trace_seed is not None:
        traced = {}
        for workload in names:
            runs = {side: run_once(path, workload, args.trace_seed, seconds, trace=1)
                    for side, path in sides.items()}
            traced[workload] = {side: {**run["metrics"], **run["report"]}
                                for side, run in runs.items()}
        out["trace"] = {
            "command": f"python3 perfbench/run.py --workload <w> --seed {args.trace_seed} "
                       f"--seconds {seconds:g} --trace 1",
            "note": "one run per side; raw wall times, median per call, self time",
            "workloads": traced}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
