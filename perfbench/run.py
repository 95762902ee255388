#!/usr/bin/env python3
"""Run one submimo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_detect --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the workload imports submimo from
`src/`. It runs in a child process with BLAS pinned to one thread, under a
wall-clock guard, so a hang fails the run instead of stalling it and
`peak_rss_mb` belongs to that workload alone. The lines above the last
give the full report and the run environment; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics, or the per-layer ones with --trace 1). The full record, and the
spans of a traced run, are written under `.bench_out/`. Exits 1 when an
output check fails or the guard fires, 2 when the checkout has no source.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("desk_detect", "full_scale", "frontend_frames")

# one BLAS thread, so results do not depend on the host's core count;
# desk_detect measured no faster on two threads (NOTES.md)
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

# a run must end within 180 s; the guard leaves room to report
GUARD_S = 170.0


def run_child(args) -> tuple[dict | None, str]:
    """Run the workload process; return its record, or None and the reason."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **PINNED_THREADS})
    try:
        out, _ = proc.communicate(timeout=GUARD_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"workload exceeded the {GUARD_S:.0f} s guard and was killed"
    if proc.returncode != 0:
        return None, f"workload process exited with code {proc.returncode}"
    lines = out.strip().splitlines()
    if not lines:
        return None, "workload process printed no record"
    return json.loads(lines[-1]), ""


def print_report(record: dict) -> None:
    rename = {}
    if record["workload"] == "frontend_frames":  # a trial is one frame
        rename = {"trials_per_s": "frames_per_s", "trial_ms": "frame_ms"}

    def label(name: str) -> str:
        head, dot, tail = name.partition(".")
        return rename.get(head, head) + dot + tail

    env, sizes = record["environment"], record["sizes"]
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    print(f"# sizes: {json.dumps(sizes)}")
    print(f"# environment: {json.dumps(env)}")
    print(f"# attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {record['correct']}")
    for check in record["checks_failed"]:
        print(f"# check failed: {check}")
    rows = [(n, m["value"], m["unit"]) for n, m in record["metrics"].items()]
    rows += [(r["name"], r["value"], r["unit"]) for r in record["report"]]
    for name, value, unit in rows:
        print(f"{label(name):<36} {value:>14.6g} {unit}")
    for mode, stats in record["per_mode"].items():
        print(f"# {mode}: " + "  ".join(
            f"{label(k)} {v:.4g}" for k, v in stats.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "submimo" / "__init__.py").is_file():
        print(f"no submimo source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    record, reason = run_child(args)
    if record is None:
        print(f"# {reason}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    print_report(record)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
