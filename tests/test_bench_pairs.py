import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "trials_per_s", "better": "higher", "bound": 0.25},
              {"name": "trial_ms.p50", "better": "lower", "bound": 0.25}]


def _run(rate, correct=True, detection=1.0):
    report = {name: 0.0 for name in bench_pairs.REPORT}
    report.update(detection_rate=detection, **{"trials_per_s.raw": rate})
    return {"correct": correct, "report": report, "environment": {},
            "metrics": {"trials_per_s": rate, "trial_ms.p50": 1000.0 / rate}}


def test_aggregate_gives_quartiles_wins_and_the_parent_iqr():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [2.5, 1.5, 6.0, 8.0, 10.0]  # loses pair 1 only
    pairs = [(_run(p), _run(c, detection=0.9)) for p, c in zip(parent, change)]
    out = bench_pairs.aggregate(pairs, END_TO_END)
    rate = out["metrics"]["trials_per_s"]
    assert rate["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert rate["change"] == {"median": 6.0, "q1": 2.5, "q3": 8.0}
    assert rate["change_wins"] == 4
    assert rate["parent_iqr"] == 2.0
    assert rate["relative_change_of_median"] == pytest.approx(1.0)
    assert (rate["better"], rate["bound"]) == ("higher", 0.25)
    # lower is better for the per-trial time: the same four pairs win
    assert out["metrics"]["trial_ms.p50"]["change_wins"] == 4
    detection = out["report"]["detection_rate"]
    assert (detection["parent"], detection["change"]) == (1.0, 0.9)
    assert detection["change_all"] == [0.9] * 5
    assert out["pairs"] == 5
    assert out["correct"] == {"parent": True, "change": True}


def test_aggregate_leaves_failed_runs_out_of_the_statistics():
    failed = {"correct": False, "metrics": {}, "report": {}, "environment": {}}
    pairs = [(_run(1.0), _run(2.0)), (_run(3.0), failed), (_run(5.0), _run(4.0))]
    out = bench_pairs.aggregate(pairs, END_TO_END)
    rate = out["metrics"]["trials_per_s"]
    assert rate["parent"]["median"] == 3.0
    assert rate["change"]["median"] == 3.0
    assert rate["change_wins"] == 1
    assert out["correct"] == {"parent": True, "change": False}
    assert "fail_ratio" not in out["report"]  # not reported by every run
