import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "trials_per_s", "better": "higher", "bound": 0.25},
              {"name": "trial_ms.p50", "better": "lower", "bound": 0.25}]


def _run(rate, correct=True, detection=1.0, failed=0, attempted=20):
    report = {name: 0.0 for name in bench_pairs.REPORT}
    report.update(detection_rate=detection, fail_ratio=failed / attempted,
                  **{"trials_per_s.raw": rate})
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "report": report, "environment": {},
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
    assert out["operations"]["change"] == {"attempted": 100, "failed": 0}


def test_aggregate_counts_the_raw_rate_pairs_beside_the_scaled_ones():
    # the host-scaled rate wins every pair; the raw rate splits them
    pairs = []
    for i, (p_raw, c_raw) in enumerate([(1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (4.0, 5.0)]):
        parent, change = _run(1.0 + i), _run(2.0 + i)
        parent["report"]["trials_per_s.raw"] = p_raw
        change["report"]["trials_per_s.raw"] = c_raw
        pairs.append((parent, change))
    out = bench_pairs.aggregate(pairs, END_TO_END)
    assert out["metrics"]["trials_per_s"]["change_wins"] == 4
    raw = out["report"]["trials_per_s.raw"]
    assert (raw["change_wins"], raw["change_losses"]) == (2, 1)  # pair 3 ties
    assert (raw["parent"], raw["change"]) == (2.5, 2.5)
    assert "change_wins" not in out["report"]["detection_rate"]


def test_aggregate_leaves_failed_runs_out_of_the_statistics():
    failed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "report": {},
              "environment": {}}
    pairs = [(_run(1.0), _run(2.0)), (_run(3.0), failed), (_run(5.0), _run(4.0))]
    out = bench_pairs.aggregate(pairs, END_TO_END)
    rate = out["metrics"]["trials_per_s"]
    assert rate["parent"]["median"] == 3.0
    assert rate["change"]["median"] == 3.0
    assert rate["change_wins"] == 1
    assert out["correct"] == {"parent": True, "change": False}
    assert out["operations"]["change"] == {"attempted": 41, "failed": 1}
    assert not rate["met"]  # a failed change run voids the verdict
    assert "fail_ratio" not in out["report"]  # not reported by every run


def test_gain_is_met_by_nine_wins_and_a_gain_beyond_the_parent_iqr():
    parent = [2.0, 2.1, 2.2, 2.3, 2.4, 2.0, 2.1, 2.2, 2.3, 2.4]
    change = [5.0] * 9 + [1.0]  # loses the last pair
    out = bench_pairs.aggregate([(_run(p), _run(c)) for p, c in zip(parent, change)],
                                END_TO_END)
    rate = out["metrics"]["trials_per_s"]
    assert rate["met"]
    assert (out["pairs"], rate["change_wins"]) == (10, 9)
    assert rate["median_gain"] == pytest.approx(5.0 - 2.2)
    assert rate["parent_iqr"] == pytest.approx(0.2)
    assert rate["relative_change_of_median"] == pytest.approx(5.0 / 2.2 - 1.0)
    # lower is better for the per-trial time: the same pairs win
    assert out["metrics"]["trial_ms.p50"]["met"]
    assert out["metrics"]["trial_ms.p50"]["median_gain"] > 0


@pytest.mark.parametrize("change, wins", [
    ([5.0] * 8 + [0.5, 0.5], 8),  # a gain far beyond the IQR, but 8 of 10 pairs won
    ([2.5] * 10, 10),             # every pair won, by less than the parent's IQR
])
def test_gain_is_unmet_on_too_few_wins_or_a_gain_within_the_parent_iqr(change, wins):
    parent = [1.0, 2.4] * 5  # median 1.7, IQR 1.4
    out = bench_pairs.aggregate([(_run(p), _run(c)) for p, c in zip(parent, change)],
                                END_TO_END)
    rate = out["metrics"]["trials_per_s"]
    assert rate["change_wins"] == wins
    assert rate["parent_iqr"] == pytest.approx(1.4)
    assert not rate["met"]


@pytest.mark.parametrize("failing", [
    dict(correct=False),             # a run whose output check failed
    dict(failed=1),                  # a larger share of failed operations
])
def test_gain_is_unmet_when_a_change_run_fails(failing):
    parent = [2.0, 2.1, 2.2, 2.3, 2.4] * 2
    pairs = [(_run(p), _run(5.0, **(failing if i == 3 else {})))
             for i, p in enumerate(parent)]
    out = bench_pairs.aggregate(pairs, END_TO_END)
    rate = out["metrics"]["trials_per_s"]
    assert rate["change_wins"] == 10
    assert rate["median_gain"] > rate["parent_iqr"]
    assert not rate["met"]


def test_equal_failure_shares_keep_the_gain():
    # 1 of 200 operations failed on the parent; 2 of 400 on the faster change
    pairs = [(_run(2.0 + 0.1 * i, failed=int(i == 0)),
              _run(5.0, failed=2 * int(i == 0), attempted=40)) for i in range(10)]
    out = bench_pairs.aggregate(pairs, END_TO_END)
    assert out["operations"] == {"parent": {"attempted": 200, "failed": 1},
                                 "change": {"attempted": 400, "failed": 2}}
    assert out["metrics"]["trials_per_s"]["met"]


def test_worse_mirrors_met_on_losses_beyond_the_parent_iqr():
    parent = [5.0, 5.1, 5.2, 5.3, 5.4] * 2
    change = [2.0] * 9 + [9.0]  # loses 9 of 10 pairs, far beyond the IQR
    out = bench_pairs.aggregate([(_run(p), _run(c)) for p, c in zip(parent, change)],
                                END_TO_END)
    rate = out["metrics"]["trials_per_s"]
    assert (rate["change_wins"], rate["change_losses"]) == (1, 9)
    assert rate["worse"] and not rate["met"]
    # lower is better for the per-trial time: the same pairs lose
    assert out["metrics"]["trial_ms.p50"]["worse"]


@pytest.mark.parametrize("change, losses", [
    ([0.5] * 8 + [9.0, 9.0], 8),  # a loss far beyond the IQR, but on 8 of 10 pairs
    ([0.9, 2.3] * 5, 10),         # every pair lost, by less than the parent's IQR
])
def test_worse_needs_nine_losses_and_a_loss_beyond_the_parent_iqr(change, losses):
    parent = [1.0, 2.4] * 5  # median 1.7, IQR 1.4
    out = bench_pairs.aggregate([(_run(p), _run(c)) for p, c in zip(parent, change)],
                                END_TO_END)
    rate = out["metrics"]["trials_per_s"]
    assert rate["change_losses"] == losses
    assert not rate["worse"]
