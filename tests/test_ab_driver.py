"""benchmarks/ab.py: the paired verdicts and the report's failure rules.

The driver's subprocess side is exercised by running it; these tests
feed :func:`summarise` canned perfbench results instead."""

import pytest

from benchmarks import ab


def result(wall, correct=True, failed=0, attempted=20, **counts):
    metrics = {"wall_s": {"value": wall, "unit": "s"}}
    for name, value in counts.items():
        metrics[name.replace("__", ".")] = {"value": value, "unit": "count"}
    return {
        "correct": correct, "failed": failed, "attempted": attempted,
        "metrics": metrics,
    }


def pairs_of(ref_walls, change_walls, **change_kw):
    return [
        {"ref": result(r), "change": result(c, **change_kw)}
        for r, c in zip(ref_walls, change_walls)
    ]


REF = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
LOWER = {"wall_s": True, "sim.events": True}


def test_a_planted_slowdown_is_a_loss_and_fails():
    summary = ab.summarise(pairs_of(REF, [w * 1.2 for w in REF]), LOWER)
    assert summary["metrics"]["wall_s"]["verdict"] == "loss"
    assert summary["metrics"]["wall_s"]["median_ratio"] == pytest.approx(1.2)
    assert not summary["ok"]


def test_a_consistent_speedup_is_a_gain():
    summary = ab.summarise(pairs_of(REF, [w * 0.9 for w in REF]), LOWER)
    entry = summary["metrics"]["wall_s"]
    assert entry["verdict"] == "gain" and entry["wins"] == 10
    assert summary["ok"]


def test_a_change_inside_the_ref_spread_is_the_same():
    noisy = [w * (1.01 if i % 2 else 0.99) for i, w in enumerate(REF)]
    summary = ab.summarise(pairs_of(REF, noisy), LOWER)
    assert summary["metrics"]["wall_s"]["verdict"] == "same"
    assert summary["ok"]


def test_one_lost_pair_in_ten_still_counts_as_a_gain():
    faster = [w * 0.8 for w in REF]
    faster[3] = REF[3] * 1.01
    summary = ab.summarise(pairs_of(REF, faster), LOWER)
    assert summary["metrics"]["wall_s"]["verdict"] == "gain"


def test_incorrect_side_or_more_failures_fail_the_run():
    summary = ab.summarise(pairs_of(REF, REF, correct=False, failed=1), LOWER)
    assert not summary["ok"]
    assert any("correct: false" in p for p in summary["problems"])
    assert any("share" in p for p in summary["problems"])


def test_counters_compare_exactly_and_a_rise_fails():
    pairs = [
        {"ref": result(10.0, sim__events=100), "change": result(10.0, sim__events=101)}
    ]
    summary = ab.summarise(pairs, LOWER)
    assert summary["metrics"]["sim.events"] == {"ref": 100, "change": 101, "rose": True}
    assert not summary["ok"]
    assert "sim.events" in ab.render(summary)


def test_too_few_pairs_leave_timings_unresolved():
    summary = ab.summarise(pairs_of(REF[:2], [w * 1.5 for w in REF[:2]]), LOWER)
    assert summary["metrics"]["wall_s"]["verdict"] == "unresolved"
    assert summary["ok"]


def test_quartile_gap():
    assert ab.quartile_gap([1.0]) == 0.0
    assert ab.quartile_gap([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(2.0)
