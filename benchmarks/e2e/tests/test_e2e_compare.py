"""``compare`` verdicts on hand-made result pairs."""

import copy

import pytest

from benchmarks.e2e.compare import compare_results, verdict
from benchmarks.e2e.metrics import manifest


def _host(values):
    ordered = sorted(values)
    mid = ordered[len(ordered) // 2]
    return {"value": mid, "q1": ordered[1], "q3": ordered[-2],
            "values": list(values), "n": len(values)}


def test_verdict_uses_direction_and_bound():
    assert verdict({"value": 10.0}, {"value": 10.4}, "lower", 0.05) == "same"
    assert verdict({"value": 10.0}, {"value": 10.6}, "lower", 0.05) == "worse"
    assert verdict({"value": 10.0}, {"value": 9.4}, "lower", 0.05) == "better"
    assert verdict({"value": 10.0}, {"value": 9.4}, "higher", 0.05) == "worse"
    assert verdict({"value": 10.0}, {"value": 10.6}, "higher", 0.05) == \
        "better"


def test_verdict_absolute_floor():
    a, b = {"value": 0.20}, {"value": 0.24}          # +20 %, +0.04 s
    assert verdict(a, b, "lower", 0.10) == "worse"
    assert verdict(a, b, "lower", 0.10, abs_floor=0.05) == "same"


def test_wide_spread_is_unresolved_unless_cleanly_separated():
    noisy = _host([9.0, 10.0, 10.0, 11.0, 12.0])      # iqr/median 10 %
    also = _host([9.5, 10.2, 10.2, 11.0, 11.5])
    assert verdict(noisy, also, "lower", 0.05) == "unresolved"
    faster = _host([6.0, 6.5, 7.0, 7.5, 8.0])         # every run better
    assert verdict(noisy, faster, "lower", 0.05) == "better"
    slower = _host([13.0, 14.0, 14.0, 15.0, 16.0])    # every run worse
    assert verdict(noisy, slower, "lower", 0.05) == "worse"
    steady_a = _host([10.0, 10.0, 10.1, 10.1, 10.2])
    steady_b = _host([10.1, 10.1, 10.2, 10.2, 10.3])
    assert verdict(steady_a, steady_b, "lower", 0.05) == "same"


def _result(seed=0):
    e2e = {}
    for m in manifest()["end_to_end"]:
        entry = {"value": 10.0, "unit": m["unit"], "n": 1}
        if m["name"].startswith(("host_", "setup_")):
            entry = {**_host([9.9, 10.0, 10.0, 10.0, 10.1]),
                     "unit": m["unit"]}
        e2e[m["name"]] = entry
    workload = {
        "end_to_end": e2e, "failed_ratio": 0.0,
        "class_latency": {
            "core.publish_p50_sim_s": {"value": 0.5, "unit": "s"},
            "core.hot_invoke_p50_sim_s": {"value": 0.0, "unit": "s"}},
    }
    return {"seed": seed, "comparable": True,
            "workloads": {"faithful_bulk": workload}}


def _rows(report):
    return {r.metric: r.verdict for r in report.rows}


def test_same_commit_compares_same():
    report = compare_results(_result(), _result(), manifest())
    assert set(_rows(report).values()) == {"same"}
    assert not report.regressed
    assert "core.hot_invoke_p50_sim_s" not in _rows(report)  # class absent


def test_same_seed_holds_sim_metrics_to_one_percent():
    change = _result()
    change["workloads"]["faithful_bulk"]["end_to_end"][
        "invoke_p50_sim_s"]["value"] = 10.2           # +2 %
    change["workloads"]["faithful_bulk"]["class_latency"][
        "core.publish_p50_sim_s"]["value"] = 0.52     # +4 %
    rows = _rows(compare_results(_result(), change, manifest()))
    assert rows["invoke_p50_sim_s"] == "worse"
    assert rows["core.publish_p50_sim_s"] == "worse"
    other_seed = copy.deepcopy(change)
    other_seed["seed"] = 1
    rows = _rows(compare_results(_result(), other_seed, manifest()))
    assert rows["invoke_p50_sim_s"] == "same"         # inside the contract bound
    assert rows["core.publish_p50_sim_s"] == "unresolved"


def test_higher_failed_ratio_regresses():
    change = _result()
    change["workloads"]["faithful_bulk"]["failed_ratio"] = 0.001
    report = compare_results(_result(), change, manifest())
    assert _rows(report)["failed_ratio"] == "worse"
    assert report.regressed


def test_goodput_is_higher_better_and_quick_runs_are_refused():
    change = _result()
    change["workloads"]["faithful_bulk"]["end_to_end"][
        "goodput_sim_ops_per_s"]["value"] = 9.0
    assert _rows(compare_results(_result(), change, manifest()))[
        "goodput_sim_ops_per_s"] == "worse"
    quick = _result()
    quick["comparable"] = False
    with pytest.raises(ValueError):
        compare_results(_result(), quick, manifest())
