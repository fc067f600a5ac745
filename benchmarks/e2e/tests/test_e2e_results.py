"""Result records against BENCHMARK.json, and real (tiny) passes."""

import json
from pathlib import Path

import pytest

from benchmarks.e2e import runner
from benchmarks.e2e.metrics import manifest
from benchmarks.e2e.passes import run_pass

ROOT = Path(__file__).resolve().parents[3]


@pytest.fixture(scope="module")
def tiny_passes():
    """production_mixed at a twentieth of its length, in all modes."""
    return {mode: run_pass("production_mixed", 11, mode=mode, scale=0.05)
            for mode in ("plain", "t1", "t2")}


def test_modes_do_not_perturb_the_simulation(tiny_passes):
    plain = tiny_passes["plain"]
    assert plain["failed"] == 0 and plain["attempted"] > 0
    assert plain["dedup_duplicates"] == 0
    for mode in ("t1", "t2"):
        assert tiny_passes[mode]["sim"] == plain["sim"]
        assert tiny_passes[mode]["schedule_digest"] == \
            plain["schedule_digest"]


def test_summary_matches_the_manifest(tiny_passes):
    plain = tiny_passes["plain"]
    summary = runner.summarize([plain, plain],
                               [plain["host"]["setup_s"]] * 3)
    assert summary["problems"] == []
    declared = {m["name"]: m["unit"] for m in manifest()["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["end_to_end"].items()} == \
        declared
    assert all(v["value"] > 0 for v in summary["end_to_end"].values())
    assert summary["failed_ratio"] == 0.0


def test_traced_values_cover_every_per_layer_metric(tiny_passes):
    from benchmarks.e2e.drivers import DRIVERS
    layer = runner.traced_layer_metrics(tiny_passes["t1"],
                                        tiny_passes["t2"],
                                        reference=tiny_passes["plain"])
    assert layer["problems"] == []
    have = set(layer["values"]) | set(DRIVERS) | \
        {"scenarios.fig7_upload_err_ratio"}
    declared = {m["name"] for m in manifest()["per_layer"]}
    assert declared <= have
    # The crash is inside even this short window.
    assert layer["values"]["core.dedup_duplicates"] == 0


def test_summary_reports_a_failed_op_and_a_drifting_pass(tiny_passes):
    good = tiny_passes["plain"]
    bad = json.loads(json.dumps(good))
    bad["failed"], bad["failures"] = 1, ["hot: wrong output"]
    drift = json.loads(json.dumps(good))
    drift["sim"]["values"]["invoke_p50_sim_s"] += 1e-9
    problems = runner.summarize([good, bad, drift], [0.1])["problems"]
    assert any("1 of" in p for p in problems)
    assert any("differ from pass 1" in p for p in problems)


def test_fig7_still_matches_its_golden_and_the_paper():
    check = runner.fig7_check()
    assert check["matches_golden"] is True
    assert check["err_ratio"] < 0.05        # 61.9 s vs ~60 s
