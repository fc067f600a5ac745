"""The traffic generator: determinism, sizes, sample-count floors."""

import re

import pytest

from benchmarks.e2e.stats import top_percentile
from benchmarks.e2e.workloads import (WORKLOADS, make_schedule,
                                      schedule_digest, workload_names)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", workload_names())
def test_same_seed_same_schedule_other_seed_other(name):
    assert schedule_digest(make_schedule(name, 7)) == \
        schedule_digest(make_schedule(name, 7))
    assert schedule_digest(make_schedule(name, 7)) != \
        schedule_digest(make_schedule(name, 8))


@pytest.mark.parametrize("name", workload_names())
def test_mix_is_fixed_order_is_seeded(name):
    """The seed shuffles the order; the offered mix stays the same."""
    def mix(seed):
        s = make_schedule(name, seed)
        hot = sorted(idx for c in s["consumers"] for idx, _ in c["ops"])
        sizes = sorted(u["size"] for p in s["providers"]
                       for u in p["uploads"])
        return hot, sizes
    assert mix(1) == mix(2)


def test_workload_names_are_the_issues_and_well_formed():
    assert workload_names() == ["faithful_hot", "faithful_bulk",
                                "production_hot", "production_mixed"]
    for name, spec in WORKLOADS.items():
        assert NAME.fullmatch(name)
        assert "\n" not in spec["why"] and len(spec["why"]) <= 200


def test_sample_count_floors():
    """p99 needs >= 1000 invocations, p90 >= 100 uploads/cold invokes."""
    for name in ("faithful_hot", "production_hot", "production_mixed"):
        s = make_schedule(name, 0)
        invokes = sum(len(c["ops"]) for c in s["consumers"]) + \
            sum(len(p["uploads"]) for p in s["providers"])
        assert top_percentile(invokes) == 99, name
    for name in ("faithful_bulk", "production_mixed"):
        s = make_schedule(name, 0)
        uploads = sum(len(p["uploads"]) for p in s["providers"])
        assert top_percentile(uploads) >= 90, name


def test_tokens_are_unique_and_sizes_in_range():
    for name in workload_names():
        s = make_schedule(name, 3)
        tokens = [t for c in s["consumers"] for _, t in c["ops"]] + \
            [u["token"] for p in s["providers"] for u in p["uploads"]]
        assert len(tokens) == len(set(tokens))
        lo, hi = WORKLOADS[name].get("bulk_size_kb", (0, 0))
        for p in s["providers"]:
            for u in p["uploads"]:
                assert lo * 1024 <= u["size"] <= hi * 1024


def test_mixed_schedules_uploads_and_the_crash():
    s = make_schedule("production_mixed", 0)
    assert s["crash"] == {"replica": "appliance04", "at_sim_s": 60.0,
                          "restart_sim_s": 150.0}
    dues = [u["due"] for u in s["providers"][0]["uploads"]]
    assert dues == [15.0 * k for k in range(30)]
    owned = {u["file"] for p in s["providers"] for u in p["uploads"]}
    assert owned == {svc["file"] for svc in s["owned"]} == \
        {f"own{p:02d}.bin" for p in range(4)}
    assert not owned & {svc["file"] for svc in s["services"]}


def test_scale_shortens_but_keeps_shape():
    full = make_schedule("production_mixed", 0)
    tenth = make_schedule("production_mixed", 0, scale=0.1)
    assert len(tenth["consumers"]) == len(full["consumers"])
    assert len(tenth["consumers"][0]["ops"]) == 4
    assert len(tenth["providers"][0]["uploads"]) == 3
