"""Unit tests for the paired-timing tool's verdicts (benchmarks/pairs.py)."""

from benchmarks.pairs import sim_problems, summarise


def _record(p50=4.77, failed=0, digest="d"):
    return {"schedule_digest": digest, "attempted": 8, "failed": failed,
            "sim": {"values": {"invoke_p50_sim_s": p50}},
            "host": {"host_ms_per_op": 1.0}}


def test_summarise_counts_wins_and_compares_medians_to_the_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99]
    change = [0.90, 0.93, 0.99, 0.91, 0.92]
    got = summarise(parent, change)
    assert got["wins"] == 4 and got["pairs"] == 5  # 0.99 loses to 0.98
    assert got["parent"]["median"] == 1.00
    assert got["change"]["median"] == 0.92
    assert got["beyond_parent_spread"]
    assert round(got["delta_ratio"], 6) == -0.08
    # A change inside the parent's own noise is no gain, nor a worse one.
    assert not summarise(parent, [0.995, 1.0, 1.01, 0.99, 1.0])[
        "beyond_parent_spread"]
    assert not summarise(parent, [1.2] * 5)["beyond_parent_spread"]


def test_sim_problems_names_every_run_that_moved_or_failed():
    same = {"parent": [_record(), _record()], "change": [_record(), _record()]}
    assert sim_problems(same) == []
    moved = {"parent": [_record(), _record()],
             "change": [_record(), _record(p50=4.78)]}
    assert sim_problems(moved) == [
        "change run 2: sim {'invoke_p50_sim_s': 4.78} != "
        "{'invoke_p50_sim_s': 4.77}"]
    failed = {"parent": [_record(failed=1)], "change": [_record(digest="e")]}
    problems = sim_problems(failed)
    assert problems[0] == "parent run 1: 1 failed operations"
    assert any("schedule_digest" in p for p in problems)
