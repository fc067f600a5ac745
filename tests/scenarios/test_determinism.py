"""Reproducibility: identical runs yield bit-identical telemetry."""

import pytest

from repro.scenarios import run_fig6
from repro.scenarios.common import standard_env
from repro.core.invocation import discover_and_invoke
from repro.units import KB, Mbps
from repro.workloads import make_payload


def _full_run(seed):
    env = standard_env(appliance_uplink=Mbps(8), seed=seed)
    tb, stack, sim = env.testbed, env.stack, env.sim
    payload = make_payload("fixed", size=int(KB(32)), runtime="40",
                           output_bytes="2048")
    sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "d.bin", payload))
    sim.run(until=discover_and_invoke(stack, stack.user_clients[0], "D%"))
    sampler = env.sampler
    return {
        "end_time": sim.now,
        "events": sim.events_processed,
        "series": {name: (s.times, s.values)
                   for name, s in sampler.series.items()},
        "report": stack.onserve.runtimes["DService"].last_report.as_dict(),
    }


def test_same_seed_bit_identical():
    a = _full_run(seed=42)
    b = _full_run(seed=42)
    assert a["end_time"] == b["end_time"]
    assert a["events"] == b["events"]
    assert a["series"] == b["series"]
    assert a["report"] == b["report"]


def test_figure_harness_deterministic():
    r1 = run_fig6(seed=7)
    r2 = run_fig6(seed=7)
    assert r1.net_out_total == r2.net_out_total
    assert r1.invocation_total == r2.invocation_total
    assert [s.values for s in r1.series] == [s.values for s in r2.series]
