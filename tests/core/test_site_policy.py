"""Tests for onServe site-selection policies."""

import pytest

from repro.core import OnServeConfig, deploy_onserve, discover_and_invoke
from repro.errors import OnServeError
from repro.grid import build_testbed
from repro.units import KB, Mbps
from repro.workloads import make_payload


def run_invocations(policy, n=4):
    tb = build_testbed(n_sites=3, nodes_per_site=2, cores_per_node=4,
                       appliance_uplink=Mbps(20))
    stack = tb.sim.run(until=deploy_onserve(
        tb, OnServeConfig(site_policy=policy)))
    payload = make_payload("fixed", size=int(KB(2)), runtime="5")
    tb.sim.run(until=stack.portal.upload_and_generate(
        tb.user_hosts[0], "p.bin", payload))
    runtime = stack.onserve.runtimes["PService"]
    sites = []
    for _ in range(n):
        tb.sim.run(until=discover_and_invoke(stack, stack.user_clients[0],
                                             "P%"))
        sites.append(runtime.last_report.job_id.rsplit("-job-", 1)[0])
    return tb, sites


def test_policy_validation():
    for policy in ("nearest-pub", "random"):
        with pytest.raises(OnServeError, match="site policy"):
            OnServeConfig(site_policy=policy)


def test_round_robin_rotates_sites():
    tb, sites = run_invocations("round_robin", n=4)
    ordered = sorted({s.name for s in tb.sites})
    assert sites[:3] == ordered  # one pass over all three sites
    assert sites[3] == ordered[0]


def test_best_prefers_idle_sites():
    # Sequential 5 s jobs: each finishes before the next starts, so the
    # ranking ties and "best" keeps the deterministic first pick.
    tb, sites = run_invocations("best", n=2)
    assert len(set(sites)) == 1
