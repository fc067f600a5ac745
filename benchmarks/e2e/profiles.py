"""The two deployment profiles, as plain dicts of existing kwargs.

``faithful`` is the golden-contract path: ``OnServeConfig()`` on the
single appliance.  ``production`` is ROADMAP item 1(b): every optional
plane on at once, the three paper-flaw flags (``double_write``,
``upload_cache``, ``status_supported``) left faithful.  Nothing here is
a new knob in ``src/`` — each key is a keyword the named entry point
already takes.
"""

from __future__ import annotations

__all__ = ["TESTBED", "UPLINK_KB_PER_S", "PROFILES"]

#: ``build_testbed`` shape shared by every workload.
TESTBED = {"n_sites": 4, "nodes_per_site": 4, "cores_per_node": 8}

#: The paper's measured appliance uplink (80-90 KB/s, Figure 7).
UPLINK_KB_PER_S = 85

PROFILES = {
    "faithful": {
        "config": {},
        "fabric": None,            # deploy_onserve
        "client_caches": False,
    },
    "production": {
        "config": {
            "coalesce": True, "datapath": True, "notify": True,
            "db_mvcc": True, "db_serialize": True,
            "db_chunk_bytes": 4 * 1024 * 1024, "db_replicas": 2,
        },
        "fabric": {"replicas": 8, "router": True, "self_healing": True},
        "client_caches": True,
    },
}
