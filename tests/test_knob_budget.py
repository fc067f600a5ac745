"""The knob budget: every setting the deployer, the router, onServe's
configuration and the agent's accept, pinned by name and order — and
every table the service state store keeps in the durable DB.

A keyword can only come back by being added here on purpose, and a
smaller budget (a setting folded into a config object, or made a
constant) is a one-line edit of the tuple it leaves.  A table is what a
restart replays from the WAL, so in-flight state put there outlives the
process that owns it: adding one is an edit of ``STORE_TABLES``.
"""

import inspect

from repro.core.fabric import deploy_fabric
from repro.core.onserve import OnServeConfig
from repro.core.registry import ServiceStateStore
from repro.cyberaide.agent import AgentConfig
from repro.db.dbmanager import DbTierConfig
from repro.db.engine import Database
from repro.ws.router import RequestRouter

DEPLOY_FABRIC = ("testbed", "config", "dbmanager", "replicas", "router",
                 "self_healing", "lease_ttl", "lease_check_interval")

REQUEST_ROUTER = ("host", "fabric", "breaker_failure_threshold",
                  "lease_ttl", "lease_check_interval")

AGENT_CONFIG = ("status_supported", "session_reuse")

STORE_TABLES = ("service_records", "staged_copies", "invocation_dedup")

DB_TIER_CONFIG = ("mvcc", "serialize", "chunk_bytes")

ONSERVE_CONFIG = (
    "grid_username", "grid_passphrase", "poll_interval", "watchdog_timeout",
    "double_write", "upload_cache", "status_supported", "site_policy",
    "retry_max_attempts", "retry_base_delay", "retry_max_delay",
    "retry_jitter", "breaker_failure_threshold", "breaker_reset_timeout",
    "failover_sites", "coalesce", "datapath", "notify", "notify_sites",
    "db_mvcc", "db_serialize", "db_chunk_bytes", "db_replicas",
)  # db_replicas is accepted and ignored: the harness's production
#    profile passes it (DESIGN.md "Harness pins"; ROADMAP item 1)


def parameters(fn):
    """*fn*'s parameter names, ``self`` left out; no ``*args`` or
    ``**kwargs`` may hide a knob."""
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.name != "self"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), fn
    return tuple(p.name for p in params)


def test_deploy_fabric_takes_exactly_its_eight_parameters():
    assert parameters(deploy_fabric) == DEPLOY_FABRIC
    assert len(DEPLOY_FABRIC) == 8


def test_request_router_takes_exactly_its_five_parameters():
    assert parameters(RequestRouter.__init__) == REQUEST_ROUTER
    assert len(REQUEST_ROUTER) == 5


def test_onserve_config_takes_exactly_its_twenty_three_parameters():
    assert parameters(OnServeConfig.__init__) == ONSERVE_CONFIG
    assert len(ONSERVE_CONFIG) == 23


def test_agent_config_takes_exactly_its_two_parameters():
    assert parameters(AgentConfig.__init__) == AGENT_CONFIG
    assert len(AGENT_CONFIG) == 2


def test_db_tier_config_takes_exactly_its_three_parameters():
    assert parameters(DbTierConfig.__init__) == DB_TIER_CONFIG
    assert len(DB_TIER_CONFIG) == 3


def test_the_state_store_keeps_exactly_its_three_tables():
    assert tuple(ServiceStateStore(Database()).db.tables) == STORE_TABLES
