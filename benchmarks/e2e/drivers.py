"""Layer drivers (L): each layer's public functions timed directly.

Every driver builds a workload-shaped input once, then returns a
zero-argument *loop* that performs a known number of operations; the
timing frame runs the loop for at least ``loop_s`` host seconds, five
times, and keeps the median.  The inputs mirror what the four workloads
feed the layer (4 KB control envelopes and 1 MB base64 payloads for
SOAP, a 24-service registry for UDDI, an 8-replica ring, a 2 MB BLOB, a
4-node x 8-core site) so a driver moves with the end-to-end number it
is predicted to couple to (README, "Coupling").
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, Tuple

__all__ = ["DRIVERS", "run_drivers"]

REPS = 5
#: A driver returns (loop, operations per loop call).
Driver = Callable[[], Tuple[Callable[[], Any], float]]


def _payload(size: int) -> bytes:
    from repro.workloads.executables import make_payload
    return make_payload("echo", size=size, runtime="4.000", nonce="driver")


# -- simkernel / hardware -----------------------------------------------------

def _timeout_events():
    from repro.simkernel.kernel import Simulator
    n = 2000

    def loop():
        sim = Simulator(seed=0)
        for i in range(n):
            sim.timeout(float(i % 97))
        sim.run()
    return loop, n


def _process_switch():
    from repro.simkernel.kernel import Simulator
    procs, hops = 16, 125

    def hopper(sim):
        for _ in range(hops):
            yield sim.timeout(0.0)

    def loop():
        sim = Simulator(seed=0)
        for _ in range(procs):
            sim.process(hopper(sim))
        sim.run()
    return loop, procs * hops


def _fairshare():
    from repro.hardware.network import Network
    from repro.simkernel.kernel import Simulator
    flows = 16

    def loop():
        sim = Simulator(seed=0)
        net = Network(sim)
        net.connect("a", "b", bandwidth=85 * 1024.0, latency=0.02)
        for i in range(flows):
            net.transfer("a", "b", 16384.0 * (i + 1))
        sim.run()
    return loop, flows


# -- ws -----------------------------------------------------------------------

def _soap(nbytes: int) -> Driver:
    def build():
        from repro.ws.soap import SoapEnvelope
        data = _payload(nbytes)

        def loop():
            wire = SoapEnvelope.request(
                "uploadExecutable",
                {"session": "s-0001", "site": "ncsa", "path": "/tmp/x",
                 "data": data}).encode()
            SoapEnvelope.decode(wire)
            reply = SoapEnvelope.response("uploadExecutable", "ok").encode()
            SoapEnvelope.decode(reply).result()
        return loop, 1
    return build


def _wsdl_stub():
    from repro.ws.client import generate_stub
    from repro.ws.registryapi import (OperationSpec, ParameterSpec,
                                      ServiceDescription)
    from repro.ws.wsdl import generate_wsdl, parse_wsdl
    token = ParameterSpec("token", "xsd:string")
    description = ServiceDescription("Hot07Service", [
        OperationSpec("execute", [token]),
        OperationSpec("submit", [token]),
        OperationSpec("poll", [ParameterSpec("ticket", "xsd:string")],
                      return_type="xsd:boolean"),
        OperationSpec("result", [ParameterSpec("ticket", "xsd:string")]),
        OperationSpec("describe"),
    ])

    def loop():
        document = generate_wsdl(description, "soap://router/Hot07Service")
        parse_wsdl(document)
        generate_stub(document)
    return loop, 1


def _uddi_find():
    from repro.ws.uddi import UddiRegistry
    uddi = UddiRegistry()
    business = uddi.save_business("Cyberaide onServe")
    for j in range(24):
        entry = uddi.save_service(business.key, f"Hot{j:02d}Service")
        uddi.save_binding(entry.key, access_point=f"soap://r/Hot{j:02d}",
                          wsdl_location=f"soap://r/Hot{j:02d}?wsdl")

    def loop():
        for j in range(24):
            hit = uddi.find_service(f"Hot{j:02d}%")[0]
            uddi.get_bindings(hit.key)
    return loop, 24


def _ring_lookup():
    from repro.ws.router import HashRing
    ring = HashRing()
    for i in range(1, 9):
        ring.add(f"appliance{i:02d}")
    keys = [f"Hot{j:02d}Service" for j in range(24)]

    def loop():
        for key in keys:
            ring.owner(key)
            ring.preference(key)
    return loop, len(keys)


# -- db -----------------------------------------------------------------------

def _history_db(rows: int = 1000, mvcc: bool = False):
    from repro.db.engine import Database
    from repro.db.table import Column
    db = Database(mvcc=mvcc)
    db.create_table("invocations", [
        Column("id", "INT", primary_key=True),
        Column("service", "TEXT", nullable=False),
        Column("total", "REAL", nullable=False),
    ])
    db.create_index("invocations", "service", "hash")
    for i in range(rows):
        db.insert("invocations", [i, f"Hot{i % 24:02d}Service", 6.0 + i])
    return db


def _sql_point_select():
    from repro.db.sql import execute_sql
    db = _history_db()

    def loop():
        for i in range(0, 1000, 50):
            execute_sql(db, f"SELECT total FROM invocations WHERE id = {i}")
    return loop, 20


def _insert_commit():
    db = _history_db(rows=0)
    state = {"next": 0}

    def loop():
        base = state["next"]
        for i in range(base, base + 20):
            with db.transaction():
                db.insert("invocations", [i, "Hot00Service", 6.0])
        state["next"] = base + 20
    return loop, 20


def _blob(op: str, chunk_bytes: int = 0) -> Driver:
    """DbManager.store_executable / load_executable on a 2 MB BLOB."""
    def build():
        from repro.db.dbmanager import DbManager, DbTierConfig
        from repro.hardware.host import Host
        from repro.hardware.network import Network
        from repro.simkernel.kernel import Simulator
        size = 2 * 1024 * 1024
        data = _payload(size)
        sim = Simulator(seed=0)
        host = Host(sim, "appliance", Network(sim))
        manager = DbManager(host, tier=DbTierConfig(
            mvcc=chunk_bytes > 0, chunk_bytes=chunk_bytes))
        sim.run(until=manager.store_executable("blob.bin", data))

        def store():
            sim.run(until=manager.store_executable("blob.bin", data))

        def load():
            sim.run(until=manager.load_executable("blob.bin"))
        return (store if op == "store" else load), size / 2 ** 20
    return build


def _wal_recover():
    from repro.db.engine import Database
    image = _history_db().wal.snapshot()

    def loop():
        Database.recover(image)
    return loop, 1


def _replica_catch_up():
    from repro.db.replica import ReadReplica
    from repro.simkernel.kernel import Simulator
    sim = Simulator(seed=0)
    db = _history_db(rows=0)
    replica = ReadReplica(sim, db, lag=0.0)
    state = {"next": 0}

    def loop():
        base = state["next"]
        for i in range(base, base + 50):
            db.insert("invocations", [i, "Hot00Service", 6.0])
        state["next"] = base + 50
        state["applied"] = replica.catch_up()
    # One autocommit insert ships begin/insert/commit-style records;
    # the loop reports per applied record.
    loop()
    return loop, max(1, state["applied"])


# -- core / grid / security / telemetry ------------------------------------------

def _store_dedup():
    from repro.core.registry import ServiceStateStore
    from repro.db.engine import Database
    store = ServiceStateStore(Database())
    state = {"next": 0}

    def loop():
        base = state["next"]
        for i in range(base, base + 20):
            key = f"inv-{i:08d}"
            store.record_dedup(key, "appliance01", "ok\n", 0.0)
            store.dedup_result(key)
        state["next"] = base + 20
    return loop, 20


def _rsl_roundtrip():
    from repro.cyberaide.jobspec import CyberaideJobSpec
    from repro.grid.rsl import parse_rsl
    spec = CyberaideJobSpec("hot07.bin", arguments=["c03r017-seed"],
                            count=1, max_wall_time=3600, queue="normal")

    def loop():
        parse_rsl(spec.to_rsl(job_tag="i000123"))
    return loop, 1


def _scheduler():
    from repro.grid.rsl import JobDescription
    from repro.grid.testbed import build_testbed
    from repro.simkernel.kernel import Simulator
    jobs = 128
    data = _payload(4096)

    def loop():
        sim = Simulator(seed=0)
        site = build_testbed(sim=sim, n_sites=1, nodes_per_site=4,
                             cores_per_node=8).sites[0]
        site.store_file("/stage/hot.bin", data)
        for i in range(jobs):
            job = site.create_job(JobDescription(
                "/stage/hot.bin", arguments=[str(i)],
                stdout=f"/stage/out-{i}"), "onserve")
            site.run_job(job)
        sim.run()
    return loop, jobs


def _proxy_delegate_verify():
    import random
    from repro.security.proxy import delegate_proxy, validate_chain
    from repro.security.x509 import CertificateAuthority
    ca = CertificateAuthority("ReproGridCA", random.Random(0))
    key, cert = ca.issue_identity("/O=ReproGrid/CN=onserve", 0.0, 86400.0,
                                  random.Random(1))
    trusted = {ca.name: ca.public_key}

    def loop():
        proxy_key, proxy = delegate_proxy(cert, key, 0.0, 3600.0, serial=1)
        _k2, leaf = delegate_proxy(proxy, proxy_key, 0.0, 1800.0, serial=2)
        validate_chain([leaf, proxy, cert], trusted, now=10.0)
    return loop, 1


def _bus_emit():
    from repro.simkernel.kernel import Simulator
    from repro.telemetry.events import bus
    stream = bus(Simulator(seed=0))
    stream.subscribe(lambda event: None, kinds=("sched.finish",))

    def loop():
        for i in range(200):
            stream.emit("ws.request", layer="ws", request_id="req-000001",
                        service="Hot07Service", operation="execute",
                        latency=0.25)
    return loop, 200


def _span():
    from repro.core.context import RequestContext, span
    from repro.simkernel.kernel import Simulator
    sim = Simulator(seed=0)

    def loop():
        ctx = RequestContext.create(sim, principal="user00")
        for _ in range(50):
            with span(ctx, "service:upload", site="ncsa"):
                with span(ctx, "agent:uploadExecutable"):
                    pass
    return loop, 100


#: metric name -> (driver, unit kind).  ``us``/``ms``: host time per
#: operation; ``per_s``: operations per host second.
DRIVERS: Dict[str, Tuple[Driver, str]] = {
    "simkernel.timeout_events_per_s": (_timeout_events, "per_s"),
    "simkernel.process_switch_us": (_process_switch, "us"),
    "hardware.fairshare_reschedule_us": (_fairshare, "us"),
    "ws.soap_roundtrip_4k_us": (_soap(4096), "us"),
    "ws.soap_roundtrip_1m_us": (_soap(1024 * 1024), "us"),
    "ws.wsdl_stub_roundtrip_us": (_wsdl_stub, "us"),
    "ws.uddi_find_us": (_uddi_find, "us"),
    "ws.ring_lookup_us": (_ring_lookup, "us"),
    "db.sql_point_select_us": (_sql_point_select, "us"),
    "db.insert_commit_us": (_insert_commit, "us"),
    "db.blob_store_mb_per_s": (_blob("store"), "per_s"),
    "db.blob_load_mb_per_s": (_blob("load"), "per_s"),
    "db.blob_load_chunked_mb_per_s":
        (_blob("load", chunk_bytes=4 * 1024 * 1024), "per_s"),
    "db.wal_recover_ms": (_wal_recover, "ms"),
    "db.replica_catch_up_us_per_record": (_replica_catch_up, "us"),
    "core.store_dedup_us": (_store_dedup, "us"),
    "grid.rsl_roundtrip_us": (_rsl_roundtrip, "us"),
    "grid.scheduler_jobs_per_s": (_scheduler, "per_s"),
    "security.proxy_delegate_verify_us": (_proxy_delegate_verify, "us"),
    "telemetry.bus_emit_us": (_bus_emit, "us"),
    "telemetry.span_us": (_span, "us"),
}

_SCALE = {"us": 1e6, "ms": 1e3}


def _time_loop(loop: Callable[[], Any], loop_s: float) -> Tuple[float, int]:
    """Call *loop* until *loop_s* host seconds passed; (seconds, calls)."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        loop()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= loop_s:
            return elapsed, calls


def run_drivers(loop_s: float = 0.2) -> Dict[str, float]:
    """Median of ``REPS`` timed loops per driver, in the metric's unit."""
    out: Dict[str, float] = {}
    for name, (build, kind) in DRIVERS.items():
        loop, ops = build()
        loop()  # warm caches and lazy imports outside the timing
        samples = []
        for _ in range(REPS):
            elapsed, calls = _time_loop(loop, loop_s)
            per_op = elapsed / (calls * ops)
            samples.append(1.0 / per_op if kind == "per_s"
                           else per_op * _SCALE[kind])
        out[name] = statistics.median(samples)
    return out
