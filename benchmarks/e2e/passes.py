"""One pass: deploy a profile, offer one workload's schedule, measure.

A pass runs in its own process (``python -m benchmarks.e2e pass``),
single-threaded, in one of three modes:

``plain``  the untraced pass every end-to-end number comes from;
``t1``     the same window with pure observers attached (bus
           subscriptions, retained request contexts) — afterwards each
           request is attributed by ``telemetry.critical_path`` and the
           public counters are read;
``t2``     the same window under ``cProfile``, folded per layer.

All three must report bit-identical simulated metrics: nothing a mode
adds creates a simulation event.
"""

from __future__ import annotations

import cProfile
import gc
import json
import resource
import time
from pathlib import Path
from typing import Any, Dict, Generator, List, Optional

from benchmarks.e2e import stats
from benchmarks.e2e.layers import fold_profile
from benchmarks.e2e.profiles import PROFILES, TESTBED, UPLINK_KB_PER_S
from benchmarks.e2e.speed import SpeedMeter
from benchmarks.e2e.workloads import make_schedule, schedule_digest

__all__ = ["run_pass", "MODES"]

MODES = ("plain", "t1", "t2")
PARAMS_SPEC = "token:string"
CRASH_POLL_SIM_S = 0.05

#: analyzer bucket -> per-layer metric stem.
T1_BUCKETS = {
    "ws/transfer": "ws.sim_transfer_s_per_op",
    "ws/compute": "ws.sim_compute_s_per_op",
    "core/compute": "core.sim_compute_s_per_op",
    "core/queueing": "core.sim_detect_lag_s_per_op",
    "agent/transfer": "cyberaide.sim_agent_s_per_op",
    "agent/compute": "cyberaide.sim_agent_s_per_op",
    "db/storage": "db.sim_storage_s_per_op",
    "grid/transfer": "grid.sim_transfer_s_per_op",
    "grid/queueing": "grid.sim_queue_s_per_op",
    "grid/compute": "grid.sim_compute_s_per_op",
    "notify/propagation": "grid.sim_notify_s_per_op",
}


class _JobEvents:
    """The slice of the bus ``analyze_request`` reads, kept per job.

    The bus ring holds 65 536 events and ``EventBus.first`` scans it;
    a pass emits several hundred thousand.  This observer keeps the
    four kinds the analyzer asks for, indexed by job id, for the whole
    window, and answers the same two calls.
    """

    KINDS = ("sched.submit", "sched.start", "sched.finish",
             "notify.deliver")

    def __init__(self, bus) -> None:
        self._first: Dict[tuple, Any] = {}
        self._delivered: List[Any] = []
        self.unsubscribe = bus.subscribe(self._on_event, kinds=self.KINDS)

    def _on_event(self, event) -> None:
        if event.kind == "notify.deliver":
            self._delivered.append(event)
        else:
            self._first.setdefault((event.kind, event.fields.get("job_id")),
                                   event)

    def first(self, kind: str, **filters: Any):
        return self._first.get((kind, filters.get("job_id")))

    def events(self, kind: Optional[str] = None, **_unused: Any):
        return self._delivered if kind == "notify.deliver" else []


class _Counters:
    """Public counters read at window start and end (T1)."""

    def __init__(self, sim, tb, stack, bus) -> None:
        self.sim, self.tb, self.stack, self.bus = sim, tb, stack, bus
        self.lock_wait = 0.0
        self.resident_peak = 0.0
        self.poll_rounds = 0
        self._unsubscribe = bus.subscribe(
            self._on_event,
            kinds=("db.lock.wait", "db.fetch", "core.invocation"))
        appliances = [o.host for o in getattr(stack, "onserves",
                                              [stack.onserve])]
        names = {h.name for h in appliances}
        self.appliances = appliances
        self.uplinks = [l for l in tb.network.links()
                        if {l.a, l.b} & names and "wan-core" in (l.a, l.b)]
        self.t0 = sim.now
        self.start = self._read()

    def _on_event(self, event) -> None:
        if event.kind == "db.lock.wait":
            self.lock_wait += event.fields["waited"]
        elif event.kind == "db.fetch":
            self.resident_peak = max(self.resident_peak,
                                     event.fields["resident_peak"])
        else:
            self.poll_rounds += event.fields["polls"]

    def _read(self) -> Dict[str, float]:
        stack = self.stack
        onserves = getattr(stack, "onserves", [stack.onserve])
        router = getattr(stack, "router", None)
        caches = [c.cache for c in stack.user_clients
                  if c.cache is not None]
        gates = self.tb.gatekeepers.values()
        out = {f"bus:{k}": float(v) for k, v in self.bus.counts().items()}
        out.update({
            "sim_events": self.sim.events_processed,
            "bus_emitted": self.bus.emitted,
            "cache_hits": sum(c.hits for c in caches),
            "cache_misses": sum(c.misses for c in caches),
            "flights": sum(sum(o.flights.flights.values())
                           for o in onserves),
            "joins": sum(sum(o.flights.joins.values()) for o in onserves),
            "gram_exchanges": sum(g.exchanges for g in gates),
            "gram_control_bytes": sum(g.control_bytes for g in gates),
            "uplink_bytes": sum(l.server.work_integral()
                                for l in self.uplinks),
            "cpu_busy": sum(h.cpu.busy_core_seconds()
                            for h in self.appliances),
            "dedup_duplicates": stack.onserve.store.dedup_duplicates,
        })
        for key in ("rebalances", "failovers", "dedup_hits", "sheds"):
            out[f"router_{key}"] = getattr(router, key, 0) if router else 0
        return out

    def finish(self, ops: int) -> Dict[str, float]:
        self._unsubscribe()
        end = self._read()
        window = self.sim.now - self.t0
        d = {k: end[k] - self.start.get(k, 0.0) for k in end}
        per_op = lambda key: d.get(key, 0.0) / ops  # noqa: E731
        lookups = d["cache_hits"] + d["cache_misses"]
        flights = d["flights"] + d["joins"]
        uplink_cap = sum(l.bandwidth for l in self.uplinks) * window
        cpu_cap = sum(h.cpu.cores for h in self.appliances) * window
        return {
            "simkernel.events_per_op": per_op("sim_events"),
            "telemetry.bus_events_per_op": per_op("bus_emitted"),
            "ws.soap_requests_per_op": per_op("bus:ws.request"),
            "ws.cache_hit_ratio":
                d["cache_hits"] / lookups if lookups else 0.0,
            "ws.router_rebalances_per_kop":
                1000.0 * per_op("router_rebalances"),
            "ws.router_failovers": d["router_failovers"],
            "ws.router_dedup_hits": d["router_dedup_hits"],
            "ws.router_sheds": d["router_sheds"],
            "core.materializations":
                d.get("bus:core.service_materialized", 0.0),
            "core.coalesce_join_ratio":
                d["joins"] / flights if flights else 0.0,
            "core.poll_rounds_per_op": self.poll_rounds / ops,
            "core.dedup_duplicates": d["dedup_duplicates"],
            "cyberaide.agent_auth_per_op": per_op("bus:agent.auth"),
            "grid.gram_exchanges_per_op": per_op("gram_exchanges"),
            "grid.gram_control_bytes_per_op": per_op("gram_control_bytes"),
            "grid.notify_delivered_per_op": per_op("bus:notify.deliver"),
            "db.replica_reads_per_op": per_op("bus:db.replica.read"),
            "db.lock_wait_sim_s_per_op": self.lock_wait / ops,
            "db.fetch_resident_peak_mb": self.resident_peak / 2 ** 20,
            "db.wal_appends_per_op": per_op("bus:wal.append"),
            "hardware.uplink_bytes_per_op": per_op("uplink_bytes"),
            "hardware.uplink_busy_ratio":
                d["uplink_bytes"] / uplink_cap if uplink_cap else 0.0,
            "hardware.appliance_cpu_busy_ratio":
                d["cpu_busy"] / cpu_cap if cpu_cap else 0.0,
        }


def _deploy(sim, schedule):
    """build_testbed -> deploy_onserve / deploy_fabric for the profile."""
    from repro.core.fabric import deploy_fabric
    from repro.core.onserve import OnServeConfig, deploy_onserve
    from repro.grid.testbed import build_testbed
    from repro.units import KBps

    profile = PROFILES[schedule["profile"]]
    n_users = max(1, len(schedule["consumers"]) + len(schedule["providers"]))
    tb = build_testbed(sim=sim, n_users=n_users,
                       appliance_uplink=KBps(UPLINK_KB_PER_S), **TESTBED)
    config = OnServeConfig(**profile["config"])
    if profile["fabric"] is None:
        stack = sim.run(until=deploy_onserve(tb, config))
    else:
        stack = sim.run(until=deploy_fabric(tb, config,
                                            **profile["fabric"]))
        if config.notify:
            # deploy_fabric does not build the push queue that
            # deploy_onserve builds for config.notify; attach one the
            # same way, through the same public calls.
            from repro.grid.notify import NotifyQueue
            queue = NotifyQueue(sim, stack.dbmanager.db,
                                propagation=config.notify_propagation,
                                read_router=stack.dbmanager.read_router)
            for gatekeeper in tb.gatekeepers.values():
                gatekeeper.attach_notify(queue, capable=True)
            for onserve in stack.onserves:
                onserve.notify_queue = queue
    if profile["client_caches"]:
        stack.enable_client_caches()
    return tb, stack


def _bind(stack, client, pattern) -> Generator:
    """Discover + fetch WSDL + build the stub once (fills the client's
    cache); the bind-once half of bind-once/execute-many."""
    from repro.core.invocation import discover_service
    _name, endpoint, _loc = yield discover_service(stack, client, pattern)
    document = client.cache.lookup_wsdl(endpoint)
    if document is None:
        document = yield client.fetch_wsdl(endpoint)
        client.cache.store_wsdl(endpoint, document)
    client.cache.stub_class(document)


def _span_rows(kind: str, ctx, latency: float) -> List[list]:
    """(request id, class, name, start, end, parent index) per span.

    The root span is never closed by the stack; it ends with the op.
    """
    rows, index = [], {}
    for _depth, node in ctx.root.walk():
        index[id(node)] = len(rows)
        parent = index.get(id(node.parent), -1) if node.parent else -1
        end = node.start + latency if node is ctx.root else node.end
        rows.append([ctx.request_id, kind, node.name, node.start, end,
                     parent])
    return rows


def _attribute(traces: List[tuple], job_events: _JobEvents):
    """Critical-path attribution of every traced op (T1).

    Returns the per-op bucket means, the reconciliation figures and the
    span rows.  Time the analyzer leaves unattributed, or puts in a
    bucket no layer owns, is counted in ``sim_unattributed_share``.
    """
    from repro.telemetry.critical_path import analyze_request
    sums = {name: 0.0 for name in T1_BUCKETS.values()}
    total = unattributed = 0.0
    unreconciled = 0
    rows: List[list] = []
    for kind, ctx, latency in traces:
        att = analyze_request(ctx, bus=job_events)
        total += att.total
        stray = abs(att.unattributed)
        for bucket, secs in att.buckets.items():
            name = T1_BUCKETS.get(bucket)
            if name is None:
                stray += secs
            else:
                sums[name] += secs
        unattributed += stray
        if not att.reconciles(tol=0.01):
            unreconciled += 1
        rows.extend(_span_rows(kind, ctx, latency))
    n = len(traces)
    layer = {name: secs / n for name, secs in sums.items()}
    layer["telemetry.sim_unattributed_share"] = \
        unattributed / total if total else 0.0
    check = {"bucket_mean_s": sum(sums.values()) / n,
             "latency_mean_s": sum(t[2] for t in traces) / n,
             "unreconciled_requests": unreconciled, "spans": len(rows)}
    return layer, check, rows


def _sim_metrics(ops: List[Dict[str, Any]], loaded_until: float,
                 cap: int) -> Dict[str, Any]:
    """Latency order statistics per class + goodput, from verified ops.

    Goodput counts the ops completed while every client was still
    active (up to *loaded_until* sim-s into the window, when the first
    client ran out of rounds): the drain after that is a max over
    clients and would only add seed-to-seed noise.
    """
    good = [o for o in ops if o["ok"]]
    by_kind = {k: [o["latency"] for o in good if o["kind"] == k]
               for k in ("hot", "cold", "publish")}
    invokes = by_kind["hot"] + by_kind["cold"]
    out: Dict[str, Any] = {"samples": {k: len(v)
                                       for k, v in by_kind.items()}}
    values: Dict[str, float] = {}
    tails: Dict[str, int] = {}
    values["invoke_p50_sim_s"] = stats.nearest_rank(invokes, 50)
    tails["invoke_tail_sim_s"], values["invoke_tail_sim_s"] = \
        stats.tail(invokes, cap)
    for kind, stem, top in (("hot", "core.hot_invoke", 99),
                            ("cold", "core.cold_invoke", 90),
                            ("publish", "core.publish", 90)):
        sample = by_kind[kind]
        if not sample:
            continue
        values[f"{stem}_p50_sim_s"] = stats.nearest_rank(sample, 50)
        name = f"{stem}_p{top}_sim_s"
        tails[name], values[name] = stats.tail(sample, min(cap, top))
    values["goodput_sim_ops_per_s"] = sum(
        1 for o in good if o["done"] <= loaded_until) / loaded_until
    out["values"] = values
    out["tail_percentile"] = tails
    return out


def run_pass(workload: str, seed: int, mode: str = "plain",
             scale: float = 1.0, t_start: Optional[float] = None,
             spans_path: Optional[Path] = None,
             setup_only: bool = False) -> Dict[str, Any]:
    """Run one pass; returns its result record (JSON-able)."""
    if mode not in MODES:
        raise ValueError(f"unknown pass mode {mode!r}")
    t_start = time.perf_counter() if t_start is None else t_start
    # Set-up is wall time from process entry, split at every step below
    # so that each stretch is held against the host speed around it.
    setup = SpeedMeter(time.perf_counter, since=t_start)
    setup.mark()

    from repro.core.context import RequestContext
    from repro.core.invocation import discover_and_invoke
    from repro.simkernel.kernel import Simulator
    from repro.telemetry.events import bus as bus_of
    from repro.workloads.executables import get_profile, make_payload

    setup.mark()
    schedule = make_schedule(workload, seed, scale=scale)
    sim = Simulator(seed=seed)
    tb, stack = _deploy(sim, schedule)
    setup.mark()
    services = schedule["services"]
    n_consumers = len(schedule["consumers"])

    def payload(size: int, job_s: float, nonce: str) -> bytes:
        return make_payload("echo", size=size, runtime=f"{job_s:.3f}",
                            nonce=nonce)

    echo = get_profile("echo")

    def expected(token: str) -> str:
        return echo.compute_output([token], 1, {}).decode("utf-8")

    # -- set-up: publish the catalogue, bind the caches, make payloads ----
    for svc in services + schedule["owned"]:
        sim.run(until=stack.portal.upload_and_generate(
            tb.user_hosts[0], svc["file"],
            payload(svc["size"], svc["job_s"], schedule["nonce"]),
            params_spec=PARAMS_SPEC))
        setup.mark_if_due()
    if PROFILES[schedule["profile"]]["client_caches"] and services:
        def bind_all(client) -> Generator:
            for svc in services:
                yield from _bind(stack, client, svc["pattern"])
                setup.mark_if_due()
        sim.run(until=sim.all_of([
            sim.process(bind_all(stack.user_clients[c]), name=f"bind:{c}")
            for c in range(n_consumers)]))
    setup.mark()
    upload_bytes = [[payload(u["size"], u["job_s"], u["token"])
                     for u in prov["uploads"]]
                    for prov in schedule["providers"]]

    ops: List[Dict[str, Any]] = []
    drained: List[float] = []  # when each client ran out of rounds
    traces: List[tuple] = []
    keep_traces = mode == "t1"
    meter: Optional[SpeedMeter] = None  # of the window; plain mode only

    def finish(kind: str, ctx, t_req: float, ok: bool, error: str) -> None:
        ops.append({"kind": kind, "latency": sim.now - t_req, "ok": ok,
                    "error": error, "done": sim.now - sim_t0})
        if meter is not None:
            meter.mark_if_due()
        if keep_traces:
            traces.append((kind, ctx, sim.now - t_req))

    def invoke(kind: str, client, pattern: str, token: str) -> Generator:
        t_req = sim.now
        ctx = RequestContext.create(sim, principal=client.host.name)
        try:
            output = yield discover_and_invoke(stack, client, pattern,
                                               ctx=ctx, token=token)
        except Exception as exc:  # the op failed; count it and go on
            finish(kind, ctx, t_req, False, f"{type(exc).__name__}: {exc}")
            return
        ok = output == expected(token)
        finish(kind, ctx, t_req, ok, "" if ok else "wrong output")

    def consumer(c: int, entry: Dict[str, Any]) -> Generator:
        client = stack.user_clients[c]
        yield sim.timeout(entry["offset"])
        for idx, token in entry["ops"]:
            yield from invoke("hot", client, services[idx]["pattern"], token)
        drained.append(sim.now - sim_t0)

    def provider(p: int, entry: Dict[str, Any]) -> Generator:
        client = stack.user_clients[n_consumers + p]
        host = tb.user_hosts[n_consumers + p]
        yield sim.timeout(entry["offset"])
        base = sim.now
        for upload, data in zip(entry["uploads"], upload_bytes[p]):
            if upload["due"] is not None and sim.now < base + upload["due"]:
                yield sim.timeout(base + upload["due"] - sim.now)
            t_req = sim.now
            ctx = RequestContext.create(sim, principal=host.name)
            try:
                yield stack.portal.upload_and_generate(
                    host, upload["file"], data, params_spec=PARAMS_SPEC,
                    ctx=ctx)
            except Exception as exc:  # the op failed; count it and go on
                finish("publish", ctx, t_req, False,
                       f"{type(exc).__name__}: {exc}")
                continue
            stored = stack.dbmanager.executable_sizes(upload["file"])
            ok = stored["size"] == len(data)
            finish("publish", ctx, t_req, ok,
                   "" if ok else "stored size differs")
            yield from invoke("cold", client, upload["pattern"],
                              upload["token"])
        drained.append(sim.now - sim_t0)

    def crash(plan: Dict[str, Any]) -> Generator:
        # RequestRouter.kill_inflight interrupts a *set* of processes, so
        # with two or more in flight the failover order follows memory
        # addresses and differs from process to process.  Crash at the
        # first instant from the scheduled time on at which exactly one
        # request is in flight on the replica: still a crash under load
        # (one request dies and fails over), and the same in every pass.
        replica = plan["replica"]
        yield sim.timeout(plan["at_sim_s"])
        crashed = False
        while sim.now - sim_t0 < plan["restart_sim_s"]:
            if stack.router.inflight(replica) == 1:
                stack.crash_replica(replica)
                crashed = True
                break
            yield sim.timeout(CRASH_POLL_SIM_S)
        yield sim.timeout(max(0.0, sim_t0 + plan["restart_sim_s"] - sim.now))
        if crashed:
            stack.restart_replica(replica)

    sim_t0 = sim.now
    bus = bus_of(sim)
    counters = job_events = None
    if mode == "t1":
        job_events = _JobEvents(bus)
        counters = _Counters(sim, tb, stack, bus)
    gc.collect()
    setup.mark()
    host_setup = {"setup_s": setup.normalised_s, "setup_raw_s": setup.raw_s}
    if setup_only:
        return {"workload": workload, "seed": seed, "setup_only": True,
                "host": host_setup}

    # -- the timed window ------------------------------------------------
    procs = [sim.process(consumer(c, e), name=f"consumer:{c}")
             for c, e in enumerate(schedule["consumers"])]
    procs += [sim.process(provider(p, e), name=f"provider:{p}")
              for p, e in enumerate(schedule["providers"])]
    if schedule["crash"]:
        procs.append(sim.process(crash(schedule["crash"]), name="crash"))
    done = sim.all_of(procs)
    profiler = cProfile.Profile() if mode == "t2" else None
    if mode == "plain":
        meter = SpeedMeter(time.process_time)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    sim.run(until=done)
    if profiler is not None:
        profiler.disable()
    if meter is not None:
        meter.mark()
    window_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    sim_window = sim.now - sim_t0

    # -- verdicts and metrics ---------------------------------------------
    verified = sum(1 for o in ops if o["ok"])
    failures = [o for o in ops if not o["ok"]]
    duplicates = stack.onserve.store.dedup_duplicates
    record: Dict[str, Any] = {
        "workload": workload, "seed": seed, "mode": mode, "scale": scale,
        "schedule_digest": schedule_digest(schedule),
        "attempted": len(ops), "failed": len(failures),
        "dedup_duplicates": duplicates,
        "failures": [f"{o['kind']}: {o['error']}" for o in failures[:5]],
        "sim_window_s": sim_window,
    }
    if not any(o["ok"] and o["kind"] != "publish" for o in ops):
        return record  # nothing to take a latency from
    # A shortened pass (--quick, T2) reports no percentile above p50.
    record["sim"] = _sim_metrics(ops, min(drained),
                                 cap=99 if scale == 1.0 else 50)
    # A traced pass has no meter: its host figures are raw wall time.
    raw_s = meter.raw_s if meter else window_s
    record["host"] = {
        "host_ms_per_op":
            1000.0 * (meter.normalised_s if meter else raw_s) / verified,
        "host_raw_ms_per_op": 1000.0 * raw_s / verified,
        "host_slowdown_ratio": meter.slowdown if meter else 1.0,
        "host_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **host_setup,
        "window_s": window_s,
        "cpu_over_wall_ratio": cpu_s / window_s,
    }

    if mode == "t1":
        job_events.unsubscribe()
        record["t1"] = counters.finish(len(ops))
        attributed, record["t1_check"], rows = _attribute(traces,
                                                          job_events)
        record["t1"].update(attributed)
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            with open(spans_path, "w") as fh:
                json.dump({"columns": ["request", "class", "name", "start",
                                       "end", "parent"], "spans": rows}, fh)
            record["spans_file"] = spans_path.name

    if mode == "t2":
        entries = profiler.getstats()
        folded = fold_profile(entries)
        record["t2"] = {f"{layer}.host_self_ms_per_op":
                        1000.0 * secs / verified
                        for layer, secs in folded.items()}
        # A count, not a time: it repeats exactly for a seed.
        record["t2"]["harness.profiled_calls_per_op"] = \
            sum(e.callcount for e in entries) / verified
        record["t2_check"] = {"profiled_s": sum(folded.values()),
                              "window_s": window_s}
    return record
