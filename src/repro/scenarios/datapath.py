"""Grid data-path ablation: pay-per-operation vs ``datapath`` mode.

The faithful grid control path pays per operation: a GSI handshake per
GridFTP transfer and per GRAM submit, and an executable pushed over the
appliance uplink on every invocation.  ``datapath`` mode keeps one
pooled GSI channel per (site, endpoint, credential) on the agent for
both protocols, and stages by content, once (DESIGN.md §10).
Completion detection is not part of the plane: on a site without
notify both modes run the paper's per-job tentative poll.

Three parts, each run per mode where it has two:

* **GRAM control** — N concurrent sleep-job invocations against one
  site (runtimes staggered ``base + 6·i`` seconds): submits, GSI
  handshakes paid, submits carried on an already-open pooled channel,
  and gatekeeper control bytes per submit (polls included).  Per
  operation every submit opens with a handshake, on the agent's pooled
  channel only the first.  Its bar: one handshake, and fewer control
  bytes per submit than per operation.
* **Repeat invoke** — one 256 KB executable invoked eight times in a
  row over two sites.  Per-operation mode pushes the bytes over the
  appliance uplink every time; ``datapath`` mode uploads them once,
  copies them site to site once, and hits the store's row for the
  rest.  Its bar: uplink bytes down >= 80% with exactly one grid upload.
* **Republish** — on a routed ``datapath`` fabric a 512 KB executable
  is staged by one invoke, then re-uploaded and invoked once more.  The
  republish seeds the new bytes where the old ones were and the first
  invoke joins that seed.  It reports whether the invoke joined, the
  uplink bytes from republish to answer, and the first invoke's
  latency; its bar: joined, and one copy of the payload on the uplinks.

``ok`` is all three bars; the GRAM bar also holds the exact counts — a
handshake per submit per operation, N - 1 submits on the pooled channel.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.scenarios.common import ScenarioEnv, standard_env
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.units import KB
from repro.workloads.executables import make_payload

__all__ = ["DatapathResult", "run_datapath"]

#: The two modes, in report order: label -> ``OnServeConfig.datapath``.
MODES = {"per-operation": False, "datapath": True}


class DatapathResult:
    """One run of the three parts, keyed by mode label."""

    def __init__(self, n: int, gram: Dict[str, Dict[str, float]],
                 repeat: Dict[str, Dict[str, float]],
                 republish: Dict[str, float]):
        #: Concurrent jobs of the GRAM-control part.
        self.n = n
        #: The GRAM-control part: mode -> submits / handshakes / pooled /
        #: gatekeeper control bytes.
        self.gram = gram
        #: The repeat-invoke part: mode -> counts.
        self.repeat = repeat
        #: The republish part: joined, uplink bytes, first-invoke s.
        self.republish = republish

    def control_per_submit(self, mode: str) -> float:
        """Gatekeeper control bytes per submit (polls included)."""
        part = self.gram[mode]
        return part["gram_ctl"] / part["submits"]

    @property
    def gram_ok(self) -> bool:
        per_op, pooled = self.gram["per-operation"], self.gram["datapath"]
        return (per_op["handshakes"] == per_op["submits"] == self.n
                and pooled["handshakes"] == 1
                and pooled["pooled"] == self.n - 1
                and self.control_per_submit("datapath")
                < self.control_per_submit("per-operation"))

    @property
    def uplink_reduction(self) -> float:
        """Fractional uplink-byte reduction of the repeat-invoke part."""
        return 1.0 - (self.repeat["datapath"]["uplink"]
                      / self.repeat["per-operation"]["uplink"])

    @property
    def repeat_ok(self) -> bool:
        return (self.uplink_reduction >= REPEAT_UPLINK_BAR
                and self.repeat["datapath"]["uploads"] == 1)

    @property
    def republish_ok(self) -> bool:
        part = self.republish
        return (part["joined"] == 1
                and part["uplink"] < REPUBLISH_UPLINK_BAR
                * REPUBLISH_FILE_BYTES)

    @property
    def ok(self) -> bool:
        return self.gram_ok and self.repeat_ok and self.republish_ok

    def render(self) -> str:
        title = "Grid data-path ablation — per-operation vs datapath mode"
        lines = [title, "=" * len(title),
                 f"GRAM control @ N={self.n}",
                 f"{'mode':<14} {'submits':>8} {'handshakes':>11} "
                 f"{'pooled':>7} {'ctl B/submit':>13}"]
        for mode, part in self.gram.items():
            lines.append(
                f"{mode:<14} {int(part['submits']):>8} "
                f"{int(part['handshakes']):>11} {int(part['pooled']):>7} "
                f"{self.control_per_submit(mode):>13.0f}")
        lines += [
            f"one handshake, fewer control bytes per submit: "
            f"{'PASS' if self.gram_ok else 'FAIL'}",
            "",
            f"Repeat invoke — {REPEAT_INVOKES} sequential invokes of one "
            f"{REPEAT_FILE_BYTES // 1024} KB executable over {REPEAT_SITES} "
            f"sites (round robin)",
            f"{'mode':<14} {'uplink KB':>10} {'grid uploads':>13} "
            f"{'replications':>13} {'staged hit/miss':>16}"]
        for mode, part in self.repeat.items():
            lines.append(
                f"{mode:<14} {part['uplink'] / 1024:>10.1f} "
                f"{part['uploads']:>13} {part['replications']:>13} "
                f"{part['hits']:>13}/{part['misses']}")
        lines.append(
            f"uplink bytes down {100 * self.uplink_reduction:.1f}% "
            f"(bar: >= {100 * REPEAT_UPLINK_BAR:.0f}% with one grid "
            f"upload): {'PASS' if self.repeat_ok else 'FAIL'}")
        part = self.republish
        lines += [
            "",
            f"Republish -> first invoke — one "
            f"{REPUBLISH_FILE_BYTES // 1024} KB executable on "
            f"{REPUBLISH_REPLICAS} replicas (datapath)",
            f"{'seed joined':>11} {'uplink KB':>10} {'first invoke s':>15}",
            f"{int(part['joined']):>11} {part['uplink'] / 1024:>10.1f} "
            f"{part['latency']:>15.2f}",
            f"one joined seed, uplink < {REPUBLISH_UPLINK_BAR:.2f}x the "
            f"payload: {'PASS' if self.republish_ok else 'FAIL'}"]
        return "\n".join(lines)


def run_datapath(n: int = 32, seed: int = 0,
                 smoke: bool = False) -> DatapathResult:
    """GRAM control at *n* concurrent jobs, then the repeat-invoke and
    republish parts."""
    if smoke:
        n = 4
    return DatapathResult(
        n,
        {mode: _gram_control(n, seed, on, smoke)
         for mode, on in MODES.items()},
        {mode: _repeat_invoke(seed, on) for mode, on in MODES.items()},
        _republish_invoke(seed))


#: The repeat-invoke part's shape (the same under ``--smoke``: eight
#: short jobs, and fewer would not amortize the one upload to the bar).
REPEAT_INVOKES = 8
REPEAT_FILE_BYTES = int(KB(256))
REPEAT_SITES = 2
#: ... and its bar: this share of the uplink bytes gone, one grid upload.
REPEAT_UPLINK_BAR = 0.80
#: The republish part's shape, and its bar: uplink bytes from republish
#: to answer under this multiple of the payload (one copy, plus control).
REPUBLISH_FILE_BYTES = int(KB(512))
REPUBLISH_REPLICAS = 4
REPUBLISH_UPLINK_BAR = 1.10


def _repeat_invoke(seed: int, datapath: bool) -> Dict[str, float]:
    """Sequential invokes of one executable, alternating two sites.

    Round robin, because "best" keeps an idle testbed on one site.
    Every count is one the system keeps for any reader: the agent's
    ``uploads`` / ``replications`` and the ``cache.hit`` / ``cache.miss``
    events of the staged-copy lookup.
    """
    config = OnServeConfig(datapath=datapath, site_policy="round_robin")
    env = standard_env(config=config, seed=seed, n_sites=REPEAT_SITES)
    stack, sim = env.stack, env.sim
    lookups = bus(sim).record("cache.hit", "cache.miss")
    sim.run(until=stack.portal.upload_and_generate(
        env.testbed.user_hosts[0], "repeat.bin",
        make_payload("echo", size=REPEAT_FILE_BYTES),
        params_spec="token:string"))
    [uplink] = env.testbed.network.route(stack.appliance_host.name,
                                         "wan-core")
    uplink0 = uplink.server.work_integral()
    for i in range(REPEAT_INVOKES):
        token = f"repeat-{i}"
        reply = sim.run(until=discover_and_invoke(
            stack, stack.user_clients[0], "Repeat%", token=token))
        if reply != token + "\n":
            raise RuntimeError(f"repeat invoke {i} answered {reply!r}")
    staged = [ev.kind for ev in lookups.events()
              if ev.fields.get("cache") == "staged"]
    return {
        "uplink": uplink.server.work_integral() - uplink0,
        "uploads": stack.agent.uploads,
        "replications": stack.agent.replications,
        "hits": staged.count("cache.hit"),
        "misses": staged.count("cache.miss"),
    }


def _republish_invoke(seed: int) -> Dict[str, float]:
    """Stage, republish, invoke: does the first invoke join the seed?"""
    config = OnServeConfig(coalesce=True, datapath=True, notify=True)
    env = standard_env(config=config, seed=seed, sample_interval=None,
                       fabric=dict(replicas=REPUBLISH_REPLICAS))
    stack, sim = env.stack, env.sim
    uplinks = [env.testbed.network.route(o.host.name, "wan-core")[0].server
               for o in stack.onserves]

    def publish(version: str):
        sim.run(until=stack.portal.upload_and_generate(
            env.testbed.user_hosts[0], "republish.bin",
            make_payload("echo", size=REPUBLISH_FILE_BYTES, nonce=version),
            params_spec="token:string"))

    def invoke(token: str) -> None:
        reply = sim.run(until=discover_and_invoke(
            stack, stack.user_clients[0], "Republish%", token=token))
        if reply != token + "\n":
            raise RuntimeError(f"republish invoke answered {reply!r}")

    publish("v1")
    invoke("staged")
    before = sum(server.work_integral() for server in uplinks)
    publish("v2")
    t0 = sim.now
    invoke("first")
    return {
        "joined": float(bus(sim).counts().get("core.seed_joined", 0)),
        "uplink": sum(server.work_integral() for server in uplinks) - before,
        "latency": sim.now - t0,
    }


def _gram(env: ScenarioEnv) -> Dict[str, float]:
    gates = env.testbed.gatekeepers.values()
    return {"submits": sum(g.submissions for g in gates),
            "handshakes": sum(g.handshakes for g in gates),
            "pooled": sum(g.pooled_ops for g in gates),
            "gram_ctl": sum(g.control_bytes for g in gates)}


def _gram_control(n: int, seed: int, datapath: bool,
                  smoke: bool) -> Dict[str, float]:
    """*n* concurrent invocations in one mode, on a single-site testbed."""
    config = OnServeConfig(datapath=datapath)
    env = standard_env(config=config, n_users=n, seed=seed,
                       n_sites=1, nodes_per_site=4, cores_per_node=8)
    stack, sim = env.stack, env.sim
    sim.run(until=stack.portal.upload_and_generate(
        env.testbed.user_hosts[0], "datapath.bin",
        make_payload("sleep", size=int(KB(64))),
        params_spec="seconds:double"))
    before = _gram(env)
    base_runtime = 10.0 if smoke else 25.0

    def invoke(i: int) -> Generator[Event, None, None]:
        yield discover_and_invoke(stack, stack.user_clients[i], "Datapath%",
                                  seconds=base_runtime + 6.0 * i)

    sim.run(until=sim.all_of([sim.process(invoke(i), name=f"timed:{i}")
                              for i in range(n)]))
    after = _gram(env)
    return {key: after[key] - before[key] for key in after}
