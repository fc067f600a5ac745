"""DBSCALE: the upload-storm-vs-invocation ablation (DB tier scale-out).

The seed's DB tier has the original's single-JDBC-connection shape: a
store holds the connection (and its transaction) across the whole
compress+write, and every fetch materializes the full BLOB in RAM.
Under a storm of concurrent ~100 MB re-uploads, invocations pay twice:
their row reads queue behind the writers' lock, and each fetch parks
O(blob) bytes on the appliance.

Three arms, same seed, fresh environment each (the serialized
connection-lock model is on everywhere, so the arms differ only in the
two scale-out legs):

* **baseline** — no storm, optimizations off.  What an invocation
  costs when the DB tier is idle.
* **storm/locked** — upload storm, optimizations off.  Reads queue on
  the connection lock behind multi-second stores: the measured p95
  spike, with ``resident_peak`` = the whole BLOB per fetch.
* **storm/scaled** — the same storm with MVCC reads (fetches never
  touch the lock and read the last committed row) and chunked BLOB
  streaming (peak resident payload <= 2 chunks).  Every read is a
  primary read.

The acceptance bar (``DbScaleResult.ok``, CI's gate): every invocation
succeeds in every arm; the locked arm's p95 actually spikes (> 1.10x
baseline) while the scaled arm stays within 10% of the no-storm
baseline; and every chunked fetch's ``resident_peak`` <= 2 chunk
sizes (whole fetches demonstrably park the full BLOB).
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.hardware.host import HostSpec
from repro.scenarios.common import percentile, standard_env
from repro.simkernel.events import Event
from repro.telemetry.events import bus
from repro.units import GB, MB, MBps
from repro.workloads.executables import make_payload

__all__ = ["DbScaleResult", "run_dbscale"]

EXECUTABLE = "dbscale.bin"
SERVICE_PATTERN = "Dbscale%"


def _blob(size: int, runtime: float) -> bytes:
    """A *size*-byte fixed-runtime executable that compresses fast.

    Zero padding keeps zlib wall time CI-tractable at 100 MB while the
    simulated costs still scale with the uncompressed size.
    """
    header = make_payload("fixed", runtime=f"{runtime}",
                          output_bytes="1024")
    return header + b"\x00" * max(0, size - len(header))


class ArmResult:
    """One arm's measurements."""

    def __init__(self, label: str, n: int, n_ok: int,
                 latencies: List[float], fetches: List[Dict],
                 lock_waits: List[float]):
        self.label = label
        self.n = n
        self.n_ok = n_ok
        self.latencies = latencies
        #: ``db.fetch`` event fields: mode / nbytes / chunks /
        #: resident_peak / waited.
        self.fetches = fetches
        self.lock_waits = lock_waits

    @property
    def p95(self) -> float:
        return percentile(self.latencies, 95.0)

    @property
    def mean(self) -> float:
        return sum(self.latencies) / len(self.latencies)

    @property
    def peak_resident(self) -> float:
        """Worst per-fetch resident payload bytes across the arm."""
        return max((f["resident_peak"] for f in self.fetches), default=0.0)

    @property
    def lock_wait_total(self) -> float:
        return sum(self.lock_waits)


class DbScaleResult:
    """The three-arm ablation, plus the gates CI enforces."""

    def __init__(self, blob_bytes: int, chunk_bytes: int,
                 baseline: ArmResult, locked: ArmResult,
                 scaled: ArmResult):
        self.blob_bytes = blob_bytes
        self.chunk_bytes = chunk_bytes
        self.baseline = baseline
        self.locked = locked
        self.scaled = scaled

    @property
    def spike_factor(self) -> float:
        """Storm p95 over no-storm p95 with the optimizations off."""
        return self.locked.p95 / self.baseline.p95

    @property
    def scaled_factor(self) -> float:
        """Storm p95 over no-storm p95 with the full scale-out tier."""
        return self.scaled.p95 / self.baseline.p95

    @property
    def ok(self) -> bool:
        arms = (self.baseline, self.locked, self.scaled)
        return (all(a.n_ok == a.n for a in arms)
                # The problem exists: reads queue behind the storm.
                and self.spike_factor > 1.10
                and self.locked.lock_wait_total > 0
                # The headline gate: with MVCC + chunking the storm is
                # invisible to invocation p95 (within 10% of the
                # no-storm baseline).
                and self.scaled_factor <= 1.10
                # Chunked streaming bounds per-fetch residency by two
                # chunk sizes; whole fetches park the entire BLOB.
                and self.scaled.peak_resident <= 2 * self.chunk_bytes
                and self.locked.peak_resident >= self.blob_bytes
                and all(f["mode"] == "chunked" for f in self.scaled.fetches))

    def render(self) -> str:
        title = (f"DB tier scale-out — upload storm vs invocation "
                 f"({self.blob_bytes / MB(1):.0f} MB BLOBs, "
                 f"{self.chunk_bytes / MB(1):.0f} MB chunks)")
        lines = [title, "=" * len(title),
                 f"{'arm':>14} {'ok':>5} {'p95 s':>8} {'mean s':>8} "
                 f"{'vs base':>8} {'lock wait s':>12} "
                 f"{'peak resident':>14}"]
        for arm, factor in ((self.baseline, 1.0),
                            (self.locked, self.spike_factor),
                            (self.scaled, self.scaled_factor)):
            lines.append(
                f"{arm.label:>14} {arm.n_ok}/{arm.n:>3} {arm.p95:>8.2f} "
                f"{arm.mean:>8.2f} {factor:>7.2f}x "
                f"{arm.lock_wait_total:>12.2f} "
                f"{arm.peak_resident / MB(1):>11.1f} MB")
        lines.append(f"gate: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _run_arm(label: str, *, storm: int, scaled: bool, blob_bytes: int,
             chunk_bytes: int, n: int, runtime: float,
             seed: int) -> ArmResult:
    """One fresh environment, one arm of the ablation."""
    config = OnServeConfig(
        notify=True, notify_sites=("ncsa", "sdsc"),
        db_serialize=True,
        db_mvcc=scaled,
        db_chunk_bytes=chunk_bytes if scaled else 0)
    # A roomy appliance: the arms must differ by lock queueing and
    # residency, not by CPU starvation on the 2-core default.
    env = standard_env(
        appliance_uplink=MBps(50), config=config, seed=seed,
        n_sites=2, nodes_per_site=4, cores_per_node=8, n_users=n + storm,
        appliance_spec=HostSpec(cores=8, disk_bandwidth=MBps(200),
                                memory_bytes=GB(8)))
    stack, sim = env.stack, env.sim
    telemetry = bus(sim).record("db.fetch", "db.lock.wait")

    payload = _blob(blob_bytes, runtime)
    sim.run(until=stack.portal.upload_and_generate(
        env.testbed.user_hosts[0], EXECUTABLE, payload,
        description="dbscale ablation executable", params_spec=""))
    env.mark()

    latencies: List[float] = []
    n_ok = 0

    def invoke(i: int) -> Generator[Event, None, None]:
        nonlocal n_ok
        yield sim.timeout(1.5 * i, name=f"dbscale-stagger:{i}")
        t0 = sim.now
        out = yield discover_and_invoke(stack, stack.user_clients[i],
                                        SERVICE_PATTERN)
        latencies.append(sim.now - t0)
        if out.startswith("fixed-profile output"):
            n_ok += 1

    def upload(k: int) -> Generator[Event, None, None]:
        # Replacement re-uploads of the same name from dedicated
        # uploader hosts.  All uploaders fire together and queue on the
        # connection, so the lock stays busy through the invocation
        # window — the storm the locked arm's readers sit behind.
        yield sim.timeout(2.0, name=f"dbscale-storm:{k}")
        yield stack.portal.upload_and_generate(
            env.testbed.user_hosts[n + k], EXECUTABLE, payload,
            params_spec="")

    procs = [sim.process(invoke(i), name=f"dbscale-invoke:{i}")
             for i in range(n)]
    procs += [sim.process(upload(k), name=f"dbscale-upload:{k}")
              for k in range(storm)]
    sim.run(until=sim.all_of(procs))

    fetches = [ev.fields for ev in telemetry.events(kind="db.fetch")
               if ev.ts >= env.t_start]
    lock_waits = [ev.get("waited")
                  for ev in telemetry.events(kind="db.lock.wait")]
    return ArmResult(
        label=label, n=n, n_ok=n_ok, latencies=latencies,
        fetches=fetches, lock_waits=lock_waits)


def run_dbscale(n: int = 8, seed: int = 0,
                smoke: bool = False) -> DbScaleResult:
    """Run the three-arm ablation; see the module docstring."""
    blob_bytes = int(MB(32)) if smoke else int(MB(100))
    chunk_bytes = int(MB(4)) if smoke else int(MB(4))
    if smoke:
        n = min(n, 4)
    storm = 3
    runtime = 4.0
    common = dict(blob_bytes=blob_bytes, chunk_bytes=chunk_bytes,
                  n=n, runtime=runtime, seed=seed)
    baseline = _run_arm("baseline", storm=0, scaled=False, **common)
    locked = _run_arm("storm/locked", storm=storm, scaled=False, **common)
    scaled = _run_arm("storm/scaled", storm=storm, scaled=True, **common)
    return DbScaleResult(blob_bytes=blob_bytes, chunk_bytes=chunk_bytes,
                         baseline=baseline, locked=locked, scaled=scaled)
