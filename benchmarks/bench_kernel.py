"""Sim-kernel throughput gate: events/sec + profiler tax (ROADMAP 4b).

Drives a fixed 4-replica fabric workload through the kernel twice —
bare, then with the :class:`~repro.telemetry.profiler.KernelProfiler`
attached — and gates the two numbers million-invocation runs depend
on:

* the kernel sustains a floor of dispatched events per wall-clock
  second (measured with the profiler attached, i.e. the pessimistic
  number), and
* attaching the profiler costs under a fixed number of microseconds
  per profiled callback, so leaving it on for every scale study is
  free-ish.  The tax is held in absolute terms on purpose: as a share
  of the bare run it rose past 10 % only because the bare run kept
  getting cheaper (fewer, lighter events) while ``run_callbacks`` cost
  what it always did — a gate that fails for a reason nobody broke.

The profiled run's report (throughput, simulation-vs-telemetry split,
hottest handlers) is saved to ``benchmarks/reports/kernel.txt`` — the
number EXPERIMENTS.md quotes for the observability tax.
"""

import gc
import time

from repro.core.fabric import deploy_fabric
from repro.core.invocation import discover_and_invoke
from repro.core.onserve import OnServeConfig
from repro.grid.testbed import build_testbed
from repro.simkernel.kernel import Simulator
from repro.telemetry.profiler import KernelProfiler
from repro.units import KB
from repro.workloads.executables import make_payload

REPLICAS = 4
WORKERS = 6
ROUNDS = 30          # invocations per worker
#: Conservative floor — local runs sustain ~35-45k events/sec; CI boxes
#: get an order of magnitude of headroom.
EVENTS_PER_SECOND_FLOOR = 4_000
#: Wall microseconds the profiler may add per callback it times
#: (measured 0.9-1.2: two clock reads, a dict lookup and the bookkeeping
#: per callback, plus two clock reads per bus emit and gauge write).
PROFILER_US_PER_CALLBACK_CEILING = 1.5
#: Alternating bare/profiled pairs the overhead gate takes: at least
#: MIN_PAIRS, more (up to MAX_PAIRS) only while the two noise floors
#: have not settled under the ceiling.
MIN_PAIRS, MAX_PAIRS = 5, 15


def _drive(profiled: bool):
    """One deterministic fabric run; returns (wall_seconds, profiler)."""
    sim = Simulator(seed=0)
    testbed = build_testbed(sim=sim, n_sites=2, nodes_per_site=4,
                            cores_per_node=8, n_users=WORKERS)
    config = OnServeConfig(poll_interval=2.0)
    stack = sim.run(until=deploy_fabric(testbed, config, replicas=REPLICAS,
                                        router=True))
    stack.enable_client_caches()
    payload = make_payload("fixed", size=int(KB(64)), runtime="2",
                           output_bytes=str(int(KB(4))))
    for j in range(REPLICAS):
        sim.run(until=stack.portal.upload_and_generate(
            testbed.user_hosts[0], f"kern{j:02d}.bin", payload))

    def worker(i):
        client = stack.user_clients[i]
        pattern = f"Kern{i % REPLICAS:02d}%"
        for _ in range(ROUNDS):
            yield discover_and_invoke(stack, client, pattern)

    procs = [sim.process(worker(i), name=f"tenant:{i}")
             for i in range(WORKERS)]
    prof = KernelProfiler(sim).attach() if profiled else None
    t0 = time.perf_counter()
    sim.run(until=sim.all_of(procs))
    wall = time.perf_counter() - t0
    if prof is not None:
        prof.detach()
    return wall, prof


def _best_of(n: int, profiled: bool):
    """Min wall time over *n* runs (noise floor), last profiler kept."""
    best, keep = float("inf"), None
    for _ in range(n):
        wall, prof = _drive(profiled)
        if wall < best:
            best, keep = wall, prof
    return best, keep


def test_kernel_events_per_second_floor(save_report):
    wall, prof = _best_of(2, profiled=True)
    header = (f"kernel throughput — {REPLICAS}-replica fabric, "
              f"{WORKERS} tenants x {ROUNDS} invocations\n")
    save_report("kernel", header + prof.report())
    assert prof.events_dispatched > 10_000  # the workload is non-trivial
    assert prof.events_per_second() >= EVENTS_PER_SECOND_FLOOR
    # The split is measured, not residual noise: both halves are real.
    assert prof.telemetry_seconds > 0
    assert prof.simulation_seconds() > prof.telemetry_seconds


def test_profiler_overhead_per_callback_under_ceiling():
    # The tax is a difference of two wall times, not a ratio, so it is
    # taken between the two noise floors.  Noise on a shared host only
    # ever adds time, so each floor converges from above; the forms run
    # as alternating pairs, swapping which goes first (a host-speed
    # spell, and the small penalty of running second, land on both),
    # each from a collected heap (the previous run's garbage is not
    # this run's pause).  Five pairs at least; while the floors have
    # not cleared the ceiling yet, a few more let them settle — a tax
    # really above the ceiling never clears and fails after the last.
    floor = {False: float("inf"), True: float("inf")}
    prof, pairs = None, 0
    while pairs < MAX_PAIRS:
        for profiled in ((False, True) if pairs % 2 == 0 else (True, False)):
            gc.collect()
            wall, kept = _drive(profiled)
            floor[profiled] = min(floor[profiled], wall)
            prof = kept or prof
        pairs += 1
        callbacks = sum(prof.calls.values())
        per_callback = (floor[True] - floor[False]) / callbacks * 1e6
        if pairs >= MIN_PAIRS and \
                per_callback < PROFILER_US_PER_CALLBACK_CEILING:
            break
    print(f"\nprofiler overhead: bare={floor[False]:.3f}s "
          f"profiled={floor[True]:.3f}s "
          f"(+{floor[True] / floor[False] - 1.0:.1%}) over {callbacks} "
          f"callbacks = {per_callback:.2f} us each after {pairs} pairs "
          f"(ceiling {PROFILER_US_PER_CALLBACK_CEILING} us)")
    # Identical deterministic timeline either way — only wall time moves.
    assert prof.events_dispatched > 10_000 and callbacks >= 10_000
    assert per_callback < PROFILER_US_PER_CALLBACK_CEILING
