"""Unit tests for Cpu, Disk and Host."""

import pytest

from repro.errors import HardwareError
from repro.hardware import Cpu, Disk, Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator


# ---------------------------------------------------------------- CPU

def test_cpu_single_task_duration():
    sim = Simulator()
    cpu = Cpu(sim, cores=2)
    done = cpu.compute(3.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(3.0)


def test_cpu_parallel_tasks_within_cores():
    sim = Simulator()
    cpu = Cpu(sim, cores=2)
    a = cpu.compute(3.0)
    b = cpu.compute(3.0)
    sim.run()
    assert a.value == pytest.approx(3.0)
    assert b.value == pytest.approx(3.0)


def test_cpu_contention_beyond_cores():
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    a = cpu.compute(2.0)
    b = cpu.compute(2.0)
    sim.run()
    # Processor sharing: both run at 0.5 cores, both finish at t=4.
    assert a.value == pytest.approx(4.0)
    assert b.value == pytest.approx(4.0)


def test_cpu_speed_factor_scales_time():
    sim = Simulator()
    fast = Cpu(sim, cores=1, speed_factor=2.0)
    done = fast.compute(10.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(5.0)


def test_cpu_busy_accounting():
    sim = Simulator()
    cpu = Cpu(sim, cores=4)
    cpu.compute(2.0)
    cpu.compute(2.0)
    sim.run()
    assert cpu.busy_core_seconds() == pytest.approx(4.0)


def test_cpu_validation():
    sim = Simulator()
    with pytest.raises(HardwareError):
        Cpu(sim, cores=0)
    with pytest.raises(HardwareError):
        Cpu(sim, speed_factor=0)
    cpu = Cpu(sim)
    with pytest.raises(HardwareError):
        cpu.compute(-1)


# ---------------------------------------------------------------- Disk

def test_disk_write_duration_includes_latency():
    sim = Simulator()
    disk = Disk(sim, bandwidth=100.0, access_latency=0.5)
    done = disk.write(1000.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.5)


def test_disk_read_write_share_bandwidth():
    sim = Simulator()
    disk = Disk(sim, bandwidth=100.0, access_latency=0.0)
    r = disk.read(500.0)
    w = disk.write(500.0)
    sim.run()
    assert r.value == pytest.approx(10.0)
    assert w.value == pytest.approx(10.0)


def test_disk_counters_separate_directions():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0, access_latency=0.0)
    disk.write(300.0)
    disk.read(200.0)
    sim.run()
    assert disk.bytes_written() == pytest.approx(300.0)
    assert disk.bytes_read() == pytest.approx(200.0)


def test_disk_capacity_enforced():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0, capacity_bytes=1000.0)
    disk.write(800.0)
    with pytest.raises(HardwareError, match="disk full"):
        disk.write(300.0)
    sim.run()


# ---------------------------------------------------------------- Host

def _mini_net():
    sim = Simulator()
    net = Network(sim)
    a = Host(sim, "a", net, HostSpec(cores=1))
    b = Host(sim, "b", net, HostSpec(cores=1))
    net.connect("a", "b", bandwidth=100.0)
    return sim, net, a, b


def test_host_send_uses_network():
    sim, net, a, b = _mini_net()
    done = a.send(b, 1000.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0)
    assert a.net_bytes_out() == pytest.approx(1000.0)
    assert b.net_bytes_in() == pytest.approx(1000.0)
    assert a.net_bytes_in() == 0.0


def test_host_memory_accounting():
    sim = Simulator()
    net = Network(sim)
    h = Host(sim, "h", net, HostSpec(memory_bytes=100.0))
    h.allocate_memory(60.0)
    with pytest.raises(HardwareError, match="out of memory"):
        h.allocate_memory(50.0)
    h.release_memory(30.0)
    h.allocate_memory(50.0)
    assert h.memory_used == pytest.approx(80.0)


def test_host_local_send_is_instant():
    sim, net, a, b = _mini_net()
    done = a.send(a, 1e9)
    sim.run(until=done)
    assert sim.now == 0.0
