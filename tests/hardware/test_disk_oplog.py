"""Tests for the disk operation log: opened on demand, never by default."""

from repro.hardware import Disk
from repro.simkernel import Simulator


def test_op_log_records_time_direction_size():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0, access_latency=0.0)
    log = disk.record()

    def flow():
        yield disk.write(100.0)
        yield sim.timeout(5.0)
        yield disk.read(50.0)

    sim.run(until=sim.process(flow()))
    assert log == [
        (0.0, "write", 100.0),
        (5.1, "read", 50.0),
    ]


def test_op_log_orders_concurrent_ops():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0, access_latency=0.0)
    log = disk.record()
    disk.write(100.0)
    disk.write(200.0)
    sim.run()
    assert [entry[2] for entry in log] == [100.0, 200.0]
    assert all(t == 0.0 for t, _, _ in log)


def _ops(sim, disk, n):
    def flow():
        for i in range(n):
            yield (disk.write if i % 2 else disk.read)(64.0)
    sim.run(until=sim.process(flow()))


def test_a_disk_with_no_open_log_holds_no_per_op_entry():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0, access_latency=0.001)
    _ops(sim, disk, 100)
    assert disk.bytes_read() == disk.bytes_written() == 50 * 64.0
    held = {name: len(value) for name, value in vars(disk).items()
            if isinstance(value, (list, dict, tuple))}
    assert held == {"_logs": 0}


def test_a_log_opened_mid_run_holds_exactly_the_operations_after_it():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0, access_latency=0.0)
    _ops(sim, disk, 3)
    first = disk.record()
    t_open = sim.now
    disk.write(10.0)
    second = disk.record()
    disk.read(20.0)
    sim.run()
    assert first == [(t_open, "write", 10.0), (t_open, "read", 20.0)]
    assert second == [(t_open, "read", 20.0)]
    first.close()
    t_close = sim.now
    disk.write(30.0)
    sim.run()
    assert len(first) == 2  # closed: kept, not extended
    assert second[-1] == (t_close, "write", 30.0)
