"""Unit tests for the host sampler and report rendering."""

import pytest

from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.telemetry import HostSampler, render_figure, series_table, to_csv
from repro.telemetry.report import sparkline
from repro.units import KB


def _host(cores=1, disk_bw=KB(1000)):
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "h", net, HostSpec(cores=cores, disk_bandwidth=disk_bw,
                                        disk_latency=0.0))
    peer = Host(sim, "peer", net, HostSpec())
    net.connect("h", "peer", bandwidth=KB(100))
    return sim, host, peer


def test_sampler_interval_and_count():
    sim, host, _ = _host()
    sampler = HostSampler(host, interval=3.0)
    sim.run(until=30.0)
    assert len(sampler.cpu) == 10
    assert sampler.cpu.times == [3.0 * i for i in range(1, 11)]


def test_cpu_utilization_sampled():
    sim, host, _ = _host(cores=2)
    sampler = HostSampler(host, interval=3.0)
    host.compute(3.0)  # one core busy for 3 s of a 2-core host
    sim.run(until=6.0)
    # First interval: 3 core-seconds / (2 cores * 3 s) = 50%.
    assert sampler.cpu.values[0] == pytest.approx(50.0)
    assert sampler.cpu.values[1] == pytest.approx(0.0)


def test_disk_rates_sampled():
    sim, host, _ = _host(disk_bw=KB(100))
    sampler = HostSampler(host, interval=3.0)
    host.disk_write(KB(300))  # 3 s at 100 KB/s
    sim.run(until=6.0)
    assert sampler.disk_write.values[0] == pytest.approx(100.0)
    assert sampler.disk_write.values[1] == pytest.approx(0.0)
    assert sampler.series["disk_read_kbps"].max() == 0.0


def test_network_rates_sampled():
    sim, host, peer = _host()
    sampler = HostSampler(host, interval=3.0)
    peer.send(host, KB(300))  # 3 s at 100 KB/s link
    sim.run(until=6.0)
    assert sampler.net_in.values[0] == pytest.approx(100.0)
    assert sampler.net_out.max() == 0.0


def test_sampler_stop():
    sim, host, _ = _host()
    sampler = HostSampler(host, interval=3.0)

    def stopper():
        yield sim.timeout(9.0)
        sampler.stop()

    sim.process(stopper())
    sim.run(until=60.0)
    assert len(sampler.cpu) <= 4


def test_invalid_interval():
    _, host, _ = _host()
    with pytest.raises(ValueError):
        HostSampler(host, interval=0)


def test_rates_conserve_totals():
    """Sum(rate * interval) == total bytes moved, regardless of alignment."""
    sim, host, peer = _host()
    HostSampler(host, interval=3.0)
    sampler = HostSampler(host, interval=3.0)
    peer.send(host, KB(250))  # 2.5 s at 100 KB/s: not interval-aligned
    sim.run(until=12.0)
    assert sum(v * 3.0 for v in sampler.net_in.values) == pytest.approx(250.0)


# ---------------------------------------------------------------- report

def _sample_series():
    from repro.telemetry import TimeSeries

    s = TimeSeries("metric", unit="KB/s")
    for i in range(10):
        s.append(i * 3.0, float(i % 4))
    return s


def test_sparkline_width():
    s = _sample_series()
    assert len(sparkline(s, width=100)) == 10  # fewer samples than width
    long = _sample_series()
    for i in range(10, 300):
        long.append(i * 3.0, 1.0)
    assert len(sparkline(long, width=50)) == 50


def test_sparkline_empty_and_flat():
    from repro.telemetry import TimeSeries

    empty = TimeSeries("e")
    assert sparkline(empty) == "(empty)"
    flat = TimeSeries("f")
    flat.append(0, 0.0)
    flat.append(3, 0.0)
    assert set(sparkline(flat)) == {" "}


def test_render_figure_contains_series():
    out = render_figure("Fig X", [_sample_series()])
    assert "Fig X" in out
    assert "metric" in out
    assert "max=" in out


def test_series_table_alignment_and_truncation():
    s = _sample_series()
    table = series_table([s])
    assert "t(s)" in table and "metric" in table
    assert len(table.splitlines()) == 11
    truncated = series_table([s], max_rows=4)
    assert "..." in truncated


def test_to_csv_round_numbers():
    s = _sample_series()
    csv = to_csv([s])
    lines = csv.splitlines()
    assert lines[0] == "time,metric"
    assert len(lines) == 11
    assert lines[1].startswith("0,")
