"""The speed meter on a fake clock: what it scales, what it leaves out."""

import pytest

from benchmarks.e2e import speed
from benchmarks.e2e.speed import REF_KERNEL_S, SpeedMeter


class FakeHost:
    """A clock, and a kernel that takes ``REF_KERNEL_S * slowdown``."""

    def __init__(self, monkeypatch):
        self.now = 100.0
        self.slowdown = 1.0
        monkeypatch.setattr(speed, "reference_kernel", self._kernel)

    def _kernel(self):
        self.now += REF_KERNEL_S * self.slowdown

    def clock(self):
        return self.now

    def work(self, seconds_at_reference_speed):
        self.now += seconds_at_reference_speed * self.slowdown


@pytest.fixture
def host(monkeypatch):
    return FakeHost(monkeypatch)


def test_at_the_reference_speed_nothing_is_scaled(host):
    meter = SpeedMeter(host.clock)
    for _ in range(3):
        host.work(0.5)
        meter.mark()
    assert meter.raw_s == pytest.approx(1.5)
    assert meter.normalised_s == pytest.approx(1.5)
    assert meter.slowdown == pytest.approx(1.0)


def test_a_slow_host_reads_the_same_work(host):
    host.slowdown = 1.6
    meter = SpeedMeter(host.clock)
    host.work(0.5)
    meter.mark()
    host.work(0.25)
    meter.mark()
    assert meter.raw_s == pytest.approx(0.75 * 1.6)   # kernel time left out
    assert meter.normalised_s == pytest.approx(0.75)
    assert meter.slowdown == pytest.approx(1.6)


def test_a_stretch_is_held_against_the_speed_at_both_its_ends(host):
    meter = SpeedMeter(host.clock)          # opening reference at 1.0
    host.now += 0.3                         # a stretch of 0.3 s raw
    host.slowdown = 2.0
    meter.mark()                            # closing reference at 2.0
    assert meter.normalised_s == pytest.approx(0.3 / 1.5)


def test_a_span_begun_before_the_meter_uses_its_closing_reference(host):
    host.slowdown = 2.0
    began = host.clock()
    host.work(0.1)
    meter = SpeedMeter(host.clock, since=began)   # no opening kernel run
    assert host.clock() == pytest.approx(began + 0.2)
    meter.mark()
    assert meter.raw_s == pytest.approx(0.2)
    assert meter.normalised_s == pytest.approx(0.1)


def test_mark_if_due_waits_for_the_gap(host):
    meter = SpeedMeter(host.clock)
    host.work(speed.MARK_GAP_S / 5)
    meter.mark_if_due()
    assert meter.raw_s == 0.0               # nothing marked yet
    host.work(speed.MARK_GAP_S)
    meter.mark_if_due()
    assert meter.raw_s == pytest.approx(speed.MARK_GAP_S * 1.2)


def test_the_kernel_leaves_no_garbage_behind():
    import gc
    gc.collect()
    speed.reference_kernel()     # refills the free lists collect() emptied
    before = gc.get_count()[0]
    speed.reference_kernel()
    assert abs(gc.get_count()[0] - before) <= 2
