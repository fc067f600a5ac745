"""Unit tests for change-driven gauges and the gauge board."""

from repro.simkernel.kernel import Simulator
from repro.telemetry.gauges import gauges


def drive(g):
    g.set(0.0)  # first sample always recorded
    g.set(0.0)  # no change -> no sample
    g.set(2.0)
    g.set(2.0)
    g.adjust(+1)
    g.adjust(-3)


def test_gauge_records_only_changes():
    sim = Simulator(seed=0)
    board = gauges(sim)
    board.record("q")
    g = board.gauge("q", unit="reqs")
    drive(g)
    assert g.series.values == [0.0, 2.0, 3.0, 0.0]
    assert g.current == 0.0
    assert g.peak() == 3.0


def test_an_unrecorded_gauge_holds_no_series_and_reads_the_same():
    sim = Simulator(seed=0)
    board = gauges(sim)
    board.record("kept")
    kept, bare = board.gauge("kept"), board.gauge("bare")
    assert bare.peak() == kept.peak() == 0.0 and bare.series is None

    def run():
        for level in (0.0, 4.0, 4.0, -2.0, 1.0):
            kept.set(level), bare.set(level)
            yield sim.timeout(1.0)

    sim.run(until=sim.process(run()))
    assert bare.series is None
    assert (bare.current, bare.peak()) == (kept.current, kept.peak()) == (
        1.0, 4.0)
    # The recorded series is every change, sample for sample.
    assert list(kept.series) == [(0.0, 0.0), (1.0, 4.0), (3.0, -2.0),
                                 (4.0, 1.0)]
    assert board.series() == [kept.series]


def test_recording_a_gauge_with_a_level_starts_from_that_level():
    sim = Simulator(seed=0)
    board = gauges(sim)
    g = board.gauge("late")
    drive(g)
    g.set(5.0)
    board.record("late")
    g.adjust(+1)
    assert list(g.series) == [(0.0, 5.0), (0.0, 6.0)]
    assert g.peak() == 6.0


def test_board_is_per_simulator_and_create_on_first_use():
    sim_a, sim_b = Simulator(seed=0), Simulator(seed=0)
    board = gauges(sim_a)
    assert board is gauges(sim_a)
    assert board is not gauges(sim_b)
    g = board.gauge("x.depth", unit="reqs")
    assert board.gauge("x.depth") is g
    assert board.get("x.depth") is g
    assert board.get("missing") is None


def test_board_series_and_peaks_are_name_ordered():
    sim = Simulator(seed=0)
    board = gauges(sim)
    board.record("a", "b")
    board.gauge("b").set(5.0)
    board.gauge("a").set(1.0)
    assert board.names() == ["a", "b"]
    assert [s.name for s in board.series()] == ["a", "b"]
    assert board.peaks() == {"a": 1.0, "b": 5.0}
