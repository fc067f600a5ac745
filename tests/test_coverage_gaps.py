"""Targeted tests for otherwise-uncovered edges across subsystems."""

import pytest

from repro.errors import GridError, HardwareError
from repro.grid import InformationService, JobDescription
from repro.grid.job import GridJob, JobState
from repro.grid.site import GridSite
from repro.hardware import Network
from repro.hardware.fairshare import FairShareServer
from repro.simkernel import Simulator
from repro.telemetry import TimeSeries, series_table, to_csv


def test_mds_deregister():
    sim = Simulator()
    net = Network(sim)
    mds = InformationService()
    site = GridSite(sim, "solo", net, nodes=1, cores_per_node=2)
    mds.register(site)
    with pytest.raises(GridError, match="already registered"):
        mds.register(site)
    mds.deregister("solo")
    with pytest.raises(GridError, match="not registered"):
        mds.deregister("solo")
    with pytest.raises(GridError):
        mds.get_site("solo")


def test_site_storage_helpers():
    sim = Simulator()
    net = Network(sim)
    site = GridSite(sim, "s", net, nodes=1, cores_per_node=2)
    site.store_file("/a", b"data")
    assert site.has_file("/a")
    site.delete_file("/a")
    site.delete_file("/a")  # idempotent
    with pytest.raises(GridError, match="no file"):
        site.read_file("/a")


def test_job_queue_wait_before_start():
    sim = Simulator()
    job = GridJob("j", JobDescription(executable="/x"), "/CN=a", 0.0)
    assert job.queue_wait() is None
    job.transition(JobState.PENDING, 1.0)
    assert job.queue_wait() is None  # not started yet


def test_fairshare_cumulative_rejects_other_times():
    sim = Simulator()
    srv = FairShareServer(sim, capacity=10.0)
    srv.submit(5.0, tags=("t",))
    with pytest.raises(HardwareError, match="current time"):
        srv.cumulative("t", at=99.0)
    assert srv.cumulative("t", at=sim.now) == 0.0


def test_find_eq_without_index_scans():
    from repro.db import Database
    from repro.db.table import Column

    db = Database()
    db.create_table("t", [Column("a", "INT"), Column("b", "TEXT")])
    db.insert("t", [1, "x"])
    db.insert("t", [2, "x"])
    db.insert("t", [3, "y"])
    assert len(db.find_eq("t", "b", "x")) == 2  # full scan path


def test_mediator_wait_all_with_no_tasks():
    from repro.cyberaide import Mediator

    sim = Simulator()
    med = Mediator(sim)
    done = med.wait_all()
    sim.run(until=done)  # fires immediately, empty condition
    assert med.stats()["submitted"] == 0


def test_report_rendering_edges():
    assert series_table([]) == "(no series)"
    assert to_csv([]) == ""
    s = TimeSeries("only")
    s.append(0.0, 1.0)
    assert "only" in series_table([s])


def test_network_hosts_and_links_listing():
    sim = Simulator()
    net = Network(sim)
    net.connect("a", "b", bandwidth=10.0)
    net.connect("b", "c", bandwidth=10.0)
    assert net.hosts() == ["a", "b", "c"]
    assert len(net.links()) == 2
    assert net.route("a", "a") == []
