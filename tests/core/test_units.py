"""Unit tests for core building blocks: datastructures, watchdog, builder."""

import zipfile
import io

import pytest

from repro.core.datastructures import (
    ExecutableRecord, parse_params_spec, service_name_for,
)
from repro.core.service_builder import ServiceBuilder
from repro.core.watchdog import await_waiter, poll_until
from repro.errors import OnServeError, WatchdogTimeout, WsError
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.ws import SoapFabric, SoapServer


# ---------------------------------------------------------------- datastructures

def test_parse_params_spec():
    params = parse_params_spec("name:string, count:int, x:double, ok:boolean")
    assert [(p.name, p.xsd_type) for p in params] == [
        ("name", "xsd:string"), ("count", "xsd:int"),
        ("x", "xsd:double"), ("ok", "xsd:boolean")]
    assert parse_params_spec("") == []
    assert parse_params_spec("   ") == []


def test_parse_params_spec_errors():
    with pytest.raises(OnServeError, match="name:type"):
        parse_params_spec("justname")
    with pytest.raises(OnServeError, match="unknown parameter type"):
        parse_params_spec("x:blob")
    with pytest.raises(WsError):
        parse_params_spec("bad name:string")


def test_service_name_for():
    assert service_name_for("hello.sh") == "HelloService"
    assert service_name_for("word-count_2.py") == "WordCount2Service"
    assert service_name_for("UPPER.exe") == "UpperService"
    with pytest.raises(OnServeError):
        service_name_for("...")


def test_executable_record_validation():
    with pytest.raises(OnServeError):
        ExecutableRecord("", "", [], 0, "u", 0.0)


# ---------------------------------------------------------------- watchdog

def test_watchdog_passes_through_fast_result():
    """A waiter fired in time hands back its value, and the wait still
    detaches it from its source (``cancel`` runs on every ending)."""
    sim = Simulator()
    waiter, cancelled = sim.event(), []

    def source():
        yield sim.timeout(5)
        waiter.succeed("fast")

    sim.process(source())
    wait = await_waiter(sim, lambda: waiter, cancelled.append,
                        timeout=100, what="fast-op")
    assert sim.run(until=sim.process(wait)) == "fast"
    assert sim.now == 5
    assert cancelled == [waiter]


def test_watchdog_kills_slow_process():
    """At the deadline the wait gives up and its ``cancel`` hook can
    stop the slow worker that would have fired the waiter."""
    sim = Simulator()
    waiter, interrupted = sim.event(), []

    def slow():
        try:
            yield sim.timeout(1000)
            waiter.succeed("late")
        except BaseException as exc:
            interrupted.append(type(exc).__name__)
            raise

    worker = sim.process(slow())
    worker.defused()
    wait = await_waiter(sim, lambda: waiter,
                        lambda ev: worker.interrupt("deadline"),
                        timeout=10, what="slow-op")
    with pytest.raises(WatchdogTimeout, match=r"slow-op gave up \(10s\)"):
        sim.run(until=sim.process(wait))
    assert sim.now == 10
    sim.run()
    assert interrupted == ["Interrupt"]
    assert not waiter.triggered


def test_poll_until_accepts_and_counts():
    sim = Simulator()
    state = {"n": 0}

    def poll():
        yield sim.timeout(0.5)
        state["n"] += 1
        return state["n"]

    result, polls = sim.run(until=sim.process(poll_until(
        sim, poll, accept=lambda v: v >= 3, interval=10.0, timeout=1000.0)))
    assert result == 3
    assert polls == 3
    assert sim.now >= 20.0  # two sleep intervals


def test_poll_until_times_out():
    sim = Simulator()

    def poll():
        yield sim.timeout(0.1)
        return False

    with pytest.raises(WatchdogTimeout, match="gave up"):
        sim.run(until=sim.process(poll_until(sim, poll, accept=lambda v: v,
                                             interval=5.0, timeout=20.0)))


def test_poll_until_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.run(until=sim.process(poll_until(
            sim, lambda: None, lambda v: True, interval=0, timeout=1)))


# ---------------------------------------------------------------- service builder

def _builder():
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "h", net, HostSpec())
    server = SoapServer(host, SoapFabric())
    return sim, host, server, ServiceBuilder(host, server)


def _record(name="hello.sh", params="name:string"):
    return ExecutableRecord(name, "demo", parse_params_spec(params),
                            size=100, uploaded_by="t", uploaded_at=0.0)


def test_builder_generates_real_archive():
    sim, host, server, builder = _builder()
    record = _record()
    archive = builder.build_archive(record)
    with zipfile.ZipFile(io.BytesIO(archive)) as aar:
        names = aar.namelist()
        assert "HelloService.java" in names
        assert "META-INF/services.xml" in names
        source = aar.read("HelloService.java").decode()
        assert 'executableName = "hello.sh"' in source
        assert "String name" in source
        xml = aar.read("META-INF/services.xml").decode()
        assert 'name="HelloService"' in xml
        assert 'name="name" type="xsd:string"' in xml


def test_builder_archive_is_the_same_bytes_whenever_it_is_built(
        monkeypatch):
    """Two builds of one record two seconds apart zip the same bytes:
    every entry carries one fixed timestamp, not the wall clock."""
    import time
    from repro.core import service_builder

    sim, host, server, builder = _builder()
    clock = [1_700_000_000.0]
    monkeypatch.setattr(time, "time", lambda: clock[0])
    service_builder._archive.cache_clear()
    first = builder.build_archive(_record())
    clock[0] += 2.0
    service_builder._archive.cache_clear()
    second = builder.build_archive(_record())
    assert second == first
    with zipfile.ZipFile(io.BytesIO(first)) as aar:
        assert {i.date_time for i in aar.infolist()} == {(1980, 1, 1, 0, 0, 0)}
        assert {i.compress_type for i in aar.infolist()} == {
            zipfile.ZIP_DEFLATED}
    # A different record is a different archive.
    assert builder.build_archive(_record(params="")) != first


def test_builder_deploys_service():
    sim, host, server, builder = _builder()
    endpoint, archive = sim.run(until=builder.build_and_deploy(
        _record(), lambda op, p: "x"))
    assert endpoint == "soap://h/HelloService"
    assert "HelloService" in server.services()
    assert builder.builds == 1
    assert sim.now > 0  # the build took CPU+disk time
    assert host.disk.bytes_written() >= len(archive)


def test_builder_rejects_duplicate_service():
    sim, host, server, builder = _builder()
    sim.run(until=builder.build_and_deploy(_record(), lambda op, p: "x"))
    from repro.errors import ServiceBuildError
    with pytest.raises(ServiceBuildError, match="already exists"):
        sim.run(until=builder.build_and_deploy(_record(), lambda op, p: "x"))


def test_builder_description_interface():
    _, _, _, builder = _builder()
    desc = builder.description_for(_record(params="a:int, b:double"))
    execute = desc.operation("execute")
    assert [p.xsd_type for p in execute.params] == ["xsd:int", "xsd:double"]
    assert desc.operation("describe").params == ()
