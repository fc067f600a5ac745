"""Unit tests for appliance images and deployment."""

import pytest

from repro.appliance import ApplianceImage, ImageBuilder, Package, deploy_image
from repro.appliance.image import ONSERVE_PACKAGES
from repro.errors import ApplianceError
from repro.hardware import Host, Network
from repro.hardware.host import HostSpec
from repro.simkernel import Simulator
from repro.units import MB, MBps, Mbps


def builder_with(*packages):
    b = ImageBuilder()
    for p in packages:
        b.provide(p)
    return b


def test_package_validation():
    with pytest.raises(ApplianceError):
        Package("x", "1", size_bytes=-1)
    with pytest.raises(ApplianceError):
        Package("x", "1", size_bytes=1, boot_seconds=-1)


def test_build_orders_dependencies():
    a = Package("a", "1", MB(1))
    b = Package("b", "1", MB(1), depends_on=("a",))
    c = Package("c", "1", MB(1), depends_on=("b", "a"))
    image = builder_with(a, b, c).build("img", ["c"])
    assert [p.name for p in image.packages] == ["a", "b", "c"]


def test_build_detects_cycles():
    a = Package("a", "1", MB(1), depends_on=("b",))
    b = Package("b", "1", MB(1), depends_on=("a",))
    with pytest.raises(ApplianceError, match="cycle"):
        builder_with(a, b).build("img", ["a"])


def test_build_unknown_package():
    with pytest.raises(ApplianceError, match="no such package"):
        ImageBuilder().build("img", ["ghost"])
    with pytest.raises(ApplianceError, match="at least one"):
        ImageBuilder().build("img", [])


def test_image_identity_stable():
    a = Package("a", "1", MB(1))
    img1 = builder_with(a).build("img", ["a"])
    img2 = builder_with(a).build("img", ["a"])
    assert img1.image_id == img2.image_id
    b = Package("a", "2", MB(1))
    img3 = builder_with(b).build("img", ["a"])
    assert img3.image_id != img1.image_id


def test_onserve_package_set_builds():
    builder = ImageBuilder()
    for p in ONSERVE_PACKAGES():
        builder.provide(p)
    image = builder.build("onserve", ["cyberaide-onserve"])
    names = [p.name for p in image.packages]
    assert names[-1] == "cyberaide-onserve"
    assert names.index("tomcat") < names.index("axis2")
    assert names.index("mysql") < names.index("juddi")
    assert image.size_bytes > MB(150)


def _deploy_env():
    sim = Simulator()
    net = Network(sim)
    target = Host(sim, "target", net, HostSpec(disk_bandwidth=MBps(100)))
    repo = Host(sim, "repo", net, HostSpec())
    net.connect("target", "repo", bandwidth=Mbps(100))
    return sim, target, repo


def test_deploy_local_takes_boot_time():
    sim, target, repo = _deploy_env()
    image = builder_with(Package("a", "1", MB(10), boot_seconds=4.0,
                                 boot_cpu_seconds=1.0)).build("img", ["a"])
    appliance = sim.run(until=deploy_image(image, target))
    assert appliance.startup_seconds >= 4.0 + 1.0 + 5.0
    assert appliance.boot_log[0][0] == "a"
    assert target.disk.bytes_written() >= image.size_bytes


def test_deploy_from_repository_transfers_image():
    sim, target, repo = _deploy_env()
    image = builder_with(Package("a", "1", MB(10))).build("img", ["a"])
    sim.run(until=deploy_image(image, target, repository=repo))
    assert target.net_bytes_in() >= image.size_bytes


