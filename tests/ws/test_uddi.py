"""Unit tests for the UDDI registry."""

import pytest

from repro.errors import UddiError
from repro.ws import UddiRegistry


def registry_with_data():
    reg = UddiRegistry()
    biz = reg.save_business("Cyberaide", "grid middleware")
    svc1 = reg.save_service(biz.key, "HelloService", "says hello")
    svc2 = reg.save_service(biz.key, "WordCountService")
    reg.save_binding(svc1.key, "soap://appliance/HelloService",
                     wsdl_location="soap://appliance/HelloService?wsdl")
    return reg, biz, svc1, svc2


def test_publish_and_get():
    reg, biz, svc1, svc2 = registry_with_data()
    assert reg.get_business(biz.key).name == "Cyberaide"
    assert reg.get_service(svc1.key).description == "says hello"
    bindings = reg.get_bindings(svc1.key)
    assert len(bindings) == 1
    assert bindings[0].access_point == "soap://appliance/HelloService"
    assert reg.service_count() == 2


def test_keys_are_unique_uuids():
    reg, biz, svc1, svc2 = registry_with_data()
    assert svc1.key != svc2.key
    assert svc1.key.startswith("uuid:")


def test_find_service_patterns():
    reg, biz, svc1, svc2 = registry_with_data()
    assert [s.name for s in reg.find_service("%")] == [
        "HelloService", "WordCountService"]
    assert [s.name for s in reg.find_service("hello%")] == ["HelloService"]
    assert [s.name for s in reg.find_service("%count%")] == ["WordCountService"]
    assert reg.find_service("nothing%") == []


def test_find_service_scoped_to_business():
    reg, biz, svc1, svc2 = registry_with_data()
    other = reg.save_business("Other")
    reg.save_service(other.key, "HelloService")
    assert len(reg.find_service("HelloService")) == 2
    assert len(reg.find_service("HelloService", business_key=biz.key)) == 1


def test_find_business():
    reg, biz, *_ = registry_with_data()
    assert [b.name for b in reg.find_business("cyber%")] == ["Cyberaide"]


def test_publish_validation():
    reg = UddiRegistry()
    with pytest.raises(UddiError):
        reg.save_business("")
    with pytest.raises(UddiError):
        reg.save_service("uuid:nope", "S")
    biz = reg.save_business("B")
    with pytest.raises(UddiError):
        reg.save_service(biz.key, "")
    with pytest.raises(UddiError):
        reg.save_binding("uuid:nope", "soap://x/Y")
    svc = reg.save_service(biz.key, "S")
    with pytest.raises(UddiError):
        reg.save_binding(svc.key, "soap://x/Y", tmodel_key="uuid:nope")


def test_tmodel_roundtrip():
    reg = UddiRegistry()
    tm = reg.save_tmodel("onserve:grid-execution", "soap://doc")
    assert reg.get_tmodel(tm.key).name == "onserve:grid-execution"
    biz = reg.save_business("B")
    svc = reg.save_service(biz.key, "S")
    binding = reg.save_binding(svc.key, "soap://x/S", tmodel_key=tm.key)
    assert binding.tmodel_key == tm.key


def test_delete_service_cascades_bindings():
    reg, biz, svc1, svc2 = registry_with_data()
    reg.delete_service(svc1.key)
    with pytest.raises(UddiError):
        reg.get_service(svc1.key)
    with pytest.raises(UddiError):
        reg.get_bindings(svc1.key)
    assert reg.service_count() == 1


def test_delete_business_cascades_services():
    reg, biz, svc1, svc2 = registry_with_data()
    reg.delete_business(biz.key)
    assert reg.find_service("%") == []
    with pytest.raises(UddiError):
        reg.delete_business(biz.key)


def test_unknown_keys_raise():
    reg = UddiRegistry()
    for fn in (reg.get_business, reg.get_service, reg.get_tmodel):
        with pytest.raises(UddiError):
            fn("uuid:missing")
    with pytest.raises(UddiError):
        reg.get_bindings("uuid:missing")
    with pytest.raises(UddiError):
        reg.delete_service("uuid:missing")


NAMES = ["HelloService", "helloWorld", "Hello.Service", "Word+Count",
         "a%b", "zeta", "(Paren)", "hello", "Ünïcode"]
PATTERNS = ["%", "hello%", "HELLO%", "%o%", "hello.service", "word+count",
            "%(paren)", "a%b", "%%", "", "z_ta", "ü%", "nothing%"]


def _reference_matches(names, pattern):
    """The finders' contract, spelled out: ``%`` matches any run, the
    rest literally and case-insensitively; hits sorted by name."""
    import re
    rx = re.compile("^" + ".*".join(map(re.escape, pattern.split("%")))
                    + "$", re.IGNORECASE)
    return sorted(n for n in names if rx.match(n))


def test_finders_match_the_pattern_contract_in_name_order():
    reg = UddiRegistry()
    biz = reg.save_business("Owner")
    for name in reversed(NAMES):
        reg.save_business(name)
        reg.save_service(biz.key, name)
        reg.save_tmodel(name)
    for pattern in PATTERNS:
        for _ in range(2):      # a second, cached, answer is the same
            expected = _reference_matches(NAMES, pattern)
            assert [s.name for s in reg.find_service(pattern)] == expected
            assert [t.name for t in reg.find_tmodel(pattern)] == expected
            assert [b.name for b in reg.find_business(pattern)] == \
                _reference_matches(NAMES + ["Owner"], pattern)


def test_each_pattern_is_compiled_once(monkeypatch):
    import re

    from repro.ws import uddi

    uddi._pattern_to_regex.cache_clear()
    compiled = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile",
                        lambda *a, **kw: compiled.append(a[0])
                        or compile_(*a, **kw))
    reg, biz, svc1, svc2 = registry_with_data()
    for _ in range(3):
        reg.find_service("hello%")
        reg.find_business("hello%")
        reg.find_tmodel("%")
    assert compiled == ["^hello.*$", "^.*$"]
    uddi._pattern_to_regex.cache_clear()
