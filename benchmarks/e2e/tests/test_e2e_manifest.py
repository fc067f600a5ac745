"""BENCHMARK.json against the catalogue and the driver's limits."""

import json
import re
from pathlib import Path

from benchmarks.e2e import metrics
from benchmarks.e2e.workloads import workload_names

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_the_catalogues_projection():
    assert _manifest() == metrics.manifest()


def test_keys_and_limits_of_the_contract():
    m = _manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert m["paths"] == ["benchmarks/e2e"]
    assert m["command"][1].startswith(m["paths"][0] + "/")
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16
    assert 1 <= len(m["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    runs = 4 + 22 * len(m["workloads"])
    assert runs * (m["run_seconds"] + 12) <= 3420


def test_every_name_and_unit_is_well_formed_and_unique():
    m = _manifest()
    names = [w["name"] for w in m["workloads"]] + \
        [x["name"] for x in m["end_to_end"] + m["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for x in m["end_to_end"] + m["per_layer"]:
        assert UNIT.fullmatch(x["unit"]), x
        assert x["better"] in ("lower", "higher")
    for x in m["end_to_end"]:
        assert set(x) == {"name", "unit", "better", "bound"}
        assert 0 < x["bound"] <= 0.25
    for x in m["per_layer"]:
        assert set(x) == {"name", "unit", "better"}
    for w in m["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_workloads_and_setup_metric():
    m = _manifest()
    assert [w["name"] for w in m["workloads"]] == workload_names()
    setup = [x for x in m["end_to_end"] if x["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(x["bound"] for x in m["end_to_end"])}]


def test_class_latency_names_are_well_formed_too():
    for x in metrics.CLASS_LATENCY:
        assert NAME.fullmatch(x["name"]) and UNIT.fullmatch(x["unit"])
