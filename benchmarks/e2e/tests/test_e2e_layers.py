"""Folding cProfile entries into layers, on a synthetic stats object."""

from types import SimpleNamespace

import pytest

from benchmarks.e2e.layers import (LAYERS, STDLIB_LAYERS, fold_profile,
                                   layer_of)


def _py(path):
    return SimpleNamespace(co_filename=path)


@pytest.mark.parametrize("code,layer", [
    (_py("/x/src/repro/simkernel/kernel.py"), "simkernel"),
    (_py("/x/src/repro/db/engine.py"), "db"),
    (_py("/x/src/repro/ws/xmlcodec.py"), "ws"),
    (_py("/x/src/repro/cyberaide/agent.py"), "cyberaide"),
    (_py("/x/src/repro/workloads/executables.py"), "harness"),
    (_py("/x/benchmarks/e2e/passes.py"), "harness"),
    (_py("/usr/lib/python3.11/xml/etree/ElementTree.py"), "stdlib.xml"),
    (_py("/usr/lib/python3.11/base64.py"), "stdlib.base64"),
    (_py("/usr/lib/python3.11/heapq.py"), "stdlib.heapq"),
    (_py("/usr/lib/python3.11/random.py"), "stdlib.other"),
    (_py("/x/src/repro/errors.py"), "stdlib.other"),
    ("<built-in method zlib.compress>", "stdlib.zlib"),
    ("<method 'decompress' of 'zlib.Decompress' objects>", "stdlib.zlib"),
    ("<built-in method binascii.b2a_base64>", "stdlib.base64"),
    ("<built-in method _hashlib.openssl_sha1>", "stdlib.hash"),
    ("<built-in method _heapq.heappush>", "stdlib.heapq"),
    ("<built-in method pyexpat.ParserCreate>", "stdlib.xml"),
    ("<method 'write' of '_io.TextIOWrapper' objects>", "stdlib.xml"),
    ("<method 'append' of 'list' objects>", "stdlib.other"),
])
def test_layer_of(code, layer):
    assert layer_of(code) == layer


def test_fold_sums_self_time_and_loses_nothing():
    entries = [
        SimpleNamespace(code=_py("/x/src/repro/db/engine.py"),
                        inlinetime=1.5),
        SimpleNamespace(code=_py("/x/src/repro/db/table.py"),
                        inlinetime=0.5),
        SimpleNamespace(code="<built-in method zlib.compress>",
                        inlinetime=0.25),
        SimpleNamespace(code=_py("/x/benchmarks/e2e/passes.py"),
                        inlinetime=0.125),
        SimpleNamespace(code="<built-in method builtins.len>",
                        inlinetime=0.0625),
    ]
    folded = fold_profile(entries)
    assert folded["db"] == 2.0
    assert folded["stdlib.zlib"] == 0.25
    assert folded["harness"] == 0.125
    assert folded["stdlib.other"] == 0.0625
    assert sum(folded.values()) == sum(e.inlinetime for e in entries)
    assert set(folded) == set(LAYERS + STDLIB_LAYERS + ("harness",))


def test_fold_real_profile_accounts_for_every_entry():
    import cProfile
    import zlib
    profile = cProfile.Profile()
    profile.enable()
    zlib.compress(b"x" * 100000)
    sorted(range(1000), key=lambda v: -v)
    profile.disable()
    entries = profile.getstats()
    folded = fold_profile(entries)
    assert folded["stdlib.zlib"] > 0
    assert sum(folded.values()) == pytest.approx(
        sum(e.inlinetime for e in entries))
