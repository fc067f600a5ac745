"""Grid data-path plane: per-operation vs ``datapath`` mode.

Runs the :mod:`repro.scenarios.datapath` parts and saves the
paper-shaped report — the measured numbers behind the EXPERIMENTS.md
DATAPATH entry.  The headline claims are asserted here too: at 32
concurrent jobs on one site, ``datapath`` mode pays one GSI handshake
for every GRAM submit and fewer gatekeeper control bytes per submit;
eight sequential invokes of one 256 KB executable over two sites put
at least 80% fewer bytes on the appliance uplink, with exactly one grid
upload; and the first invoke after a republish joins its seed.
"""

from repro.scenarios.datapath import run_datapath


def test_datapath_ablation(benchmark, save_report):
    result = benchmark.pedantic(run_datapath, rounds=1, iterations=1)
    save_report("datapath", result.render())
    per_op, pooled = result.gram["per-operation"], result.gram["datapath"]
    assert per_op["handshakes"] == per_op["submits"] == result.n
    assert pooled["handshakes"] == 1 and pooled["pooled"] == result.n - 1
    assert result.ok, (result.gram, result.repeat, result.republish)
