"""Grid data-path batching: per-operation vs session/batched mode.

Runs the :mod:`repro.scenarios.datapath` per-site concurrency sweep and
saves the paper-shaped report — the measured numbers behind the
EXPERIMENTS.md DATAPATH entry.  The headline claims are asserted here
too: at 16 concurrent jobs on one site, batched mode cuts control-channel
bytes and modelled gatekeeper head-node CPU by at least 40% each, and
lowers the mean completion-detection lag; and eight sequential invokes
of one 256 KB executable over two sites put at least 80% fewer bytes on
the appliance uplink, with exactly one grid upload.
"""

from repro.scenarios.datapath import run_datapath


def test_datapath_ablation(benchmark, save_report):
    def run():
        return run_datapath(levels=(1, 4, 16, 32))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("datapath", result.render())
    for n in (16, 32):
        assert result.control_reduction_at(n) >= 0.40
        assert result.cpu_reduction_at(n) >= 0.40
        assert result.lag_improved_at(n)
    assert result.ok, result.repeat
