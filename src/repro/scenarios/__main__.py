"""Command-line experiment runner: ``python -m repro.scenarios <exp>``.

Runs one (or all) of the paper-reproduction harnesses and prints the
rendered report — the same output the benchmarks save under
``benchmarks/reports/``.

Experiments: fig6, fig7, fig8, scalability, overhead, smallfiles,
bottleneck, faults, throughput, datapath, scaleout, controltower,
chaos, notify, dbscale, all.  ``--smoke`` shrinks the workloads whose
``run_*`` takes ``smoke=`` (``bottleneck``, ``faults``, ``throughput``,
``datapath``, ``scaleout``, ``controltower``, ``chaos``, ``notify``
and ``dbscale``) for fast CI validation.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Any, Callable, Dict, Tuple

from repro.scenarios import (
    run_bottleneck, run_chaos, run_controltower, run_datapath,
    run_dbscale, run_faults, run_fig6, run_fig7, run_fig8, run_notify,
    run_overhead, run_scalability, run_scaleout, run_smallfiles,
    run_throughput,
)
from repro.units import MB

#: ``gated`` values — the ``--smoke`` settings under which a result
#: whose ``ok`` is false fails the process: CI runs these experiments as
#: its gates, so a broken invariant must fail the job, not just print a
#: FAIL row.  The control tower's smoke run is too short for a burn
#: alert to lead its breach, so only the full run gates.
NEVER, FULL_ONLY, ALWAYS = (), (False,), (False, True)

#: One row per run: ``(experiment, run, full-size kwargs, gated)``.  An
#: experiment's rows render in order; a run that takes ``smoke=`` gets
#: the command line's flag.
ROWS: Tuple[Tuple[str, Callable[..., Any], Dict[str, Any],
                  Tuple[bool, ...]], ...] = (
    ("fig6", run_fig6, {}, NEVER),
    ("fig7", run_fig7, {}, NEVER),
    ("fig8", run_fig8, {}, NEVER),
    ("fig8", run_fig8, {"double_write": False}, NEVER),
    ("scalability", run_scalability,
     {"workload": "upload", "network": "fast", "levels": (1, 2, 4, 8),
      "file_bytes": int(5 * MB(1))}, NEVER),
    ("scalability", run_scalability,
     {"workload": "invoke", "network": "slow", "levels": (1, 2, 4)}, NEVER),
    ("overhead", run_overhead,
     {"runtimes": (10.0, 60.0, 300.0, 1800.0)}, NEVER),
    ("smallfiles", run_smallfiles, {"levels": (4, 8, 16)}, NEVER),
    ("bottleneck", run_bottleneck, {}, NEVER),
    ("faults", run_faults, {}, ALWAYS),
    ("throughput", run_throughput, {}, NEVER),
    ("datapath", run_datapath, {}, ALWAYS),
    ("scaleout", run_scaleout, {}, NEVER),
    ("controltower", run_controltower, {}, FULL_ONLY),
    ("chaos", run_chaos, {}, ALWAYS),
    ("notify", run_notify, {}, ALWAYS),
    ("dbscale", run_dbscale, {}, ALWAYS),
)
EXPERIMENTS = sorted({row[0] for row in ROWS})


def run_experiment(name: str, smoke: bool = False) -> str:
    """Run every row of experiment *name*; returns the rendered report."""
    reports = []
    for experiment, run, kwargs, gated in ROWS:
        if experiment != name:
            continue
        if "smoke" in inspect.signature(run).parameters:
            kwargs = dict(kwargs, smoke=smoke)
        result = run(**kwargs)
        if smoke in gated and not result.ok:
            print(result.render())
            raise SystemExit(1)
        reports.append(result.render())
    return "\n\n".join(reports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Regenerate the paper's evaluation artefacts.")
    parser.add_argument("experiment",
                        choices=EXPERIMENTS + ["all"],
                        help="which experiment to run")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink supported workloads for fast CI runs")
    args = parser.parse_args(argv)
    names = EXPERIMENTS if args.experiment == "all" else [args.experiment]
    for i, name in enumerate(names):
        if i:
            print()
        print(run_experiment(name, smoke=args.smoke))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
