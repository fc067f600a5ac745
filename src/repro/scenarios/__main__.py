"""Command-line experiment runner: ``python -m repro.scenarios <exp>``.

Runs one (or all) of the paper-reproduction harnesses, prints the
rendered report — the same text ``benchmarks/bench_scenarios.py`` saves
under ``benchmarks/reports/`` — and exits 1 if any run's claims do not
hold (its result's ``ok``, at the size it ran).

Experiments: fig6, fig7, fig8, scalability, overhead, smallfiles,
bottleneck, faults, throughput, datapath, scaleout, controltower,
chaos, notify, dbscale, all.  ``--smoke`` shrinks every run whose
``run_*`` takes ``smoke=`` (all but the six §VIII artefacts fig6 …
smallfiles) for fast CI validation.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Any, Callable, Dict, Optional, Tuple

from repro.scenarios import (
    run_bottleneck, run_chaos, run_controltower, run_datapath,
    run_dbscale, run_faults, run_fig6, run_fig7, run_fig8, run_notify,
    run_overhead, run_scalability, run_scaleout, run_smallfiles,
    run_throughput,
)
from repro.units import MB

#: The one table of runs: ``(experiment, report, run, full-size
#: kwargs)``.  ``report`` is the stem of the committed
#: ``benchmarks/reports/<report>.txt`` (None: the run commits none).
#: An experiment's rows render in order.
ROWS: Tuple[Tuple[str, Optional[str], Callable[..., Any],
                  Dict[str, Any]], ...] = (
    ("fig6", "fig6", run_fig6, {}),
    ("fig7", "fig7", run_fig7, {}),
    ("fig8", "fig8", run_fig8, {}),
    ("fig8", "fig8_ablation_single_write", run_fig8,
     {"double_write": False}),
    ("scalability", "scalability_upload_fast", run_scalability,
     {"workload": "upload", "network": "fast", "levels": (1, 2, 4, 8),
      "file_bytes": int(5 * MB(1))}),
    ("scalability", "scalability_invoke_slow", run_scalability,
     {"workload": "invoke", "network": "slow", "levels": (1, 2, 4)}),
    ("overhead", "overhead", run_overhead,
     {"runtimes": (10.0, 60.0, 300.0, 1800.0)}),
    ("smallfiles", "small_files", run_smallfiles, {"levels": (4, 8, 16)}),
    ("bottleneck", None, run_bottleneck, {}),
    ("faults", None, run_faults, {}),
    ("throughput", "throughput", run_throughput, {}),
    ("datapath", "datapath", run_datapath, {}),
    ("scaleout", "scaleout", run_scaleout, {}),
    ("controltower", None, run_controltower, {}),
    ("chaos", "chaos", run_chaos, {}),
    ("notify", "notify", run_notify, {}),
    ("dbscale", "dbscale", run_dbscale, {}),
)
EXPERIMENTS = sorted({row[0] for row in ROWS})


def row_id(row) -> str:
    """A row's name: its report stem, else its experiment."""
    return row[1] or row[0]


def run_row(row, smoke: bool = False) -> Any:
    """Run one row; *smoke* reaches only a ``run_*`` that takes it."""
    _experiment, _report, run, kwargs = row
    if smoke and "smoke" in inspect.signature(run).parameters:
        kwargs = dict(kwargs, smoke=True)
    return run(**kwargs)


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
    rows = [row for row in ROWS if args.experiment in ("all", row[0])]
    failed = []
    for i, row in enumerate(rows):
        result = run_row(row, smoke=args.smoke)
        if i:
            print()
        print(result.render())
        if not result.ok:
            failed.append(row_id(row))
    if failed:
        print(f"claims do not hold: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
