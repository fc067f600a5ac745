"""Every scenario row, once at full size: report, figure CSVs, claims.

Runs each row of :data:`repro.scenarios.__main__.ROWS` — Figures 6-8,
the §VIII.B/§VIII.D studies and the plane ablations — saves its
rendered report as ``reports/<report>.txt`` (the files EXPERIMENTS.md
quotes) and, for the three figures, the plotted series as CSV, then
asserts the result's ``ok``: each claim lives there, once.
"""

import pytest

from repro.scenarios.__main__ import ROWS, row_id, run_row

#: Rows whose series are the paper's plots, saved for external plotting.
FIGURES = ("fig6", "fig7", "fig8")


@pytest.mark.parametrize("row", ROWS, ids=[row_id(row) for row in ROWS])
def test_row(benchmark, save_report, save_series, row):
    result = benchmark.pedantic(run_row, args=(row,), rounds=1,
                                iterations=1)
    report = row[1]
    if report is not None:
        save_report(report, result.render())
    if report in FIGURES:
        save_series(report, result.series)
    assert result.ok, result.render()
