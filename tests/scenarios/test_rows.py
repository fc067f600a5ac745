"""The scenario table: every row's claims hold, and a broken one fails
the command line."""

import pytest

from repro.scenarios import __main__ as cli

IDS = [cli.row_id(row) for row in cli.ROWS]


@pytest.mark.parametrize("row", cli.ROWS, ids=IDS)
def test_row_holds_its_claims(row):
    """Smoke size where the run takes ``smoke=``, else full size."""
    result = cli.run_row(row, smoke=True)
    assert result.ok, result.render()


class _Broken:
    ok = False

    def render(self):
        return "broken"


@pytest.mark.parametrize("row", cli.ROWS, ids=IDS)
def test_cli_exits_1_when_any_row_fails(monkeypatch, capsys, row):
    experiment, report, _run, kwargs = row
    broken = (experiment, report, lambda **_: _Broken(), kwargs)
    monkeypatch.setattr(cli, "ROWS", (broken,))
    assert cli.main([experiment]) == 1
    assert cli.main([experiment, "--smoke"]) == 1
    assert cli.row_id(row) in capsys.readouterr().err
