"""Tests for unit helpers and the scenario CLI."""

import pytest

from repro.units import GB, Gbps, KB, KBps, MB, MBps, Mbps, fmt_duration


def test_byte_units():
    assert KB(1) == 1024
    assert MB(1) == 1024 ** 2
    assert GB(2) == 2 * 1024 ** 3


def test_bandwidth_units_telecom_convention():
    assert Mbps(8) == 1_000_000.0
    assert Gbps(1) == 125_000_000.0
    assert KBps(1) == 1024.0
    assert MBps(1) == 1024 ** 2


def test_fmt_rate_and_duration():
    assert fmt_duration(0.0123) == "12.30 ms"
    assert fmt_duration(42.0) == "42.00 s"
    assert fmt_duration(90.0) == "1.50 min"
    assert fmt_duration(7200.0) == "2.00 h"


# ---------------------------------------------------------------- CLI

def test_cli_runs_fig6(capsys):
    from repro.scenarios.__main__ import main

    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "security-traffic share" in out


def test_cli_rejects_unknown_experiment():
    from repro.scenarios.__main__ import main

    with pytest.raises(SystemExit):
        main(["fig9"])
