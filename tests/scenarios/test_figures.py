"""Shape-regression tests: each figure harness reproduces the paper's
qualitative findings (see DESIGN.md §4 for the expected shapes)."""

import pytest

from repro.scenarios import run_fig6, run_fig7, run_fig8
from repro.units import KB, MB


@pytest.fixture(scope="module")
def fig6():
    return run_fig6()


@pytest.fixture(scope="module")
def fig7():
    return run_fig7()


@pytest.fixture(scope="module")
def fig8():
    return run_fig8()


# ---------------------------------------------------------------- Figure 6

def test_fig6_small_file_disk_utilization_very_low(fig6):
    """'the hard disk utilization is very low'"""
    disk_read = fig6.env.sampler["disk_read_kbps"]
    assert disk_read.max() < 50.0


def test_fig6_little_data_sent_to_grid(fig6):
    """'...as well as the amount of data sent to the Grid'"""
    assert fig6.net_out_total < 100 * KB(1)


def test_fig6_cpu_active_during_invocation(fig6):
    """CPU peaks while loading/decompressing and creating/submitting."""
    cpu = fig6.env.sampler.cpu.slice(fig6.env.t_start, fig6.env.sim.now)
    assert cpu.max() > 5.0
    # And the CPU is NOT busy the whole time (peaks, not a plateau).
    assert cpu.nonzero_fraction() < 0.9
    # Both CPU-charged phases actually happened: DB load+decompress and
    # job creation+submission (the paper's two peaks).
    report = fig6.env.stack.onserve.runtimes["TinyService"].last_report
    assert report.retrieval > 0
    assert report.submit > 0


def test_fig6_periodic_output_poll_disk_writes(fig6):
    """'In a relative constant interval the output of the running job is
    written to the hard disk, resulting in periodic hard disk write
    access peaks.'"""
    writes = fig6.env.sampler.disk_write.slice(fig6.env.t_start,
                                               fig6.env.sim.now)
    # Multiple separated write peaks across the run.
    assert writes.peak_count(threshold=0.05, min_gap=0.0) >= 3


def test_fig6_invocation_completes_with_overhead_bounded(fig6):
    # 75 s job; the wrapper adds seconds-to-tens-of-seconds, not minutes.
    assert 75.0 < fig6.invocation_total < 120.0


# ---------------------------------------------------------------- Figure 7

def test_fig7_transfer_plateau_80_90_kbps(fig7):
    """'The transfer rate is almost constant all the time at about 80 to
    90 KB/s.'"""
    assert fig7.plateau, "no sustained plateau found"
    start, end = fig7.plateau[0]
    assert end - start >= 40.0


def test_fig7_first_disk_peak_is_temp_write(fig7):
    """'The first blue peak indicates the moment the file is written
    temporarily to the hard disk.'"""
    writes = fig7.env.fine_sampler["disk_write_kbps"].slice(
        fig7.env.t_start, fig7.env.sim.now)
    peaks = writes.peaks(threshold=1000.0)
    assert peaks, "no large write peak"
    # The big temp write happens before the upload plateau ends.
    assert peaks[0][0] < fig7.env.t_start + 10.0


def test_fig7_disk_not_the_limiting_factor(fig7):
    """'Clearly, the hard disk is not the limiting factor in this test,
    but the network bandwidth is.'"""
    disk_peak = fig7.env.sampler.disk_write.max()
    # Disk can move data far faster than the 85 KB/s uplink.
    assert disk_peak > 5 * fig7.plateau_rate_kbps


# ---------------------------------------------------------------- Figure 8

def test_fig8_network_input_peak_from_fast_lan(fig8):
    """'a high peak of the network input graph... The used network
    operates at 1000Mbit/s, explaining the peak's height.'"""
    # The 5 MB file arrives within one 3 s sample: >= 1 MB/s average.
    assert fig8.net_in_peak_kbps > 1000.0


def test_fig8_cpu_high_during_upload(fig8):
    """'The CPU utilization is very high due to the reception and
    storage of the file...'"""
    assert fig8.cpu_peak_pct > 5.0


def test_fig8_double_write_amplification(fig8):
    """The file hits the disk roughly twice over (temp + database)."""
    assert fig8.bytes_written > 1.7 * fig8.file_bytes


def test_fig8_ablation_single_write():
    """§VIII.D.3: 'This is not optimal and may be improved' — the
    improved variant writes once."""
    improved = run_fig8(double_write=False)
    assert improved.bytes_written < 1.2 * improved.file_bytes


def test_fig8_renders():
    result = run_fig8(file_bytes=int(1 * MB(1)))
    text = result.render()
    assert "Figure 8" in text
    assert "disk-write bursts" in text
