"""Unit helpers: bytes and bandwidth, and a duration formatter.

All simulated quantities in this library use the base units

* time      — seconds (float)
* data      — bytes (int or float)
* bandwidth — bytes per second (float)

These helpers exist so scenario code can say ``MB(5)`` or ``Mbps(100)``
instead of sprinkling magic constants.  Network bandwidths follow telecom
convention (1 Mbit = 10**6 bits); storage sizes follow the binary
convention used by the paper's figures (1 KB = 1024 bytes).
"""

from __future__ import annotations

__all__ = [
    "KB", "MB", "GB",
    "Mbps", "Gbps", "KBps", "MBps",
    "fmt_duration",
]

_KIB = 1024
_MIB = 1024 * 1024
_GIB = 1024 * 1024 * 1024


def KB(n: float) -> float:
    """*n* kilobytes (binary: 1 KB = 1024 bytes)."""
    return n * _KIB


def MB(n: float) -> float:
    """*n* megabytes (binary)."""
    return n * _MIB


def GB(n: float) -> float:
    """*n* gigabytes (binary)."""
    return n * _GIB


def Mbps(n: float) -> float:
    """*n* megabits per second, as bytes/second."""
    return n * 1_000_000.0 / 8.0


def Gbps(n: float) -> float:
    """*n* gigabits per second, as bytes/second."""
    return n * 1_000_000_000.0 / 8.0


def KBps(n: float) -> float:
    """*n* kilobytes per second (binary), as bytes/second."""
    return n * _KIB


def MBps(n: float) -> float:
    """*n* megabytes per second (binary), as bytes/second."""
    return n * _MIB


def fmt_duration(t: float) -> str:
    """Human-readable duration."""
    if t >= 3600:
        return f"{t / 3600:.2f} h"
    if t >= 60:
        return f"{t / 60:.2f} min"
    if t >= 1:
        return f"{t:.2f} s"
    return f"{t * 1000:.2f} ms"
