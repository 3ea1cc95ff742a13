"""Unit conventions and converters used across the simulator.

The simulation clock is measured in **microseconds** (``float``).  All
bandwidths are therefore expressed in **bytes per microsecond**, which is
numerically equal to MB/s (1 B/us == 1e6 B/s).  All sizes are in bytes.

Keeping a single conventions module avoids the classic DES bug of mixing
seconds and microseconds between subsystems: every module imports its
constants from here and never hard-codes magic unit factors.
"""

from __future__ import annotations

# --- time (simulation clock unit: microsecond) ------------------------------
USEC: float = 1.0
MSEC: float = 1_000.0
SEC: float = 1_000_000.0
NSEC: float = 1e-3

# --- sizes (bytes) -----------------------------------------------------------
KiB: int = 1024
MiB: int = 1024 * 1024
GiB: int = 1024 * 1024 * 1024
KB: int = 1000
MB: int = 1000 * 1000
GB: int = 1000 * 1000 * 1000

#: Default block size used throughout the paper's evaluation (4K I/O).
BLOCK_4K: int = 4 * KiB


def gbps_to_bytes_per_us(gbps: float) -> float:
    """Convert a line rate in Gbit/s to bytes per microsecond.

    >>> gbps_to_bytes_per_us(10)
    1250.0
    """
    return gbps * 1e9 / 8.0 / 1e6


def bytes_per_us_to_gbps(rate: float) -> float:
    """Inverse of :func:`gbps_to_bytes_per_us`."""
    return rate * 1e6 * 8.0 / 1e9


def us_to_ms(t: float) -> float:
    """Convert microseconds to milliseconds."""
    return t / MSEC


def us_to_s(t: float) -> float:
    """Convert microseconds to seconds."""
    return t / SEC


def iops_from(count: int, elapsed_us: float) -> float:
    """I/O operations per *second* given a count over ``elapsed_us``."""
    if elapsed_us <= 0:
        return 0.0
    return count / us_to_s(elapsed_us)


def mbps_from(nbytes: float, elapsed_us: float) -> float:
    """Throughput in MB/s given bytes moved over ``elapsed_us``."""
    if elapsed_us <= 0:
        return 0.0
    return (nbytes / MB) / us_to_s(elapsed_us)
