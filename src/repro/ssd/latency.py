"""SSD service-time models and device profiles.

Per-command service times are lognormal (long right tail — the raw material
of the paper's p99.99 studies) with separate read/write means.  A command
larger than one 4 KiB block adds a linear per-block transfer term.

The two presets correspond to Table I's testbeds.  Their absolute values are
calibrated to sit in the regime the paper describes (reads complete faster
than writes; the device saturates after a 10 Gbps link but before a
100 Gbps one), not to match any specific retail SSD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..units import BLOCK_4K


# NVMe opcode mnemonics (subset used by the reproduction).
OP_READ = "read"
OP_WRITE = "write"
OP_FLUSH = "flush"

VALID_OPS = (OP_READ, OP_WRITE, OP_FLUSH)


def _lognorm_params(mean: float, cv: float):
    """Precompute the (mu, sigma) of a lognormal with arithmetic mean
    ``mean`` and coefficient of variation ``cv``; None for a degenerate cv.

    The parameters are computed with ``np.log``/``np.sqrt``, not ``math``:
    the two can differ in the last bit, and every service-time draw, and so
    every golden digest, depends on these exact values.
    """
    if cv == 0:
        return None
    sigma2 = np.log(1.0 + cv * cv)
    mu = np.log(mean) - sigma2 / 2.0
    return float(mu), float(np.sqrt(sigma2))


@dataclass(frozen=True)
class SsdProfile:
    """Static description of one NVMe SSD model.

    Attributes
    ----------
    read_mean_us / write_mean_us:
        Mean per-4KiB-command channel occupancy.  Aggregate ceilings are
        ``channels / mean`` commands per microsecond.
    read_cv / write_cv:
        Coefficient of variation of the lognormal service time.
    channels:
        Independent flash channels (parallel servers).
    extra_block_us:
        Additional channel time per 4 KiB block beyond the first.
    capacity_bytes / block_size:
        Addressable space (LBA range validation).
    """

    name: str = "generic-nvme"
    read_mean_us: float = 20.0
    write_mean_us: float = 24.0
    read_cv: float = 0.25
    write_cv: float = 0.35
    channels: int = 8
    extra_block_us: float = 2.0
    capacity_bytes: int = 1600 * 1000 * 1000 * 1000
    block_size: int = BLOCK_4K
    flush_us: float = 50.0

    def __post_init__(self) -> None:
        if self.read_mean_us <= 0 or self.write_mean_us <= 0:
            raise ConfigError("service means must be positive")
        if self.read_cv < 0 or self.write_cv < 0:
            raise ConfigError("service CVs must be non-negative")
        if self.channels < 1:
            raise ConfigError("device needs at least one channel")
        if self.block_size < 512:
            raise ConfigError("block size unreasonably small")
        if self.capacity_bytes < self.block_size:
            raise ConfigError("capacity smaller than one block")
        # Cached lognormal parameters for the per-command draw fast path
        # (object.__setattr__: the dataclass is frozen, these are derived).
        object.__setattr__(
            self, "_read_lognorm", _lognorm_params(self.read_mean_us, self.read_cv)
        )
        object.__setattr__(
            self, "_write_lognorm", _lognorm_params(self.write_mean_us, self.write_cv)
        )

    @property
    def capacity_blocks(self) -> int:
        return self.capacity_bytes // self.block_size

    def read_iops_ceiling(self) -> float:
        """Theoretical 4K read IOPS ceiling (channels fully parallel)."""
        return self.channels / self.read_mean_us * 1e6

    def write_iops_ceiling(self) -> float:
        """Theoretical 4K write IOPS ceiling."""
        return self.channels / self.write_mean_us * 1e6

    def service_time(self, rng, opcode: str, nbytes: int) -> float:
        """Sample one command's channel occupancy in microseconds.

        ``rng`` is anything with a ``Generator``-compatible ``lognormal``
        method — a raw :class:`numpy.random.Generator` or the controller's
        :class:`~repro.simcore.rng.NormalBuffer` array-draw wrapper (both
        produce bit-identical draw sequences from the same seed).
        """
        if opcode == OP_READ:
            params = self._read_lognorm
            mean = self.read_mean_us
        elif opcode == OP_WRITE:
            params = self._write_lognorm
            mean = self.write_mean_us
        elif opcode == OP_FLUSH:
            return self.flush_us
        else:
            raise ConfigError(f"unknown opcode {opcode!r}")
        if params is None:
            base = mean
        else:
            base = float(rng.lognormal(params[0], params[1]))
        block_size = self.block_size
        extra_blocks = (nbytes + block_size - 1) // block_size - 1
        if extra_blocks > 0:
            return base + extra_blocks * self.extra_block_us
        return base


#: CloudLab r6525 drive (1.6 TB, attached to the 100 Gbps nodes).  Slightly
#: slower writes than the Chameleon drive, matching the paper's note that
#: 100 Gbps write tail latency trails the other testbeds.
CLOUDLAB_SSD = SsdProfile(
    name="cloudlab-1.6tb",
    read_mean_us=25.0,
    write_mean_us=25.5,
    capacity_bytes=1600 * 1000 * 1000 * 1000,
)

#: Chameleon storage_nvme drive (3.2 TB, on the 10/25 Gbps nodes).
CHAMELEON_SSD = SsdProfile(
    name="chameleon-3.2tb",
    read_mean_us=25.0,
    write_mean_us=25.5,
    capacity_bytes=3200 * 1000 * 1000 * 1000,
)
