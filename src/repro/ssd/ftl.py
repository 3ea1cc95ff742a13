"""A minimal flash translation layer: write buffer + sustained-rate drain.

Enterprise NVMe drives absorb write bursts into a (power-loss-protected)
buffer at near-interface speed and destage to NAND at a lower sustained
rate.  When the buffer fills, write commands stall for the destage backlog.
The model is a fluid token bucket evaluated lazily — O(1) per command, no
background processes.

A simple periodic garbage-collection pause can be enabled to inject the
multi-hundred-microsecond tail events real drives exhibit; it is off by
default so calibration stays interpretable, and switched on in the
failure-injection tests and tail ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment


@dataclass(frozen=True)
class FtlConfig:
    """Write-path configuration.

    ``buffer_bytes`` of burst absorption draining at ``drain_bytes_per_us``;
    optional GC pauses of ``gc_pause_us`` occurring on average every
    ``gc_interval_us`` of *write* activity.
    """

    buffer_bytes: int = 256 * 1024 * 1024
    drain_bytes_per_us: float = 1400.0  # 1.4 GB/s sustained program rate
    gc_enabled: bool = False
    gc_interval_us: float = 50_000.0
    gc_pause_us: float = 400.0

    def __post_init__(self) -> None:
        if self.buffer_bytes <= 0:
            raise ConfigError("buffer_bytes must be positive")
        if self.drain_bytes_per_us <= 0:
            raise ConfigError("drain rate must be positive")
        if self.gc_interval_us <= 0 or self.gc_pause_us < 0:
            raise ConfigError("invalid GC parameters")


class Ftl:
    """Lazy-evaluated write-buffer model."""

    def __init__(
        self,
        env: "Environment",
        config: Optional[FtlConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.env = env
        self.config = config or FtlConfig()
        self.rng = rng
        self._level = 0.0  # bytes currently buffered
        self._level_at = env.now
        self._next_gc_budget = self._draw_gc_budget()
        self.gc_pauses = 0

    def _draw_gc_budget(self) -> float:
        cfg = self.config
        if not cfg.gc_enabled:
            return float("inf")
        if self.rng is None:
            return cfg.gc_interval_us
        return float(self.rng.exponential(cfg.gc_interval_us))

    def _drain_to_now(self) -> None:
        elapsed = self.env.now - self._level_at
        if elapsed > 0:
            self._level = max(0.0, self._level - elapsed * self.config.drain_bytes_per_us)
        self._level_at = self.env.now

    @property
    def buffer_level(self) -> float:
        """Current buffered bytes (after lazy drain)."""
        self._drain_to_now()
        return self._level

    def write_penalty(self, nbytes: int, service_us: float) -> float:
        """Extra stall (us) to add to a write of ``nbytes``.

        Accepts the write into the buffer; if the buffer would overflow, the
        command stalls until destaging frees enough space.  GC pauses are
        charged against write-activity budget.
        """
        cfg = self.config
        self._drain_to_now()
        stall = 0.0

        overflow = self._level + nbytes - cfg.buffer_bytes
        if overflow > 0:
            stall += overflow / cfg.drain_bytes_per_us
            self._level = float(cfg.buffer_bytes)
        else:
            self._level += nbytes

        self._next_gc_budget -= service_us
        if self._next_gc_budget <= 0:
            stall += cfg.gc_pause_us
            self.gc_pauses += 1
            self._next_gc_budget = self._draw_gc_budget()
        return stall
