"""I/O address patterns.

The paper's perf runs use 4K sequential I/O; random patterns are provided
for the extended experiments.  Patterns are deterministic under the run's
seeded streams.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import WorkloadError

SEQUENTIAL = "seq"
RANDOM = "rand"
_PATTERNS = (SEQUENTIAL, RANDOM)


class AddressPattern:
    """Generates starting LBAs over a namespace of ``total_blocks``."""

    def __init__(
        self,
        kind: str,
        total_blocks: int,
        blocks_per_io: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if kind not in _PATTERNS:
            raise WorkloadError(f"pattern must be one of {_PATTERNS}, got {kind!r}")
        if total_blocks < blocks_per_io:
            raise WorkloadError("namespace smaller than one I/O")
        if blocks_per_io < 1:
            raise WorkloadError("blocks_per_io must be >= 1")
        if kind == RANDOM and rng is None:
            raise WorkloadError("random pattern requires an rng")
        self.kind = kind
        self.total_blocks = total_blocks
        self.blocks_per_io = blocks_per_io
        self.rng = rng
        self._cursor = 0

    def next_slba(self) -> int:
        """The next I/O's starting LBA."""
        if self.kind == SEQUENTIAL:
            slba = self._cursor
            self._cursor += self.blocks_per_io
            if self._cursor + self.blocks_per_io > self.total_blocks:
                self._cursor = 0  # wrap, as perf does on small namespaces
            return slba
        # Random: aligned to the I/O size, anywhere in the namespace.
        max_start = self.total_blocks - self.blocks_per_io
        slots = max_start // self.blocks_per_io + 1
        return int(self.rng.integers(0, slots)) * self.blocks_per_io
