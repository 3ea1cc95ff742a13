"""Host CPU model: single-core FIFO execution and per-operation costs."""

from .core import CpuCore
from .costs import DEFAULT_COSTS, CpuCostModel

__all__ = ["CpuCore", "CpuCostModel", "DEFAULT_COSTS"]
