"""NVMe-oPF: priority schemes for NVMe-over-Fabrics (the paper's core).

Public pieces:

* :class:`~repro.core.flags.Priority` and the reserved-bit flag codec;
* :class:`~repro.core.initiator.OpfInitiator` /
  :class:`~repro.core.target.OpfTarget` — the priority-aware runtimes;
* :class:`~repro.core.priority_manager.InitiatorPriorityManager` /
  :class:`~repro.core.priority_manager.TargetPriorityManager` — Alg. 1-4;
* :class:`~repro.core.cid_queue.CidQueue` — the initiator's zero-copy
  CID-only window queue (the target keeps one CID-keyed dict per tenant);
* :func:`~repro.core.window.select_window` — the window optimizer;
* :class:`~repro.core.ablation.SharedQueueOpfTarget` — the shared-queue
  design the paper rejects, kept for ablations.
"""

from .ablation import SharedQueueOpfTarget
from .cid_queue import CidQueue, ENTRY_BYTES, RETIRED_MEMORY, cid_le
from .extensions import DevicePriorityOpfTarget
from .coalescing import DrainGroup
from .flags import (
    FLAG_DRAINING,
    FLAG_THROUGHPUT_CRITICAL,
    MAX_TENANTS,
    Priority,
    check_tenant_id,
    pack_flags,
    unpack_flags,
)
from .initiator import OpfInitiator
from .priority_manager import InitiatorPriorityManager, TargetPriorityManager
from .target import OpfTarget
from .window import DrainWatchdog, MIN_WINDOW, clamp_to_queue_depth, select_window

__all__ = [
    "CidQueue",
    "DevicePriorityOpfTarget",
    "DrainGroup",
    "DrainWatchdog",
    "ENTRY_BYTES",
    "RETIRED_MEMORY",
    "FLAG_DRAINING",
    "FLAG_THROUGHPUT_CRITICAL",
    "InitiatorPriorityManager",
    "MAX_TENANTS",
    "MIN_WINDOW",
    "OpfInitiator",
    "OpfTarget",
    "Priority",
    "SharedQueueOpfTarget",
    "TargetPriorityManager",
    "check_tenant_id",
    "cid_le",
    "clamp_to_queue_depth",
    "pack_flags",
    "select_window",
    "unpack_flags",
]
