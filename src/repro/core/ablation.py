"""Design ablations for NVMe-oPF (paper §IV-A).

:class:`SharedQueueOpfTarget` replaces the per-tenant (lock-free) queues
with **one shared, bounded** throughput-critical queue, reproducing both
failure modes the paper cites as the reason for per-tenant isolation:

* **Premature drains** — a draining flag from tenant A flushes tenant B's
  half-built window; B's flushed requests must then be answered with
  individual responses, destroying their coalescing.
* **Live-lock** — when the sum of tenant window sizes exceeds the shared
  queue depth, the queue can fill before any draining flag is admitted;
  every queued request waits for a drain that can never arrive.

It also charges :data:`LOCK_COST` on every shared-queue operation, modelling
the serialisation a shared structure needs.  The lock-free ablation bench
compares this target against :class:`~repro.core.target.OpfTarget`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from ..nvmeof.capsule import OPCODE_FLUSH
from ..nvmeof.pdu import CapsuleCmdPdu
from ..nvmeof.target import TargetConnection
from .coalescing import DrainGroup
from .flags import Priority, unpack_flags
from .target import OpfTarget

#: One arrival in the shared queue: (conn, pdu, tenant id, draining).
_Shared = Tuple[TargetConnection, CapsuleCmdPdu, int, bool]

#: CPU microseconds each shared-queue operation pays for its lock.
LOCK_COST = 0.3


class SharedQueueOpfTarget(OpfTarget):
    """oPF target with a single shared TC queue (broken-by-design ablation)."""

    runtime_name = "nvme-opf-sharedq"

    def __init__(
        self,
        *args: Any,
        tc_queue_depth: int = 128,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.tc_queue_depth = tc_queue_depth
        #: The one shared queue, in arrival order.
        self._shared: Deque[_Shared] = deque()
        #: Arrivals rejected by a full queue (live-lock indicator).  A
        #: rejected arrival is never admitted: only an admitted drain
        #: flushes, and a full queue admits nothing.
        self.stalled_requests = 0
        self.premature_flushes = 0
        self.individual_tc_responses = 0

    # -- Alg. 3 replacement: one queue for everyone ---------------------------------
    def _handle_command(self, conn: TargetConnection, pdu: CapsuleCmdPdu) -> None:
        sqe = pdu.sqe
        priority, draining = unpack_flags(sqe.rsvd_priority)
        if priority is Priority.LATENCY:
            super()._handle_command(conn, pdu)
            return
        cost = self.costs.pdu_rx + self.costs.retire + LOCK_COST
        self.core.run_later(cost, self._enqueue_shared, (conn, pdu, sqe.rsvd_tenant, draining))

    def _enqueue_shared(self, arrival: _Shared) -> None:
        if len(self._shared) >= self.tc_queue_depth:
            # Full shared queue: the request can neither queue nor execute.
            # If the drains needed to free space are themselves stuck here,
            # this is the live-lock of §IV-A.
            self.stalled_requests += 1
            return
        self._shared.append(arrival)
        _conn, _pdu, tenant_id, draining = arrival
        if draining:
            self._flush_shared(tenant_id)

    def _flush_shared(self, drain_tenant: int) -> None:
        """A drain from *any* tenant flushes *everyone's* queued requests."""
        batch = list(self._shared)
        self._shared.clear()

        mine: List[Tuple[TargetConnection, CapsuleCmdPdu]] = []
        others: List[_Shared] = []
        for arrival in batch:
            conn, pdu, tenant_id, _draining = arrival
            if tenant_id == drain_tenant:
                mine.append((conn, pdu))
            else:
                others.append(arrival)
        if others:
            self.premature_flushes += 1

        # The draining tenant still gets a coalesced window.  Its draining
        # command arrived last, so it ends the window, and it is the only
        # entry that can be a drain marker.
        drain_pdu = mine[-1][1]
        group = DrainGroup(
            tenant_id=drain_tenant,
            drain_cid=drain_pdu.sqe.cid,
            cids=[p.sqe.cid for _c, p in mine],
        )
        self._group_fifo.setdefault(drain_tenant, []).append(group)
        marker = mine.pop() if drain_pdu.sqe.opcode == OPCODE_FLUSH else None
        cost = (
            self.costs.nvme_submit * len(mine)
            + LOCK_COST * len(batch)
            + self._tenant_switch_cost(drain_tenant)
        )
        self.core.run_later(cost, self._execute_batch, (group, mine, marker))

        # Other tenants' windows were flushed early: each of their requests
        # executes now but must be answered individually (group=None), so
        # their coalescing benefit is destroyed.
        for conn, pdu, tenant_id, _draining in others:
            self.individual_tc_responses += 1
            cost = self.costs.nvme_submit + self._tenant_switch_cost(tenant_id)
            self.core.run_later(cost, self._submit_to_device, (conn, pdu, tenant_id))
