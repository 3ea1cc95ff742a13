"""Target-side multi-tenant management (paper §IV-A).

Each tenant (initiator) gets its **own** throughput-critical queue on the
target — the lock-free design.  A shared queue would let one tenant's
draining flag flush another tenant's incomplete window (premature drain)
and can live-lock when the sum of window sizes exceeds the queue depth;
:mod:`repro.core.ablation` implements that broken variant so the hazard is
demonstrable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import TenantError
from .cid_queue import CidQueue
from .coalescing import CoalescingStats
from .flags import check_tenant_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nvmeof.pdu import CapsuleCmdPdu
    from ..nvmeof.target import TargetConnection


class TenantContext:
    """Per-tenant state on an NVMe-oPF target."""

    __slots__ = ("tenant_id", "cid_queue", "pending_cmds", "stats", "connection")

    def __init__(self, tenant_id: int) -> None:
        self.tenant_id = tenant_id
        #: CIDs queued awaiting a drain (zero-copy: ids only).
        self.cid_queue = CidQueue()
        #: Queued command capsules awaiting execution, keyed by CID (the
        #: target's Priority Manager fills both this and ``cid_queue``).
        #: These are references to SPDK-owned buffers in the real system;
        #: the *priority queue* itself stores only CIDs (see ``cid_queue``).
        self.pending_cmds: Dict[int, Tuple["TargetConnection", "CapsuleCmdPdu"]] = {}
        self.stats = CoalescingStats()
        self.connection: Optional["TargetConnection"] = None

    @property
    def queued(self) -> int:
        return len(self.cid_queue)

    def flush(self) -> List[Tuple["TargetConnection", "CapsuleCmdPdu"]]:
        """Drain the whole queue, returning commands in submission order."""
        cids = self.cid_queue.drain_all()
        out = []
        for cid in cids:
            out.append(self.pending_cmds.pop(cid))
        return out

    def discard(self, cid: int) -> Tuple["TargetConnection", "CapsuleCmdPdu"]:
        """Drop one queued entry out of order (resync orphan reconciliation)."""
        self.cid_queue.evict(cid)
        return self.pending_cmds.pop(cid)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TenantContext id={self.tenant_id} queued={self.queued}>"


class TenantRegistry:
    """All tenants known to one target: one per tenant id, so at most
    :data:`~repro.core.flags.MAX_TENANTS` (the ids the flag byte carries)."""

    def __init__(self) -> None:
        self._tenants: Dict[int, TenantContext] = {}

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, tenant_id: int) -> bool:
        return tenant_id in self._tenants

    def get_or_create(self, tenant_id: int) -> TenantContext:
        check_tenant_id(tenant_id)
        ctx = self._tenants.get(tenant_id)
        if ctx is None:
            ctx = TenantContext(tenant_id)
            self._tenants[tenant_id] = ctx
        return ctx

    def get(self, tenant_id: int) -> TenantContext:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise TenantError(f"unknown tenant {tenant_id}") from None

    def tenants(self) -> List[TenantContext]:
        return list(self._tenants.values())

    def total_queued(self) -> int:
        return sum(t.queued for t in self._tenants.values())

    def total_space_bytes(self) -> int:
        """Combined zero-copy queue footprint across tenants."""
        return sum(t.cid_queue.space_bytes for t in self._tenants.values())
