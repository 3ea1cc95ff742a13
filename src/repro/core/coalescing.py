"""Completion-coalescing bookkeeping (paper §III-C).

A :class:`DrainGroup` is one window's worth of throughput-critical requests
flushed by a draining flag.  The target answers the whole group with a
single response capsule once every member has completed on the device —
the response is only sent when *all* preceding requests are done, so a
drain command finishing early (out-of-order channels) can never signal
completion of work still in flight.
"""

from __future__ import annotations

from typing import List, Set

from ..errors import ProtocolError


class DrainGroup:
    """One coalesced completion window on the target."""

    __slots__ = (
        "tenant_id",
        "drain_cid",
        "cids",
        "_pending",
        "worst_status",
        "ready",
        "conn",
    )

    def __init__(self, tenant_id: int, drain_cid: int, cids: List[int]) -> None:
        if drain_cid not in cids:
            raise ProtocolError("the draining CID must be part of its group")
        if len(set(cids)) != len(cids):
            raise ProtocolError("duplicate CIDs in drain group")
        self.tenant_id = tenant_id
        self.drain_cid = drain_cid
        self.cids = list(cids)
        self._pending: Set[int] = set(cids)
        self.worst_status = 0
        #: Response-ordering state (§IV-C): a group whose device work is done
        #: but whose response must wait for earlier windows of the tenant.
        self.ready = False
        self.conn = None

    @property
    def size(self) -> int:
        return len(self.cids)

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def complete(self) -> bool:
        return not self._pending

    def mark_complete(self, cid: int, status: int = 0) -> bool:
        """Record one member's device completion; True when the group is done."""
        if cid not in self._pending:
            raise ProtocolError(f"CID {cid} not pending in this drain group")
        self._pending.discard(cid)
        if status != 0 and self.worst_status == 0:
            self.worst_status = status
        return not self._pending

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DrainGroup tenant={self.tenant_id} drain={self.drain_cid} "
            f"{self.size - self.pending}/{self.size} done>"
        )

