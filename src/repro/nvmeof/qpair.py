"""Fabric-side queue pair state: request contexts and CID management.

The fabric qpair is the initiator's view of one connection to a target:
it allocates 16-bit command identifiers, enforces the queue depth, and
matches completions back to request contexts.  (The *device-side* SQ/CQ
rings live in :mod:`repro.ssd.queues`; this class is their NVMe-oF
counterpart on the host.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from ..core.flags import Priority
from ..errors import DeviceError, ProtocolError, QueueFullError, RetryExhaustedError
from ..ssd.latency import OP_FLUSH, VALID_OPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment
    from ..simcore.events import Event

#: Synthetic host-side status: the initiator gave up on the command after
#: exhausting its retry budget (no response ever arrived).  Chosen outside
#: the device status ranges used by :mod:`repro.ssd.queues`.
STATUS_HOST_TIMEOUT = 0x703


class IoRequest:
    """One outstanding fabric I/O request (initiator-side context)."""

    __slots__ = (
        "cid",
        "op",
        "nsid",
        "slba",
        "nlb",
        "nbytes",
        "priority",
        "draining",
        "tenant_id",
        "submitted_at",
        "completed_at",
        "status",
        "context",
        "_event",
    )

    def __init__(
        self,
        cid: int,
        op: str,
        nsid: int,
        slba: int,
        nlb: int,
        nbytes: int,
        priority: Priority,
        tenant_id: int,
        context: Any = None,
    ) -> None:
        self.cid = cid
        self.op = op
        self.nsid = nsid
        self.slba = slba
        self.nlb = nlb
        self.nbytes = nbytes
        self.priority = priority
        self.draining = False
        self.tenant_id = tenant_id
        self.submitted_at = 0.0
        self.completed_at: Optional[float] = None
        self.status: Optional[int] = None
        self.context = context
        self._event: Optional["Event"] = None

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def latency(self) -> float:
        """End-to-end latency in microseconds (requires completion)."""
        if self.completed_at is None:
            raise ProtocolError(f"request cid={self.cid} not yet complete")
        return self.completed_at - self.submitted_at

    def completion_event(self, env: "Environment") -> "Event":
        """Lazily created event that fires when the request completes.

        Workload generators use callbacks (cheaper); examples and the HDF5
        layer use this event to ``yield`` on individual requests.
        """
        from ..simcore.events import Event

        if self._event is None:
            self._event = Event(env)
            if self.done:
                self._event.succeed(self)
        return self._event

    def raise_for_status(self) -> None:
        """Raise a typed :class:`~repro.errors.ReproError` for failed requests.

        ``None``/0 status is success; :data:`STATUS_HOST_TIMEOUT` raises
        :class:`~repro.errors.RetryExhaustedError`; any other nonzero status
        raises :class:`~repro.errors.DeviceError`.
        """
        if self.status in (None, 0):
            return
        if self.status == STATUS_HOST_TIMEOUT:
            raise RetryExhaustedError(
                f"request cid={self.cid} {self.op} slba={self.slba} abandoned "
                "after exhausting its retry budget"
            )
        raise DeviceError(
            f"request cid={self.cid} {self.op} failed with NVMe status "
            f"{self.status:#x}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "inflight"
        return f"<IoRequest cid={self.cid} {self.op} slba={self.slba} {state}>"


class FabricQpair:
    """CID allocation + outstanding-request tracking for one connection."""

    def __init__(self, queue_depth: int = 128) -> None:
        if queue_depth < 1:
            raise ProtocolError("queue depth must be >= 1")
        self.queue_depth = queue_depth
        self._outstanding: Dict[int, IoRequest] = {}
        self._next_cid = 0
        self.total_submitted = 0
        self.total_completed = 0

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    @property
    def has_capacity(self) -> bool:
        return len(self._outstanding) < self.queue_depth

    def allocate(
        self,
        op: str,
        nsid: int,
        slba: int,
        nlb: int,
        block_size: int,
        priority: Priority,
        tenant_id: int,
        context: Any = None,
    ) -> IoRequest:
        """Create and register a request; raises when the qpair is full."""
        if op not in VALID_OPS:
            raise ProtocolError(f"unknown op {op!r}")
        if len(self._outstanding) >= self.queue_depth:
            raise QueueFullError(
                f"qpair at queue depth {self.queue_depth}; completion required first"
            )
        cid = self._next_cid
        if cid in self._outstanding:
            cid = self._alloc_cid()
        else:
            self._next_cid = (cid + 1) & 0xFFFF
        nbytes = 0 if op == OP_FLUSH else nlb * block_size
        request = IoRequest(
            cid,
            op,
            nsid,
            slba,
            nlb,
            nbytes,
            priority,
            tenant_id,
            context,
        )
        self._outstanding[cid] = request
        self.total_submitted += 1
        return request

    def _alloc_cid(self) -> int:
        # 16-bit wrap-around with collision skip; with queue depths in the
        # hundreds and 64K ids, allocate() only calls this on a collision.
        for _ in range(0x10000):
            cid = self._next_cid
            self._next_cid = (self._next_cid + 1) & 0xFFFF
            if cid not in self._outstanding:
                return cid
        raise QueueFullError("no free CID (64K outstanding?!)")  # pragma: no cover

    def peek(self, cid: int) -> Optional[IoRequest]:
        return self._outstanding.get(cid)

    def complete(self, cid: int, now: float, status: int = 0) -> IoRequest:
        """Retire the request with ``cid``; returns it."""
        outstanding = self._outstanding
        try:
            request = outstanding[cid]
        except KeyError:
            raise ProtocolError(f"completion for unknown CID {cid}") from None
        del outstanding[cid]
        request.completed_at = now
        request.status = status
        event = request._event
        if event is not None and not event.triggered:
            event.succeed(request)
        self.total_completed += 1
        return request

    def outstanding_requests(self) -> Dict[int, IoRequest]:
        return dict(self._outstanding)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FabricQpair {len(self._outstanding)}/{self.queue_depth}>"
