"""Zero-copy CID queues (paper §IV-B, §IV-C).

NVMe-oPF never copies or stores request bodies in its priority queues; each
entry is a 16-bit command identifier.  Space complexity is therefore
independent of I/O size and the queue survives out-of-order device
completions: a drain response naming CID *d* retires, in submission order,
every CID queued before *d* (Alg. 2's walk), regardless of the order the
device completed them in.  Each initiator's Priority Manager keeps one; the
target's windows are CID-keyed dicts
(:class:`~repro.core.priority_manager.TargetPriorityManager`), which need
no drain walk and no retired-CID memory.

Fault tolerance (the chaos-safe drain protocol): the queue remembers
recently retired CIDs in a bounded ring so a *replayed* drain response — a
retried drain command produces a second coalesced completion — is
recognised as a stale duplicate (counted, ignored) instead of a protocol
violation.  A CID that was never queued at all is still an error.  The
queue also carries a drain **epoch**, bumped on every qpair reconnect, so
the resync exchange can name which incarnation of the window state the two
Priority Managers agree on.

The retired-CID memory is as compact as the queue: one bit per 16-bit CID
(an 8 KiB bitmap, allocated on the first retirement) answers "is this CID
remembered", and an ``array('H')`` ring of the last ``retired_memory``
CIDs, oldest at ``_retired_head`` once full, says which bit to clear on
eviction.  With the default memory that is under 16.5 KiB per queue
(:attr:`CidQueue.retired_bytes`), however many CIDs the queue retires.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from typing import Deque, List, Optional, Sequence, Set

from ..errors import ProtocolError

#: Bytes one queue entry occupies (a u16 CID) — the zero-copy ablation
#: compares it with the bytes of a copied request.
ENTRY_BYTES = 2

#: How many retired CIDs the duplicate-detection ring remembers.  CIDs are
#: reused only after 64K allocations, so anything comfortably larger than a
#: queue depth distinguishes "stale duplicate" from "never existed" for as
#: long as a replayed response can plausibly stay in flight.
RETIRED_MEMORY = 4096

#: Bytes of the retired-CID bitmap: one bit for each of the 65,536 CIDs.
_BITMAP_BYTES = 0x10000 // 8


def cid_le(a: int, b: int) -> bool:
    """Serial-number ``a <= b`` over the 16-bit CID space (RFC 1982 style).

    CIDs are allocated by a wrapping counter, so the resync exchange needs
    an ordering that survives the wrap: ``a`` precedes ``b`` when the
    forward distance from ``a`` to ``b`` is shorter than half the space.
    """
    return ((b - a) & 0xFFFF) < 0x8000


class CidQueue:
    """FIFO ring of command identifiers with drain-through semantics."""

    def __init__(self, retired_memory: int = RETIRED_MEMORY) -> None:
        if retired_memory < 1:
            raise ProtocolError("retired_memory must be >= 1")
        self._queue: Deque[int] = deque()
        self._members: Set[int] = set()
        # Bounded memory of retired CIDs: bit ``cid`` of the bitmap is set
        # while ``cid`` is remembered (None until the first retirement), and
        # the ring holds the last ``retired_memory`` retired CIDs; once it
        # is full, ``_retired_head`` indexes the oldest, the next evicted.
        self._retired_bits: Optional[bytearray] = None
        self._retired_ring = array("H")
        self._retired_head = 0
        self._retired_memory = retired_memory
        self.total_pushed = 0
        self.total_drained = 0
        #: Stale duplicate drain responses recognised and ignored.
        self.duplicate_drains = 0
        #: Reconnect incarnation of this queue's window state; bumped by
        #: :meth:`advance_epoch` on every qpair disconnect.
        self.epoch = 0
        #: The most recently retired CID in queue (= submission) order, or
        #: None before the first drain.  This is the resync high-water mark.
        self.last_retired: Optional[int] = None

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, cid: int) -> bool:
        return cid in self._members

    @property
    def retired_bytes(self) -> int:
        """Memory the retired-CID record holds: the bitmap and the ring."""
        bits = self._retired_bits
        return (0 if bits is None else sys.getsizeof(bits)) + sys.getsizeof(self._retired_ring)

    def push(self, cid: int) -> None:
        """Append a CID (Alg. 1: ``queue[tail] <- req.cid``)."""
        if not (0 <= cid <= 0xFFFF):
            raise ProtocolError(f"CID out of 16-bit range: {cid}")
        if cid in self._members:
            raise ProtocolError(f"CID {cid} already queued")
        # A reused CID starts a fresh life: forget the retired record so a
        # genuine drain for the new incarnation is not mistaken for a stale
        # duplicate of the old one.
        bits = self._retired_bits
        if bits is not None:
            bits[cid >> 3] &= ~(1 << (cid & 7))
        self._queue.append(cid)
        self._members.add(cid)
        self.total_pushed += 1

    def was_retired(self, cid: int) -> bool:
        """Whether ``cid`` was retired recently enough to still be remembered."""
        bits = self._retired_bits
        return bits is not None and bits[cid >> 3] & (1 << (cid & 7)) != 0

    def _remember_retired(self, cids: Sequence[int]) -> None:
        """Remember a non-empty run of retired CIDs, oldest first.

        Once the ring is full, each new CID evicts the oldest remembered
        one, clearing its bit before setting the new CID's, exactly as if
        the run were retired one CID at a time.
        """
        bits = self._retired_bits
        if bits is None:
            bits = self._retired_bits = bytearray(_BITMAP_BYTES)
        ring = self._retired_ring
        size = self._retired_memory
        room = size - len(ring)
        head = self._retired_head
        for cid in cids:
            if room:
                room -= 1
                ring.append(cid)
            else:
                old = ring[head]
                bits[old >> 3] &= ~(1 << (old & 7))
                ring[head] = cid
                head += 1
                if head == size:
                    head = 0
            bits[cid >> 3] |= 1 << (cid & 7)
        self._retired_head = head
        self.last_retired = cids[-1]

    def drain_through(self, cid: int) -> List[int]:
        """Pop every CID up to and including ``cid``, in queue order.

        This is Alg. 2: the initiator walks its pending queue marking each
        request complete until it reaches the drain response's CID.  A CID
        that was already retired is a *stale duplicate* — a retried drain
        command legitimately produces a second coalesced response — and is
        counted and ignored (empty walk).  A CID that was never queued at
        all remains a protocol violation and raises.
        """
        if cid not in self._members:
            if self.was_retired(cid):
                self.duplicate_drains += 1
                return []
            raise ProtocolError(f"drain for unknown CID {cid}")
        queue = self._queue
        members = self._members
        drained: List[int] = []
        while queue:
            head = queue.popleft()
            members.discard(head)
            drained.append(head)
            if head == cid:
                break
        self._remember_retired(drained)
        self.total_drained += len(drained)
        return drained

    def remove(self, cid: int) -> None:
        """Remove one CID out of order (premature individual completion).

        Only a broken (shared-queue) target produces these; the well-formed
        protocol never removes mid-queue.
        """
        if cid not in self._members:
            raise ProtocolError(f"cannot remove unknown CID {cid}")
        self._queue.remove(cid)
        self._members.discard(cid)
        self._remember_retired((cid,))
        self.total_drained += 1

    def advance_epoch(self) -> int:
        """Start a new drain epoch (qpair reconnect); returns the new epoch.

        Queue contents survive — the commands are still outstanding and
        will be resent on the new session — but responses formed against
        the old session are recognisable as such by the resync exchange.
        """
        self.epoch += 1
        return self.epoch

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CidQueue len={len(self._queue)} epoch={self.epoch}>"
