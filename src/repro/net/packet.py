"""Wire packets.

A :class:`Packet` is one Ethernet frame's worth of simulated traffic.  The
payload is never real bytes for data segments — only a byte count plus
message bookkeeping — which keeps the simulator zero-copy, mirroring how the
paper's implementation avoids copies (§IV-B).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

#: Fixed per-frame wire overhead in bytes: Ethernet preamble+SFD (8), MAC
#: header (14), FCS (4), inter-frame gap (12), IPv4 (20), TCP (20).
WIRE_OVERHEAD = 78

#: Default maximum TCP segment payload.  Datacenter NVMe-oF deployments run
#: jumbo frames; 8960 keeps one 4 KiB block + PDU header in a single segment.
DEFAULT_MSS = 8960


class Packet:
    """One simulated TCP/IP frame.

    Attributes
    ----------
    src, dst:
        Node names (link-level routing is by node).
    conn_id:
        TCP connection identifier (unique per connection).
    kind:
        ``"data"`` or ``"ack"``.
    seq:
        For data: stream offset of the first payload byte.
    length:
        For data: number of payload bytes in this segment.
    ack:
        Cumulative acknowledgement (next expected stream byte).
    messages:
        ``(end_offset, payload)`` pairs for messages ending in this segment;
        the receiver delivers ``payload`` once bytes up to ``end_offset``
        have arrived in order.
    """

    __slots__ = (
        "src",
        "dst",
        "conn_id",
        "kind",
        "seq",
        "length",
        "ack",
        "messages",
        "retransmit",
        "wire_size",
        "deliver_at",
        "_carrier",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        conn_id: int,
        kind: str,
        seq: int = 0,
        length: int = 0,
        ack: int = 0,
        messages: Optional[List[Tuple[int, Any]]] = None,
        retransmit: bool = False,
    ) -> None:
        self.src = src
        self.dst = dst
        self.conn_id = conn_id
        self.kind = kind
        self.seq = seq
        self.length = length
        self.ack = ack
        self.messages = [] if messages is None else messages
        self.retransmit = retransmit
        #: Bytes this frame occupies on the wire, including all overheads —
        #: precomputed once (it is read several times per link traversal).
        self.wire_size = length + WIRE_OVERHEAD
        #: Scheduled delivery time on the link currently carrying the frame
        #: (maintained by :class:`repro.net.link.Link`).
        self.deliver_at = 0.0
        self._carrier: Any = None

    @property
    def is_data(self) -> bool:
        return self.kind == "data"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_data:
            return (
                f"<Packet data {self.src}->{self.dst} conn={self.conn_id} "
                f"seq={self.seq} len={self.length}{' RTX' if self.retransmit else ''}>"
            )
        return f"<Packet ack {self.src}->{self.dst} conn={self.conn_id} ack={self.ack}>"
