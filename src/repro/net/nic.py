"""Host NIC: the node's attachment point to the fabric.

The NIC owns the node's egress link (toward the switch) and demultiplexes
ingress packets to the TCP connections terminating at this node.  Per-node
packet counters live here; they feed Figure 6(c)'s completion-notification
accounting at the network level.

Frames do not pass through a NIC method on the fabric's hot path: sockets
send straight into :attr:`Nic.egress`, which drops a downed NIC's frames
itself, and the ingress link connected to the NIC demultiplexes by the
connection table in its delivery frame (see :meth:`Link.connect`).
:meth:`Nic.receive` defines the ingress semantics for everything else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from ..errors import NetworkError
from .link import Link
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment

Handler = Callable[[Packet], None]


class Nic:
    """One host network interface."""

    __slots__ = (
        "env",
        "node",
        "egress",
        "ingress",
        "_handlers",
        "rx_packets",
        "rx_dropped",
        "_down",
        "_down_drops",
    )

    def __init__(self, env: "Environment", node: str, egress: Link) -> None:
        self.env = env
        self.node = node
        self.egress = egress
        #: The link delivering to this NIC, once one is connected to it.
        self.ingress: Optional[Link] = None
        self._handlers: Dict[int, Tuple[Handler, Handler]] = {}
        self.rx_packets = 0
        self.rx_dropped = 0
        self._down = False
        self._down_drops = 0  # frames offered to the egress while down
        egress._sender = self
        egress._regate()

    @property
    def fault_down(self) -> bool:
        """Fault-injection state: a downed NIC loses every frame in both
        directions (models a dead port / firmware wedge)."""
        return self._down

    @fault_down.setter
    def fault_down(self, down: bool) -> None:
        self._down = down
        self.egress._regate()
        if self.ingress is not None:
            self.ingress._regate()

    @property
    def tx_packets(self) -> int:
        """Frames this NIC offered to the fabric (its egress carries no
        other traffic, so that link's counters are the NIC's)."""
        stats = self.egress.stats
        return self._down_drops + stats.dropped + stats.enqueued

    @property
    def tx_dropped(self) -> int:
        """Offered frames lost: NIC down, or dropped by the egress link."""
        return self._down_drops + self.egress.stats.dropped

    def register_connection(
        self, conn_id: int, on_data: Handler, on_ack: Optional[Handler] = None
    ) -> None:
        """Route ingress frames for ``conn_id``: data frames to ``on_data``,
        ACK frames to ``on_ack`` (``on_data`` when not given)."""
        if conn_id in self._handlers:
            raise NetworkError(f"connection {conn_id} already registered on {self.node!r}")
        self._handlers[conn_id] = (on_data, on_data if on_ack is None else on_ack)

    def transmit(self, packet: Packet) -> bool:
        """Send one frame toward the switch; False if it was dropped."""
        return self.egress.send(packet)

    def receive(self, packet: Packet) -> None:
        """Ingress entry point: the sink of the link connected to this NIC."""
        if self._down:
            self.rx_dropped += 1
            return
        self.rx_packets += 1
        handlers = self._handlers.get(packet.conn_id)
        if handlers is None:
            # Packets for unknown connections are silently dropped, as a
            # real host would RST them; simulation-level protocols never
            # tear down mid-run so this mostly guards tests.
            return
        on_data, on_ack = handlers
        if packet.kind == "data":
            on_data(packet)
        else:
            on_ack(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Nic {self.node!r} conns={len(self._handlers)}>"
