"""Output-queued Ethernet switch.

The switch owns one egress :class:`~repro.net.link.Link` per attached node
and forwards by destination node name after a small fixed forwarding delay.
Congestion forms in the egress link queues — e.g. many initiators reading
from one target congest the *target-to-switch-to-initiator* path at the
initiator-side egress, while completions and read data from a single target
contend at every egress toward its initiators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..errors import NetworkError
from .link import Link
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment


class Switch:
    """Store-and-forward switch with per-port output queues."""

    __slots__ = ("env", "name", "forwarding_delay", "_ports", "forwarded", "unroutable")

    def __init__(self, env: "Environment", forwarding_delay_us: float = 0.5, name: str = "sw") -> None:
        if forwarding_delay_us < 0:
            raise NetworkError("forwarding delay must be non-negative")
        self.env = env
        self.name = name
        self.forwarding_delay = forwarding_delay_us
        self._ports: Dict[str, Link] = {}
        self.forwarded = 0
        self.unroutable = 0

    def attach(self, node: str, egress: Link) -> None:
        """Register the egress link toward ``node``."""
        if node in self._ports:
            raise NetworkError(f"node {node!r} already attached to switch {self.name!r}")
        self._ports[node] = egress

    def ports(self) -> Dict[str, Link]:
        return dict(self._ports)

    def receive(self, packet: Packet) -> None:
        """Ingress handler: look up the output port and forward.

        A link connected to this switch forwards routable frames itself
        when the forwarding delay is zero (see :meth:`Link.connect`); this
        method defines forwarding for every other case.
        """
        try:
            egress = self._ports[packet.dst]
        except KeyError:
            self.unroutable += 1
            raise NetworkError(
                f"switch {self.name!r} has no port for destination {packet.dst!r}"
            ) from None
        self.forwarded += 1
        if self.forwarding_delay == 0:
            egress.send(packet)
            return
        # Callback fast path: the forwarding delay schedules the egress send
        # directly — no Event allocation per forwarded frame.
        self.env.call_later(self.forwarding_delay, egress.send, packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Switch {self.name!r} ports={list(self._ports)}>"
