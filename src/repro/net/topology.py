"""Fabric topology construction.

The experiments all use star topologies: every node has a full-duplex access
link (NIC <-> switch) at the configured line rate, and a single switch
forwards between nodes.  :class:`Fabric` owns the wiring and hands out
connected TCP socket pairs.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..errors import NetworkError
from .link import Link
from .nic import Nic
from .switch import Switch
from .tcp import TcpConfig, TcpSocket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment


class Fabric:
    """A star Ethernet fabric: nodes around one switch.

    Parameters
    ----------
    rate_gbps:
        Access-link line rate (the paper evaluates 10, 25, and 100 Gbps).
    propagation_us:
        One-way propagation per link (host <-> switch).
    queue_packets:
        Droptail queue depth of every link, in packets.  Shallow queues are
        the congestion mechanism of the 10 Gbps experiments.
    """

    def __init__(
        self,
        env: "Environment",
        rate_gbps: float = 100.0,
        propagation_us: float = 1.0,
        queue_packets: int = 256,
        switch_delay_us: float = 0.5,
        name: str = "fabric",
    ) -> None:
        self.env = env
        self.name = name
        self.rate_gbps = rate_gbps
        self.propagation_us = propagation_us
        self.queue_packets = queue_packets
        self.switch_delay_us = switch_delay_us
        # The switch's fixed forwarding delay is folded into the *uplink*
        # propagation (host->switch leg) so the switch forwards synchronously
        # on packet arrival: every frame reaches the egress queue at exactly
        # the same simulated time as a delayed forward would produce, but
        # without a dedicated forwarding event per frame.
        self.switch = Switch(env, forwarding_delay_us=0.0, name=f"{name}/sw")
        self._nics: Dict[str, Nic] = {}
        self._uplinks: Dict[str, Link] = {}
        self._downlinks: Dict[str, Link] = {}
        self._conn_ids = count(1)

    # -- node management ---------------------------------------------------------
    def add_node(self, node: str, rate_gbps: Optional[float] = None) -> Nic:
        """Attach a node; returns its NIC.  Idempotent per node name? No —
        duplicate names are an error, they would alias switch ports."""
        if node in self._nics:
            raise NetworkError(f"node {node!r} already exists on fabric {self.name!r}")
        rate = rate_gbps if rate_gbps is not None else self.rate_gbps
        up = Link(
            self.env,
            rate_gbps=rate,
            propagation_us=self.propagation_us + self.switch_delay_us,
            queue_packets=self.queue_packets,
            name=f"{node}->sw",
        )
        down = Link(
            self.env,
            rate_gbps=rate,
            propagation_us=self.propagation_us,
            queue_packets=self.queue_packets,
            name=f"sw->{node}",
        )
        nic = Nic(self.env, node, egress=up)
        # Bind both access links to the tables that consume their frames
        # (the switch's ports, the NIC's connections): a frame then costs no
        # switch or NIC call, and the sockets this node gets send straight
        # into ``up``.
        up.connect(self.switch)
        down.connect(nic)
        self.switch.attach(node, down)
        self._nics[node] = nic
        self._uplinks[node] = up
        self._downlinks[node] = down
        return nic

    def nic(self, node: str) -> Nic:
        try:
            return self._nics[node]
        except KeyError:
            raise NetworkError(f"unknown node {node!r}") from None

    def uplink(self, node: str) -> Link:
        """The node's egress link (host -> switch)."""
        return self._uplinks[node]

    def downlink(self, node: str) -> Link:
        """The link delivering to the node (switch -> host)."""
        return self._downlinks[node]

    @property
    def nodes(self):
        return list(self._nics)

    # -- connections ---------------------------------------------------------------
    def connect(
        self,
        node_a: str,
        node_b: str,
        config: Optional[TcpConfig] = None,
        name: str = "conn",
    ) -> Tuple[TcpSocket, TcpSocket]:
        """Create a connected TCP socket pair between two attached nodes."""
        if node_a not in self._nics or node_b not in self._nics:
            raise NetworkError("both nodes must be attached before connecting "
                               f"({node_a!r}, {node_b!r})")
        if node_a == node_b:
            raise NetworkError("cannot connect a node to itself")
        conn_id = next(self._conn_ids)
        sock_a = TcpSocket(
            self.env, self._nics[node_a], node_b, conn_id, config=config,
            name=f"{name}:{node_a}",
        )
        sock_b = TcpSocket(
            self.env, self._nics[node_b], node_a, conn_id, config=config,
            name=f"{name}:{node_b}",
        )
        return sock_a, sock_b

    def connect_rdma(self, node_a: str, node_b: str, config=None, name: str = "rdma"):
        """Create a connected RDMA QP pair (see :mod:`repro.net.rdma`)."""
        from .rdma import connect_rdma

        return connect_rdma(self, node_a, node_b, config=config, name=name)

    def total_drops(self) -> int:
        """Dropped frames across every link (congestion indicator)."""
        return sum(link.stats.dropped for link in self._uplinks.values()) + sum(
            link.stats.dropped for link in self._downlinks.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Fabric {self.name!r} {self.rate_gbps}Gbps nodes={len(self._nics)}>"
