"""Network fabric substrate: links, switch, NICs, TCP-lite, topologies."""

from .link import Link, LinkStats
from .nic import Nic
from .packet import DEFAULT_MSS, WIRE_OVERHEAD, Packet
from .rdma import RDMA_COST_SCALE, RdmaConfig, RdmaSocket, RdmaStats, ROCE_OVERHEAD
from .switch import Switch
from .tcp import TcpConfig, TcpSocket, TcpStats
from .topology import Fabric

__all__ = [
    "DEFAULT_MSS",
    "Fabric",
    "Link",
    "LinkStats",
    "Nic",
    "Packet",
    "RDMA_COST_SCALE",
    "ROCE_OVERHEAD",
    "RdmaConfig",
    "RdmaSocket",
    "RdmaStats",
    "Switch",
    "TcpConfig",
    "TcpSocket",
    "TcpStats",
    "WIRE_OVERHEAD",
]
