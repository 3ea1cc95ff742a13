"""RDMA-like reliable transport (RoCE-style reliable connection QPs).

NVMe-oF's other mainstream fabric binding is RDMA.  Compared to the TCP
binding it differs in exactly the ways that matter for the priority-scheme
study:

* **Lossless fabric** — RoCE deployments run priority flow control; frames
  back-pressure instead of dropping.  We approximate PFC with deep private
  queues (`queue_packets`), so the AIMD machinery of :mod:`repro.net.tcp`
  has no role here: no ACK packets, no retransmissions, no cwnd.
* **Smaller per-frame overhead** — Ethernet + IP/UDP + InfiniBand transport
  headers (RoCEv2) cost ~58 bytes, vs ~78 for Ethernet+IP+TCP.
* **Kernel bypass** — per-message CPU is lower on both ends; the scenario
  layer models this with a scaled cost model (:data:`RDMA_COST_SCALE`).

The socket exposes the same interface as :class:`~repro.net.tcp.TcpSocket`
(``send_message`` / ``deliver``), so the NVMe-oF transport binding and both
runtimes work over either fabric unchanged.  The extended-evaluation bench
compares SPDK vs NVMe-oPF over TCP and RDMA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..errors import ConfigError, NetworkError
from .nic import Nic
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment

#: Wire overhead of one RoCEv2 frame (Eth preamble/SFD 8 + MAC 14 + FCS 4 +
#: IFG 12 + IP 20 + UDP 8 + IB BTH 12 ~= 78 - 20 = 58; ICRC folded in).
ROCE_OVERHEAD = 58

#: CPU cost multiplier for RDMA datapaths relative to the TCP stack; verbs
#: post/poll paths skip socket processing on both ends.
RDMA_COST_SCALE = 0.6


@dataclass(frozen=True)
class RdmaConfig:
    """Tunables for one RDMA connection."""

    mtu: int = 4096

    def __post_init__(self) -> None:
        if self.mtu < 256:
            raise ConfigError("RDMA MTU unreasonably small")


class RdmaStats:
    """Per-QP counters."""

    __slots__ = ("messages_sent", "messages_delivered", "bytes_sent", "frames_sent")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.bytes_sent = 0
        self.frames_sent = 0

    # TCP-compat attribute so scenario code can sum retransmits uniformly.
    @property
    def retransmits(self) -> int:
        return 0


class RdmaSocket:
    """One endpoint of a reliable-connection RDMA QP pair.

    Interface-compatible with :class:`~repro.net.tcp.TcpSocket`:
    ``send_message(payload, size)`` on one side invokes ``deliver(payload)``
    on the other, in order, exactly once.
    """

    def __init__(
        self,
        env: "Environment",
        nic: Nic,
        remote_node: str,
        conn_id: int,
        config: Optional[RdmaConfig] = None,
        deliver: Optional[Callable[[Any], None]] = None,
        name: str = "rdma",
    ) -> None:
        self.env = env
        self.nic = nic
        self.local_node = nic.node
        self.remote_node = remote_node
        self.conn_id = conn_id
        self.config = config or RdmaConfig()
        self.deliver = deliver
        self.name = name
        self.stats = RdmaStats()
        # Sender: message sequencing; receiver: reassembly state.
        self._next_msg_seq = 0
        self._rx_expected_seq = 0
        self._rx_partial: Dict[int, int] = {}  # msg seq -> bytes received
        self._rx_payloads: Dict[int, Any] = {}
        nic.register_connection(conn_id, self._on_frame)

    def send_message(self, payload: Any, size: int) -> None:
        """Transmit one message as MTU-sized frames (reliable, in order)."""
        if size < 1:
            raise NetworkError("message size must be at least 1 byte")
        cfg = self.config
        self.stats.messages_sent += 1
        self.stats.bytes_sent += size
        seq = self._next_msg_seq
        self._next_msg_seq += 1
        remaining = size
        offset = 0
        while remaining > 0:
            frame_len = min(cfg.mtu, remaining)
            remaining -= frame_len
            last = remaining == 0
            frame = Packet(
                src=self.local_node,
                dst=self.remote_node,
                conn_id=self.conn_id,
                kind="data",
                seq=seq,
                length=frame_len,
                ack=offset,
                messages=[(size, payload)] if last else [],
            )
            # RoCE frames carry lighter headers than TCP segments.
            frame.retransmit = False
            self.stats.frames_sent += 1
            ok = self.nic.transmit(frame)
            if not ok:
                # A drop on a "lossless" fabric means the deep-buffer
                # approximation was violated: fail loudly rather than
                # silently corrupt the reliable-delivery contract.
                raise NetworkError(
                    f"RDMA frame dropped on {self.local_node!r}: fabric queues "
                    "too shallow for lossless operation (raise queue_packets)"
                )
            offset += frame_len

    def _on_frame(self, frame: Packet) -> None:
        seq = frame.seq
        got = self._rx_partial.get(seq, 0) + frame.length
        self._rx_partial[seq] = got
        if frame.messages:
            total, payload = frame.messages[0]
            self._rx_payloads[seq] = (total, payload)
        # Deliver completed messages in sequence order (the fabric is
        # point-to-point FIFO, so frames arrive in order already; this
        # guards the invariant explicitly).
        while self._rx_expected_seq in self._rx_payloads:
            total, payload = self._rx_payloads[self._rx_expected_seq]
            if self._rx_partial.get(self._rx_expected_seq, 0) < total:
                break
            del self._rx_payloads[self._rx_expected_seq]
            del self._rx_partial[self._rx_expected_seq]
            self.stats.messages_delivered += 1
            self._rx_expected_seq += 1
            if self.deliver is not None:
                self.deliver(payload)

    # -- TCP-socket interface compatibility ------------------------------------
    @property
    def send_backlog(self) -> int:
        return 0  # frames inject immediately; backlog lives in fabric queues

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RdmaSocket {self.local_node}->{self.remote_node} conn={self.conn_id}>"


def connect_rdma(fabric, node_a: str, node_b: str, config: Optional[RdmaConfig] = None,
                 name: str = "rdma") -> Tuple[RdmaSocket, RdmaSocket]:
    """Create a connected RDMA QP pair between two attached fabric nodes."""
    if node_a not in fabric._nics or node_b not in fabric._nics:
        raise NetworkError(f"both nodes must be attached ({node_a!r}, {node_b!r})")
    if node_a == node_b:
        raise NetworkError("cannot connect a node to itself")
    conn_id = next(fabric._conn_ids)
    env = fabric.env
    sock_a = RdmaSocket(env, fabric.nic(node_a), node_b, conn_id, config=config,
                        name=f"{name}:{node_a}")
    sock_b = RdmaSocket(env, fabric.nic(node_b), node_a, conn_id, config=config,
                        name=f"{name}:{node_b}")
    return sock_a, sock_b
