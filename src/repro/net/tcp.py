"""TCP-lite: reliable in-order message transport with Reno congestion control.

NVMe-over-TCP rides on kernel TCP; its behaviour under multi-tenant load is
dominated by congestion dynamics (droptail losses, AIMD back-off, retransmit
stalls).  This module implements a deliberately compact TCP:

* byte-stream sequence space, MSS segmentation (jumbo-frame default),
* cumulative ACKs with delayed-ACK coalescing and immediate duplicate ACKs,
* slow start / congestion avoidance, fast retransmit on 3 dup-ACKs,
  RTO with exponential back-off and go-back-N recovery (Reno, no SACK),
* message framing: senders enqueue (payload, size) messages; receivers get
  each payload exactly once, in order, when its last byte arrives.

Omissions (documented, deliberate): no three-way handshake or teardown
(connections exist for the lifetime of a run, as qpairs do in the paper's
steady-state measurements), no Nagle (SPDK disables it), no SACK.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError, NetworkError
from .nic import Nic
from .packet import DEFAULT_MSS, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment


@dataclass(frozen=True)
class TcpConfig:
    """Tunables for one connection (defaults: tuned datacenter profile)."""

    mss: int = DEFAULT_MSS
    init_cwnd_segments: int = 10
    rwnd_bytes: int = 4 * 1024 * 1024
    min_rto_us: float = 1_000.0
    max_rto_us: float = 64_000.0
    ack_every: int = 2
    delayed_ack_us: float = 50.0
    dupack_threshold: int = 3

    def __post_init__(self) -> None:
        if self.mss < 536:
            raise ConfigError("mss unreasonably small")
        if self.init_cwnd_segments < 1:
            raise ConfigError("initial cwnd must be at least one segment")
        if self.min_rto_us <= 0 or self.max_rto_us < self.min_rto_us:
            raise ConfigError("invalid RTO bounds")
        if self.ack_every < 1:
            raise ConfigError("ack_every must be >= 1")
        if self.dupack_threshold < 1:
            raise ConfigError("dupack_threshold must be >= 1")


class TcpStats:
    """Per-socket counters."""

    __slots__ = (
        "messages_sent",
        "messages_delivered",
        "bytes_sent",
        "bytes_delivered",
        "segments_sent",
        "acks_sent",
        "retransmits",
        "fast_retransmits",
        "timeouts",
        "dup_acks_seen",
    )

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.segments_sent = 0
        self.acks_sent = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.dup_acks_seen = 0


class _RestartableTimer:
    """A coarse restartable timer (used for RTO and delayed ACK).

    ``restart(delay)`` arms (or re-arms) the timer; ``stop()`` disarms it.
    Implemented on the engine's ``call_later`` fast path: at most one wakeup
    callback is in flight, and the wakeup re-checks the deadline on fire —
    so moving the deadline *later* is free (no reschedule), and moving it
    earlier fires slightly late, which is conservative for an RTO.  Per
    re-arm this allocates nothing (the generator-process formulation paid a
    process + one Timeout per sleep).
    """

    __slots__ = ("env", "callback", "name", "_deadline", "_wakeups")

    def __init__(self, env: "Environment", callback: Callable[[], None], name: str) -> None:
        self.env = env
        self.callback = callback
        self.name = name
        self._deadline: Optional[float] = None
        self._wakeups = 0  # wakeup callbacks currently on the heap (0 or 1)

    @property
    def armed(self) -> bool:
        return self._deadline is not None

    def restart(self, delay: float) -> None:
        self._deadline = self.env.now + delay
        if self._wakeups == 0:
            self._wakeups = 1
            self.env.call_later(delay, self._on_fire, None)

    def stop(self) -> None:
        self._deadline = None

    def _on_fire(self, _arg: None) -> None:
        self._wakeups -= 1
        deadline = self._deadline
        if deadline is None:
            return  # stopped while the wakeup was in flight
        remaining = deadline - self.env.now
        if remaining <= 0:
            self._deadline = None
            # The callback may re-arm the timer (an RTO handler always
            # does); with _wakeups already at 0 its restart() schedules the
            # next wakeup itself — nothing is orphaned.
            self.callback()
        elif self._wakeups == 0:
            # Deadline was pushed out while we slept: sleep the difference.
            self._wakeups = 1
            self.env.call_later(remaining, self._on_fire, None)


class TcpSocket:
    """One endpoint of a full-duplex TCP-lite connection.

    Create both endpoints with the same ``conn_id`` and wire each to its
    node's :class:`~repro.net.nic.Nic`; the topology layer
    (:func:`repro.net.topology.connect`) does this for you.
    """

    __slots__ = (
        "env",
        "nic",
        "local_node",
        "remote_node",
        "conn_id",
        "config",
        "deliver",
        "name",
        "stats",
        "_transmit",
        "_mss",
        "_rwnd",
        "_snd_una",
        "_snd_nxt",
        "_buffered_end",
        "_msg_ends",
        "_msg_payloads",
        "_msg_head",
        "_cwnd",
        "_ssthresh",
        "_dup_acks",
        "_recover",
        "_in_fast_recovery",
        "_srtt",
        "_rttvar",
        "_rto",
        "_rto_stale",
        "_rtt_seq",
        "_rtt_sent",
        "_rto_timer",
        "_rcv_nxt",
        "_ooo",
        "_unacked_arrivals",
        "_ack_timer",
    )

    def __init__(
        self,
        env: "Environment",
        nic: Nic,
        remote_node: str,
        conn_id: int,
        config: Optional[TcpConfig] = None,
        deliver: Optional[Callable[[Any], None]] = None,
        name: str = "tcp",
    ) -> None:
        self.env = env
        self.nic = nic
        self.local_node = nic.node
        self.remote_node = remote_node
        self.conn_id = conn_id
        self.config = config or TcpConfig()
        self.deliver = deliver
        self.name = name
        self.stats = TcpStats()

        cfg = self.config
        #: Segments and ACKs go straight into the node's uplink, which
        #: also drops them while the NIC is down (see Link.send).
        self._transmit = nic.egress.send
        self._mss = cfg.mss
        self._rwnd = float(cfg.rwnd_bytes)
        # -- sender state
        self._snd_una = 0
        self._snd_nxt = 0
        self._buffered_end = 0
        # Unacked message framing as parallel arrays (struct-of-arrays): end
        # offsets ascend monotonically (each message ends after the last), so
        # segment framing is a bisect slice and the ACK prune is a bisect
        # head advance — O(log n + k) per segment instead of the old
        # deque-of-tuples linear scan.  ``_msg_head`` is the consumed
        # (acked) prefix.  An ACK of every queued byte empties the arrays;
        # any other ACK deletes the prefix once it holds 64 messages and
        # at least half the arrays.  After each ACK, then, a socket keeps
        # its unacked messages and fewer than max(64, unacked) acked ones
        # alive, never the run's history, and each message is deleted
        # once (amortized O(1)).
        self._msg_ends: List[int] = []
        self._msg_payloads: List[Any] = []
        self._msg_head = 0
        self._cwnd = float(cfg.init_cwnd_segments * cfg.mss)
        self._ssthresh = float(cfg.rwnd_bytes)
        self._dup_acks = 0
        self._recover = 0
        self._in_fast_recovery = False
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = cfg.min_rto_us
        #: Set when an RTT sample or a timeout back-off has moved the RTO
        #: off its computed value; the next advancing ACK recomputes it.
        self._rto_stale = False
        self._rtt_seq: Optional[int] = None
        self._rtt_sent = 0.0
        self._rto_timer = _RestartableTimer(env, self._on_rto, f"{name}/rto")

        # -- receiver state
        self._rcv_nxt = 0
        self._ooo: Dict[int, Tuple[int, List[Tuple[int, Any]]]] = {}  # seq -> (len, msgs)
        self._unacked_arrivals = 0
        self._ack_timer = _RestartableTimer(env, self._send_ack_now, f"{name}/dack")

        nic.register_connection(conn_id, self._on_data, self._on_ack)

    # ------------------------------------------------------------------ send --
    def send_message(self, payload: Any, size: int) -> None:
        """Queue a ``size``-byte message for reliable in-order delivery."""
        if size < 1:
            raise NetworkError("message size must be at least 1 byte")
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size
        seq = self._buffered_end
        end = seq + size
        self._buffered_end = end
        self._msg_ends.append(end)
        self._msg_payloads.append(payload)
        mss = self._mss
        if seq == self._snd_nxt and size <= mss:
            # Nothing unsent ahead and the message fits one segment: when
            # the window admits it, it goes out now as exactly the segment
            # _try_send would emit (same checks, same order of effects).
            flight = seq - self._snd_una
            window = self._cwnd
            if self._rwnd < window:
                window = self._rwnd
            if flight + mss <= window + mss - 1 and flight < window:
                stats.segments_sent += 1
                if self._rtt_seq is None:
                    self._rtt_seq = end
                    self._rtt_sent = self.env.now
                self._transmit(
                    Packet(
                        self.local_node,
                        self.remote_node,
                        self.conn_id,
                        "data",
                        seq,
                        size,
                        0,
                        [(end, payload)],
                    )
                )
                self._snd_nxt = end
                if self._rto_timer._deadline is None:
                    self._rto_timer.restart(self._rto)
                return
        self._try_send()

    @property
    def bytes_in_flight(self) -> int:
        return self._snd_nxt - self._snd_una

    @property
    def cwnd(self) -> float:
        return self._cwnd

    @property
    def rto(self) -> float:
        return self._rto

    @property
    def send_backlog(self) -> int:
        """Bytes queued but not yet transmitted."""
        return self._buffered_end - self._snd_nxt

    def _try_send(self) -> None:
        snd_nxt = self._snd_nxt
        buffered_end = self._buffered_end
        if snd_nxt < buffered_end:
            mss = self._mss
            snd_una = self._snd_una
            window = self._cwnd
            if self._rwnd < window:
                window = self._rwnd
            limit = window + mss - 1
            while snd_nxt < buffered_end and snd_nxt - snd_una + mss <= limit:
                # Allow a final short segment even if it slightly overshoots
                # the window by less than one MSS (standard sender behaviour).
                if snd_nxt - snd_una >= window:
                    break
                size = buffered_end - snd_nxt
                if size > mss:
                    size = mss
                self._emit_segment(snd_nxt, size, False)
                snd_nxt += size
            self._snd_nxt = snd_nxt
        if snd_nxt > self._snd_una and self._rto_timer._deadline is None:
            self._rto_timer.restart(self._rto)

    def _segment_messages(self, seq: int, size: int) -> List[Tuple[int, Any]]:
        """Messages whose final byte falls within [seq, seq+size)."""
        ends = self._msg_ends
        i = bisect_right(ends, seq, self._msg_head)
        j = bisect_right(ends, seq + size, i)
        if i == j:
            # Most data segments carry no message boundary; skip the
            # slice+zip machinery for them.
            return []
        return list(zip(ends[i:j], self._msg_payloads[i:j]))

    def _emit_segment(self, seq: int, size: int, retransmit: bool) -> None:
        # Positional Packet construction: this and the ACK path are the two
        # hottest allocation sites in the simulator.
        packet = Packet(
            self.local_node,
            self.remote_node,
            self.conn_id,
            "data",
            seq,
            size,
            0,
            self._segment_messages(seq, size),
            retransmit,
        )
        stats = self.stats
        stats.segments_sent += 1
        if retransmit:
            stats.retransmits += 1
        elif self._rtt_seq is None:
            # Karn: time exactly one non-retransmitted segment at a time.
            self._rtt_seq = seq + size
            self._rtt_sent = self.env.now
        self._transmit(packet)

    # ------------------------------------------------------------------- rx ---
    # The NIC's connection table holds (_on_data, _on_ack): the ingress link
    # calls the right one directly, by frame kind.

    # -- sender side: ACK processing
    def _on_ack(self, packet: Packet) -> None:
        ackno = packet.ack
        cfg = self.config
        if ackno > self._snd_una:
            flight_advance = ackno - self._snd_una
            self._snd_una = ackno
            if ackno > self._snd_nxt:
                # After an RTO rewind, a cumulative ACK can jump past the
                # rewound send point (the receiver had buffered the data).
                # Skip ahead instead of go-back-N resending buffered bytes —
                # the recovery efficiency SACK gives real Linux TCP.
                self._snd_nxt = ackno
            self._dup_acks = 0
            # Prune acked messages, releasing their payloads: all of them
            # when everything queued is acked, else advance the consumed
            # prefix and delete it once it is both 64 messages long and at
            # least half the arrays.
            if ackno == self._buffered_end:
                del self._msg_ends[:]
                del self._msg_payloads[:]
                self._msg_head = 0
            else:
                head = bisect_right(self._msg_ends, ackno, self._msg_head)
                if head != self._msg_head:
                    self._msg_head = head
                    if head >= 64 and head * 2 >= len(self._msg_ends):
                        del self._msg_ends[:head]
                        del self._msg_payloads[:head]
                        self._msg_head = 0
            # RTT sample (Karn-filtered).
            if self._rtt_seq is not None and ackno >= self._rtt_seq:
                self._rtt_update(self.env.now - self._rtt_sent)
                self._rtt_seq = None
            if self._in_fast_recovery:
                if ackno >= self._recover:
                    self._in_fast_recovery = False
                    self._cwnd = self._ssthresh
                else:
                    # Reno partial ack: retransmit next hole, deflate.
                    self._emit_segment(
                        self._snd_una,
                        min(cfg.mss, self._buffered_end - self._snd_una),
                        retransmit=True,
                    )
                    self._cwnd = max(float(cfg.mss), self._cwnd - flight_advance + cfg.mss)
            elif self._cwnd < self._ssthresh:
                self._cwnd += cfg.mss  # slow start
            else:
                self._cwnd += cfg.mss * cfg.mss / self._cwnd  # congestion avoidance
            # Anything new acked: back-off resets, timer re-arms.  The RTO
            # changes only after an RTT sample or a back-off.
            if self._rto_stale:
                self._rto_stale = False
                self._rto = max(cfg.min_rto_us, min(self._compute_rto(), cfg.max_rto_us))
            if self._snd_nxt > ackno:
                self._rto_timer.restart(self._rto)
            else:
                self._rto_timer.stop()
            # Only unsent bytes need _try_send: its timer check is moot now.
            if self._snd_nxt < self._buffered_end:
                self._try_send()
        elif self._snd_nxt > self._snd_una:
            self.stats.dup_acks_seen += 1
            self._dup_acks += 1
            if self._dup_acks == cfg.dupack_threshold and not self._in_fast_recovery:
                # Fast retransmit + fast recovery.
                self.stats.fast_retransmits += 1
                flight = float(self._snd_nxt - self._snd_una)
                self._ssthresh = max(flight / 2.0, 2.0 * cfg.mss)
                self._cwnd = self._ssthresh + cfg.dupack_threshold * cfg.mss
                self._recover = self._snd_nxt
                self._in_fast_recovery = True
                self._emit_segment(
                    self._snd_una,
                    min(cfg.mss, self._buffered_end - self._snd_una),
                    retransmit=True,
                )
                self._rto_timer.restart(self._rto)
            elif self._in_fast_recovery:
                self._cwnd += cfg.mss  # window inflation
                self._try_send()

    def _rtt_update(self, sample: float) -> None:
        self._rto_stale = True
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample

    def _compute_rto(self) -> float:
        if self._srtt is None:
            return self.config.min_rto_us
        return self._srtt + 4.0 * self._rttvar

    def _on_rto(self) -> None:
        if self.bytes_in_flight <= 0:
            return
        cfg = self.config
        self.stats.timeouts += 1
        self._ssthresh = max(self.bytes_in_flight / 2.0, 2.0 * cfg.mss)
        self._cwnd = float(cfg.mss)
        self._dup_acks = 0
        self._in_fast_recovery = False
        self._rtt_seq = None  # Karn: discard pending sample
        # Go-back-N: rewind and resend from the last cumulative ACK.
        self._snd_nxt = self._snd_una
        self._rto = min(self._rto * 2.0, cfg.max_rto_us)
        self._rto_stale = True
        self._emit_segment(
            self._snd_una,
            min(cfg.mss, self._buffered_end - self._snd_una),
            retransmit=True,
        )
        self._snd_nxt = self._snd_una + min(cfg.mss, self._buffered_end - self._snd_una)
        self._rto_timer.restart(self._rto)

    # -- receiver side: data processing
    def _on_data(self, packet: Packet) -> None:
        cfg = self.config
        seq = packet.seq
        rcv_nxt = self._rcv_nxt
        if seq == rcv_nxt:
            # Each message is delivered as soon as its segment makes the
            # stream contiguous: first this segment's, then those of any
            # buffered out-of-order segment it joins up with.  A merged
            # segment starts where the stream ends, so every message here
            # ends past everything delivered before, in ascending order.
            ooo = self._ooo
            length = packet.length
            messages = packet.messages
            while True:
                rcv_nxt += length
                self._rcv_nxt = rcv_nxt
                if messages:
                    stats = self.stats
                    for end, payload in messages:
                        stats.messages_delivered += 1
                        stats.bytes_delivered = end
                        if self.deliver is not None:
                            self.deliver(payload)
                if not ooo or rcv_nxt not in ooo:
                    break
                length, messages = ooo.pop(rcv_nxt)
            arrivals = self._unacked_arrivals + 1
            # A non-empty ``ooo`` forces the ACK now, even when it only
            # holds segments the stream has already passed.
            if arrivals >= cfg.ack_every or ooo:
                self._send_ack_now()
            else:
                self._unacked_arrivals = arrivals
                if self._ack_timer._deadline is None:
                    self._ack_timer.restart(cfg.delayed_ack_us)
        elif seq > rcv_nxt:
            # Hole: buffer and emit an immediate duplicate ACK.
            if seq not in self._ooo:
                self._ooo[seq] = (packet.length, packet.messages)
            self._send_ack_now()
        else:
            # Duplicate of already-received data (spurious retransmit).
            self._send_ack_now()

    def _send_ack_now(self) -> None:
        self._unacked_arrivals = 0
        self._ack_timer._deadline = None
        self.stats.acks_sent += 1
        self._transmit(
            Packet(self.local_node, self.remote_node, self.conn_id, "ack", 0, 0, self._rcv_nxt)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TcpSocket {self.local_node}->{self.remote_node} conn={self.conn_id} "
            f"una={self._snd_una} nxt={self._snd_nxt} cwnd={self._cwnd:.0f}>"
        )
