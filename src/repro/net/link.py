"""Point-to-point links with finite bandwidth and droptail queues.

A :class:`Link` is unidirectional: packets are enqueued, serialised at the
line rate, and delivered after the propagation delay to its sink: a
callable, or the switch or NIC at the far end of an access link, whose
forwarding or demultiplexing then runs inside the delivery itself.
The queue is limited in *packets* (as NIC rings and shallow switch buffers
are), which is what makes small completion-notification packets expensive
under congestion: they occupy queue slots out of proportion to their bytes.
This is the mechanism behind the paper's 10 Gbps multi-tenant read results.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional, Tuple, Union

from ..errors import ConfigError
from ..units import gbps_to_bytes_per_us
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simcore.engine import Environment
    from .nic import Nic
    from .switch import Switch


class LinkStats:
    """Counters for one link."""

    __slots__ = (
        "enqueued",
        "dropped",
        "fault_drops",
        "bytes_sent",
        "data_packets",
        "ack_packets",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.dropped = 0
        self.fault_drops = 0
        self.bytes_sent = 0
        self.data_packets = 0
        self.ack_packets = 0

    @property
    def delivered(self) -> int:
        """Frames handed to the far end (every frame is data or an ACK)."""
        return self.data_packets + self.ack_packets

class Link:
    """Unidirectional serialising link with a droptail packet queue."""

    __slots__ = (
        "env",
        "name",
        "rate",
        "_base_rate",
        "rate_gbps",
        "propagation",
        "queue_limit",
        "sink",
        "stats",
        "_free_at",
        "_pending",
        "_deliver_cb",
        "_up",
        "_drop_filter",
        "_sender",
        "_gated",
        "_receiver",
        "_ports",
        "_conns",
    )

    def __init__(
        self,
        env: "Environment",
        rate_gbps: float,
        propagation_us: float = 2.0,
        queue_packets: int = 128,
        name: str = "link",
    ) -> None:
        if rate_gbps <= 0:
            raise ConfigError("link rate must be positive")
        if propagation_us < 0:
            raise ConfigError("propagation delay must be non-negative")
        if queue_packets < 1:
            raise ConfigError("queue must hold at least one packet")
        self.env = env
        self.name = name
        self.rate = gbps_to_bytes_per_us(rate_gbps)  # bytes per microsecond
        self._base_rate = self.rate
        self.rate_gbps = rate_gbps
        self.propagation = propagation_us
        self.queue_limit = queue_packets
        self.sink: Optional[Callable[[Packet], None]] = None
        self.stats = LinkStats()
        #: Virtual serialisation clock: when the transmitter finishes the
        #: last frame accepted so far (<= now means idle).  A non-preemptive
        #: FIFO wire is fully determined at accept time, so each frame's
        #: delivery is scheduled directly (one heap event per frame) instead
        #: of simulating the serialise/propagate legs separately.
        self._free_at = 0.0
        #: Frames accepted but not yet serialising, as mutable
        #: ``[start_time, packet]`` pairs in FIFO order.  Pruned lazily;
        #: its (pruned) length is the droptail queue occupancy, and it is
        #: what a rate renegotiation rewrites.
        self._pending: Deque[list] = deque()
        #: The delivery callback as a single pre-bound method: ``send`` puts
        #: one on the heap per frame, and binding it fresh each time would
        #: allocate a method object per frame.
        self._deliver_cb = self._deliver
        self._up = True
        self._drop_filter: Optional[Callable[[Packet], bool]] = None
        #: The NIC whose frames this link carries (a node's uplink), so that
        #: a downed NIC loses its frames here; set by :class:`Nic`.
        self._sender: Optional["Nic"] = None
        #: The switch or NIC bound by :meth:`connect`, and the table that
        #: :meth:`_deliver` consumes frames by in its own frame: the
        #: switch's port table, or the NIC's connection table while the NIC
        #: is up.  Each is None when it does not apply.
        self._receiver: Union["Switch", "Nic", None] = None
        self._ports: Optional[Dict[str, "Link"]] = None
        self._conns: Optional[Dict[int, Tuple[Callable[[Packet], None], ...]]] = None
        #: True when :meth:`send` must consult :meth:`_refuse`: no sink yet,
        #: link down, a drop filter set, or the sending NIC down.  Fault
        #: state changes rarely, so ``send`` checks this one flag and
        #: :meth:`_regate` recomputes it (and the tables above) on change.
        self._gated = True

    def connect(self, sink: Union[Callable[[Packet], None], "Switch", "Nic"]) -> None:
        """Set what consumes delivered frames.

        ``sink`` is a callable taking each frame, or the :class:`Switch` or
        :class:`Nic` at the far end of an access link.  A switch or NIC is
        bound rather than called per frame: delivery forwards by the
        switch's port table, or hands the frame to its connection's handler
        by the NIC's connection table, in the delivering frame itself.  What
        the table does not cover (an unroutable destination, an unknown
        connection, a downed NIC, a switch with a forwarding delay) goes to
        the consumer's ``receive``, which stays the one definition of it.
        """
        from .nic import Nic
        from .switch import Switch

        if isinstance(sink, (Switch, Nic)):
            self._receiver = sink
            if isinstance(sink, Nic):
                sink.ingress = self
            sink = sink.receive
        else:
            self._receiver = None
        self.sink = sink
        self._regate()

    def _regate(self) -> None:
        """Recompute the send gate and the bound table from current state."""
        from .switch import Switch

        sender = self._sender
        self._gated = (
            self.sink is None
            or not self._up
            or self._drop_filter is not None
            or (sender is not None and sender._down)
        )
        receiver = self._receiver
        self._ports = self._conns = None
        if isinstance(receiver, Switch):
            if receiver.forwarding_delay == 0:
                self._ports = receiver._ports
        elif receiver is not None and not receiver._down:
            self._conns = receiver._handlers

    @property
    def up(self) -> bool:
        """Administrative state; a downed link (flap fault) drops every
        frame offered to it, exactly like a dead cable."""
        return self._up

    @property
    def drop_filter(self) -> Optional[Callable[[Packet], bool]]:
        """Optional fault-injection hook: frames for which it returns True
        are dropped before enqueue (counted in ``stats.dropped``)."""
        return self._drop_filter

    @drop_filter.setter
    def drop_filter(self, drop_filter: Optional[Callable[[Packet], bool]]) -> None:
        self._drop_filter = drop_filter
        self._regate()

    @property
    def queue_depth(self) -> int:
        """Packets currently waiting (excludes the one in transmission)."""
        pending = self._pending
        now = self.env.now
        while pending and pending[0][0] <= now:
            pending.popleft()
        return len(pending)

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet``; returns False (and drops) if the queue is full.

        Matches real NIC/switch behaviour: the sender is not back-pressured,
        it simply loses the frame and TCP recovers.
        """
        if self._gated and self._refuse(packet):
            return False
        env = self.env
        now = env.now
        pending = self._pending
        while pending and pending[0][0] <= now:
            pending.popleft()
        if pending and len(pending) >= self.queue_limit:
            self.stats.dropped += 1
            return False
        self.stats.enqueued += 1
        start = self._free_at
        if start < now:
            start = now
        end = start + packet.wire_size / self.rate
        self._free_at = end
        deliver_at = end + self.propagation
        packet.deliver_at = deliver_at
        packet._carrier = self
        if start > now:
            pending.append([start, packet])
        # Inlined env.call_at (the simulator's single hottest schedule site):
        # deliver_at is always finite and >= now by construction, so the
        # validation and call overhead are skipped.  Same (t, NORMAL, seq)
        # heap key call_at would produce.
        seq = env._seq
        env._seq = seq + 1
        _heappush(env._queue, (deliver_at, 1, seq, self._deliver_cb, packet))
        return True

    def _refuse(self, packet: Packet) -> bool:
        """The gated half of :meth:`send`: whether a fault drops ``packet``.

        Checked in the order a frame meets them: its NIC, the cable, then
        the loss filter, which may draw from a seeded stream and so sees
        only frames that reach it.
        """
        sender = self._sender
        if sender is not None and sender._down:
            sender._down_drops += 1  # the NIC's loss, not the link's
            return True
        if self.sink is None:
            raise ConfigError(f"link {self.name!r} has no sink connected")
        stats = self.stats
        if not self._up:
            stats.dropped += 1
            stats.fault_drops += 1
            return True
        if self._drop_filter is not None and self._drop_filter(packet):
            stats.dropped += 1
            stats.fault_drops += 1
            return True
        return False

    # -- internals ---------------------------------------------------------------
    # One heap event per frame: a non-preemptive FIFO wire's schedule is
    # known at accept time, so ``send`` books the whole serialise+propagate
    # trajectory up front.  ``_deliver`` re-checks ``packet.deliver_at``
    # against the clock (the restartable-timer idiom) so a rate
    # renegotiation can rewrite the schedule without cancelling heap
    # entries.
    def _deliver(self, packet: Packet) -> None:
        if packet._carrier is not self:
            return  # superseded: an earlier reschedule already delivered it
        deliver_at = packet.deliver_at
        if deliver_at > self.env.now:
            # The schedule was pushed out (rate degraded) after this event
            # was booked: sleep the difference and re-check.
            self.env.call_at(deliver_at, self._deliver_cb, packet)
            return
        packet._carrier = None
        stats = self.stats
        stats.bytes_sent += packet.wire_size
        data = packet.kind == "data"
        if data:
            stats.data_packets += 1
        else:
            stats.ack_packets += 1
        # A bound switch or NIC consumes the frame right here (see
        # connect); the sink -- its ``receive`` -- takes every other case.
        ports = self._ports
        if ports is not None:
            dst = packet.dst
            if dst in ports:
                self._receiver.forwarded += 1  # type: ignore[union-attr]
                ports[dst].send(packet)
                return
        else:
            conns = self._conns
            if conns is not None:
                conn_id = packet.conn_id
                if conn_id in conns:
                    self._receiver.rx_packets += 1  # type: ignore[union-attr]
                    on_data, on_ack = conns[conn_id]
                    if data:
                        on_data(packet)
                    else:
                        on_ack(packet)
                    return
        self.sink(packet)  # type: ignore[misc]

    # -- fault hooks -------------------------------------------------------------
    def set_up(self, up: bool) -> None:
        """Administratively raise/drop the link (flap fault adapter)."""
        self._up = up
        self._regate()

    def set_rate_scale(self, scale: float) -> None:
        """Degrade (or restore) the line rate to ``scale`` x nominal.

        Frames already serialising keep their original transmit time; the
        new rate applies from the next dequeue, as with real PHY
        renegotiation.  Because delivery is booked at accept time, the
        waiting frames' schedules are rewritten here: each gets its new
        transmit time back-to-back behind the wire's committed work, and a
        frame whose delivery moved *earlier* gets a fresh heap event (its
        stale event is skipped via the ``_carrier`` check), while one whose
        delivery moved *later* is caught by ``_deliver``'s deadline
        re-check.
        """
        if scale <= 0:
            raise ConfigError("rate scale must be positive")
        new_rate = self._base_rate * scale
        if new_rate == self.rate:
            return
        self.rate = new_rate
        env = self.env
        now = env.now
        pending = self._pending
        while pending and pending[0][0] <= now:
            pending.popleft()
        if not pending:
            return
        # The wire is continuously busy up to the first waiter's start (it
        # was booked back-to-back behind the in-flight frame), so rebooking
        # walks forward from exactly that instant.
        prev_end = pending[0][0]
        prop = self.propagation
        for entry in pending:
            packet = entry[1]
            old_deliver = packet.deliver_at
            entry[0] = prev_end
            end = prev_end + packet.wire_size / new_rate
            deliver_at = end + prop
            packet.deliver_at = deliver_at
            if deliver_at < old_deliver:
                env.call_at(deliver_at, self._deliver_cb, packet)
            prev_end = end
        self._free_at = prev_end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name!r} {self.rate_gbps}Gbps q={self.queue_depth}/{self.queue_limit}>"
