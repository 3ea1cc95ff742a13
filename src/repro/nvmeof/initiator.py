"""Baseline userspace NVMe-oF initiator (SPDK-model).

Polled, lock-free, zero-copy — but priority-unaware: every request receives
its own completion notification, and the initiator processes each one
individually.  :class:`repro.core.initiator.OpfInitiator` subclasses this
runtime and overrides the small set of hooks marked below.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..core.flags import Priority, check_tenant_id
from ..cpu.core import CpuCore
from ..cpu.costs import CpuCostModel, DEFAULT_COSTS
from ..errors import ProtocolError
from ..simcore.events import Event
from ..ssd.latency import OP_FLUSH, OP_READ, OP_WRITE
from ..ssd.queues import STATUS_INTERNAL_ERROR
from ..units import BLOCK_4K
from .capsule import OPCODE_BY_NAME, OPCODE_FLUSH, Sqe
from .pdu import C2HDataPdu, CapsuleCmdPdu, CapsuleRespPdu, IcReqPdu, IcRespPdu
from .qpair import FabricQpair, IoRequest, STATUS_HOST_TIMEOUT

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..faults.recovery import RetryPolicy
    from ..metrics.collector import Collector
    from ..metrics.events import EventCounter
    from ..qos.throttle import TokenBucket
    from ..simcore.engine import Environment

from .transport import PduTransport

#: Device statuses worth retrying: transient internal errors, not
#: validation failures (an LBA out of range will fail identically forever).
RETRYABLE_STATUSES = (STATUS_INTERNAL_ERROR,)


class InitiatorStats:
    """Per-initiator protocol counters."""

    __slots__ = (
        "submitted",
        "completed",
        "failed",
        "completion_pdus_received",
        "data_pdus_received",
        # -- recovery-path counters (all zero when no RetryPolicy is set)
        "timeouts",
        "retries",
        "error_retries",
        "exhausted",
        "stale_responses",
        "disconnects",
        "reconnects",
        "deferred_sends",
        "resent_on_reconnect",
        "dropped_disconnected",
        # -- QoS admission control (zero when no throttle is attached)
        "throttle_delays",
    )

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.completion_pdus_received = 0
        self.data_pdus_received = 0
        self.timeouts = 0
        self.retries = 0
        self.error_retries = 0
        self.exhausted = 0
        self.stale_responses = 0
        self.disconnects = 0
        self.reconnects = 0
        self.deferred_sends = 0
        self.resent_on_reconnect = 0
        self.dropped_disconnected = 0
        self.throttle_delays = 0


class NvmeOfInitiator:
    """One tenant's connection to an NVMe-oF target."""

    #: Class tag used in reports ("spdk" baseline vs "nvme-opf").
    runtime_name = "spdk"

    def __init__(
        self,
        env: "Environment",
        name: str,
        core: CpuCore,
        costs: CpuCostModel = DEFAULT_COSTS,
        queue_depth: int = 128,
        tenant_id: int = 0,
        block_size: int = BLOCK_4K,
        collector: Optional["Collector"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
        recovery_rng: Optional["np.random.Generator"] = None,
        events: Optional["EventCounter"] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.core = core
        self.costs = costs
        self.qpair = FabricQpair(queue_depth=queue_depth)
        self.tenant_id = check_tenant_id(tenant_id)
        self.block_size = block_size
        self.collector = collector
        self.stats = InitiatorStats()
        self.transport: Optional[PduTransport] = None
        #: The transport's ``send``, bound in :meth:`attach`: the callback
        #: each command's transmit work runs on the core.
        self._tx: Optional[Callable[[Any], None]] = None
        self._connected_event: Optional[Event] = None
        self._connected = False
        #: Completion hook for closed-loop workload generators.
        self.on_request_complete: Optional[Callable[[IoRequest], None]] = None
        # -- QoS control-plane hooks (inert unless a scenario attaches them) --
        #: Streaming telemetry tap, called with every completed request
        #: (see :mod:`repro.qos.telemetry`); costs no simulated time.
        self.qos_tap: Optional[Callable[[IoRequest], None]] = None
        #: Token-bucket admission gate on the send path (see
        #: :mod:`repro.qos.throttle`); None or unlimited = today's behaviour.
        self.qos_throttle: Optional["TokenBucket"] = None
        # -- recovery state (inert unless retry_policy is set) ----------------
        self.retry_policy = retry_policy
        self.recovery_rng = recovery_rng
        self.events = events
        #: cid -> attempt number of the send currently in flight.  Watchdog
        #: and resend events carry (cid, attempt); a mismatch marks them
        #: stale (timeouts are never cancelled, just ignored when stale).
        self._attempts: Dict[int, int] = {}
        #: CIDs currently held in an admission-pacing delay (not on the wire).
        self._paced_cids: set = set()
        self._ever_connected = False
        self._reconnecting = False
        self._reconnect_round = 0

    # -- connection management --------------------------------------------------
    def attach(self, transport: PduTransport) -> None:
        self.transport = transport
        self._tx = transport.send
        transport.set_handler(self._on_pdu)

    def connect(self) -> Event:
        """Run the IC handshake; the returned event fires when connected."""
        if self.transport is None:
            raise ProtocolError(f"initiator {self.name!r} has no transport attached")
        if self._connected_event is not None:
            return self._connected_event
        self._connected_event = Event(self.env)
        self.core.run_later(self.costs.pdu_tx, self._send_icreq)
        return self._connected_event

    def _send_icreq(self, _arg: None = None) -> None:
        self.transport.send(self._make_icreq())

    def _make_icreq(self) -> IcReqPdu:
        """Build the handshake PDU (oPF overrides to announce resync state)."""
        return IcReqPdu(tenant_id=self.tenant_id)

    @property
    def connected(self) -> bool:
        return self._connected

    @property
    def queue_depth(self) -> int:
        return self.qpair.queue_depth

    @property
    def outstanding(self) -> int:
        return self.qpair.outstanding

    # -- I/O submission -----------------------------------------------------------
    def read(self, slba: int, nlb: int = 1, nsid: int = 1, **kw: Any) -> IoRequest:
        return self.submit(OP_READ, slba=slba, nlb=nlb, nsid=nsid, **kw)

    def write(self, slba: int, nlb: int = 1, nsid: int = 1, **kw: Any) -> IoRequest:
        return self.submit(OP_WRITE, slba=slba, nlb=nlb, nsid=nsid, **kw)

    def submit(
        self,
        op: str,
        slba: int = 0,
        nlb: int = 1,
        nsid: int = 1,
        priority: "Priority | str" = Priority.THROUGHPUT,
        context: Any = None,
    ) -> IoRequest:
        """Submit one I/O; returns the request context.

        Raises :class:`~repro.errors.QueueFullError` when the qpair is at
        its queue depth — closed-loop generators submit from completion
        callbacks so they never hit this.
        """
        policy = self.retry_policy
        if not self._connected:
            # With a retry policy, submissions during a reconnect window are
            # deferred (resent wholesale once the handshake completes).
            if policy is None or not self._ever_connected:
                raise ProtocolError(f"initiator {self.name!r} is not connected")
        if priority.__class__ is not Priority:  # a name, or garbage to refuse
            priority = Priority.parse(priority)
        request = self.qpair.allocate(
            op, nsid, slba, nlb, self.block_size, priority, self.tenant_id, context
        )
        request.submitted_at = self.env.now
        self.stats.submitted += 1
        if policy is None:
            if self.qos_throttle is None:
                # Nothing to defer or pace: _send_command would pass it on.
                self._send_ready(request)
            else:
                self._send_command(request)
        else:
            self._send_command(request)
            self._attempts[request.cid] = 0
            self._arm_watchdog(request.cid, 0)
        return request

    def _send_command(self, request: IoRequest, admit: bool = True) -> None:
        if self.retry_policy is not None and not self._connected:
            # Disconnected: defer before touching the throttle so a dead
            # session never burns admission tokens.
            self.stats.deferred_sends += 1
            self._count("recovery/deferred_send")
            return
        throttle = self.qos_throttle
        if throttle is not None and admit:
            wait = throttle.reserve(request.nbytes, self.env.now)
            if wait > 0.0:
                # Admission control: pace the send, never drop it.  The
                # command watchdog (if armed) keeps its deadline — a pacing
                # delay that outlives the timeout surfaces as a retry, which
                # is the right failure mode for a misconfigured throttle.
                self.stats.throttle_delays += 1
                self._count("qos/throttle_delay")
                self._paced_cids.add(request.cid)
                self.env.call_later(
                    wait, self._send_paced, (request, self._attempts.get(request.cid))
                )
                return
        self._send_ready(request)

    def _send_paced(self, token: "tuple[IoRequest, Optional[int]]") -> None:
        request, attempt = token
        self._paced_cids.discard(request.cid)
        if self.retry_policy is not None and self._attempts.get(request.cid) != attempt:
            # A retry (or completion) superseded this send while it sat in
            # the pacing delay — the newer attempt owns the wire now.
            return
        self._send_ready(request)

    def _send_ready(self, request: IoRequest) -> None:
        if self.retry_policy is not None and not self._connected:
            # Disconnected: skip the wire entirely.  The command stays
            # outstanding and is resent after the reconnect handshake.
            # (Re-checked here: a disconnect can land during a pacing delay.)
            self.stats.deferred_sends += 1
            self._count("recovery/deferred_send")
            return
        op = request.op
        if op == OP_FLUSH:  # no LBA range, as Sqe.for_io builds it
            sqe = Sqe(OPCODE_FLUSH, request.cid, request.nsid, 0, 1)
        else:
            sqe = Sqe(OPCODE_BY_NAME[op], request.cid, request.nsid, request.slba, request.nlb)
        self._fill_reserved(sqe, request)
        pdu = CapsuleCmdPdu(sqe, request.nbytes if op == OP_WRITE else 0)
        # Callback fast path: no Event (and no closure) per command send.
        self.core.run_later(self.costs.pdu_tx, self._tx, pdu)

    # -- oPF override points -------------------------------------------------------
    def _fill_reserved(self, sqe: Sqe, request: IoRequest) -> None:
        """Baseline leaves the reserved SQE bytes zero (priority-unaware)."""

    def _handle_response(self, resp: CapsuleRespPdu) -> None:
        """Baseline: one response completes exactly one request."""
        self._retire(resp.cqe.cid, resp.cqe.status)

    # -- receive path -----------------------------------------------------------------
    def _on_pdu(self, pdu: Any) -> None:
        if (
            self.retry_policy is not None
            and not self._connected
            and not isinstance(pdu, IcRespPdu)
        ):
            # The qpair state is gone: late responses from the old session
            # are dropped; their commands are recovered by resend.
            self.stats.dropped_disconnected += 1
            self._count("recovery/dropped_disconnected")
            return
        if isinstance(pdu, CapsuleRespPdu):
            self.stats.completion_pdus_received += 1
            cost = self.costs.pdu_rx + self.costs.completion_process
            self.core.run_later(cost, self._handle_response, pdu)
        elif isinstance(pdu, C2HDataPdu):
            # Read payload; completion arrives separately as a CapsuleResp.
            self.stats.data_pdus_received += 1
            self.core.charge(self.costs.pdu_rx)
        elif isinstance(pdu, IcRespPdu):
            self.core.charge(self.costs.pdu_rx)
            was_reconnect = self._reconnecting and not self._connected
            self._connected = True
            self._ever_connected = True
            if self._connected_event is not None and not self._connected_event.triggered:
                self._connected_event.succeed(self)
            if was_reconnect:
                self._complete_reconnect()
        else:
            raise ProtocolError(f"initiator received unexpected PDU {pdu!r}")

    def _retire(self, cid: int, status: int) -> Optional[IoRequest]:
        policy = self.retry_policy
        if policy is not None:
            if self.qpair.peek(cid) is None:
                # Already retired (a retry raced its original response, or
                # the command was exhausted) — drop the duplicate.
                self.stats.stale_responses += 1
                self._count("recovery/stale_response")
                return None
            if (
                policy.retry_on_error
                and status in RETRYABLE_STATUSES
                and self._attempts.get(cid, 0) < policy.max_retries
            ):
                self.stats.error_retries += 1
                self._count("recovery/error_retry")
                self._schedule_resend(cid, self._attempts.get(cid, 0))
                return None
            self._attempts.pop(cid, None)
        request = self.qpair.complete(cid, now=self.env.now, status=status)
        self.stats.completed += 1
        if status != 0:
            self.stats.failed += 1
        if self.collector is not None:
            self.collector.record(self.name, request)
        if self.qos_tap is not None:
            self.qos_tap(request)
        if self.on_request_complete is not None:
            self.on_request_complete(request)
        return request

    # -- recovery path (active only with a RetryPolicy) ---------------------------
    def _count(self, name: str) -> None:
        if self.events is not None:
            self.events.incr(name)

    def _arm_watchdog(self, cid: int, attempt: int) -> None:
        """Deadline for attempt ``attempt`` of command ``cid``.

        Watchdogs are never cancelled: when they fire for a command that
        already completed (or a superseded attempt), the (cid, attempt)
        pair no longer matches and the callback is a no-op.
        """
        self.env.call_later(self.retry_policy.timeout_us, self._on_watchdog, (cid, attempt))

    def _on_watchdog(self, token: "tuple[int, int]") -> None:
        cid, attempt = token
        if self.qpair.peek(cid) is None or self._attempts.get(cid) != attempt:
            return  # completed, or a newer attempt owns this command
        if cid in self._paced_cids:
            # Still held by admission pacing — the command never reached the
            # wire, so the fabric cannot have lost it.  Counting this as a
            # timeout would retry (and re-admit) work the throttle is
            # deliberately delaying; give it a fresh deadline instead.
            self._arm_watchdog(cid, attempt)
            return
        self.stats.timeouts += 1
        self._count("recovery/timeout")
        if attempt >= self.retry_policy.max_retries:
            self._exhaust(cid)
        else:
            self._schedule_resend(cid, attempt)

    def _schedule_resend(self, cid: int, attempt: int) -> None:
        """Queue resend ``attempt + 1`` after the policy's jittered backoff."""
        policy = self.retry_policy
        nxt = attempt + 1
        self._attempts[cid] = nxt
        jitter_u = 0.0
        if self.recovery_rng is not None and policy.jitter_frac > 0:
            jitter_u = float(self.recovery_rng.random())
        self.env.call_later(
            policy.backoff_us(attempt, jitter_u), self._on_resend, (cid, nxt)
        )

    def _on_resend(self, token: "tuple[int, int]") -> None:
        cid, attempt = token
        request = self.qpair.peek(cid)
        if request is None or self._attempts.get(cid) != attempt:
            return
        self.stats.retries += 1
        self._count("recovery/retry")
        # Recovery resends bypass admission control: the bytes were already
        # admitted on the first attempt, and re-debiting the bucket would
        # compound the deficit until pacing outlives every watchdog — a
        # retry spiral that exhausts commands the fabric could deliver.
        self._send_command(request, admit=False)  # deferred while disconnected
        self._arm_watchdog(cid, attempt)

    def _exhaust(self, cid: int) -> None:
        """Give up on a command: complete it with a synthetic host status.

        The command is *reported*, not silently lost — closed-loop
        generators see the completion (and keep pumping), and callers that
        care can :meth:`~repro.nvmeof.qpair.IoRequest.raise_for_status`.
        """
        self.stats.exhausted += 1
        self._count("recovery/exhausted")
        self._retire(cid, STATUS_HOST_TIMEOUT)

    def force_disconnect(self) -> None:
        """Sever the qpair (fault adapter hook); recovery reconnects it."""
        if not self._connected:
            return
        self._connected = False
        self.stats.disconnects += 1
        self._count("recovery/disconnect")
        if self.retry_policy is None:
            return
        self._reconnecting = True
        self._reconnect_round = 0
        self._schedule_reconnect(self.retry_policy.reconnect_delay_us)

    def _schedule_reconnect(self, delay: float) -> None:
        self.env.call_later(delay, self._attempt_reconnect)

    def _attempt_reconnect(self, _arg: None = None) -> None:
        if self._connected or not self._reconnecting:
            return
        self._count("recovery/handshake")
        self.core.run_later(self.costs.pdu_tx, self._send_icreq)
        round_ = self._reconnect_round
        self._reconnect_round += 1
        self.env.call_later(
            self.retry_policy.handshake_timeout_us, self._on_handshake_watchdog, round_
        )

    def _on_handshake_watchdog(self, round_: int) -> None:
        if self._connected or not self._reconnecting:
            return
        if round_ + 1 != self._reconnect_round:
            return  # a newer handshake attempt is already pending
        # Handshake lost (e.g. target still down): retry with exponential
        # backoff, unbounded — a restarted target must not strand us.
        policy = self.retry_policy
        delay = min(
            policy.backoff_cap_us,
            policy.handshake_timeout_us * policy.backoff_mult ** round_,
        )
        self._schedule_reconnect(delay)

    def _complete_reconnect(self) -> None:
        """Handshake done: resend every outstanding command on the new session."""
        self.stats.reconnects += 1
        self._count("recovery/reconnect")
        self._reconnecting = False
        for cid, request in self.qpair.outstanding_requests().items():
            self._attempts[cid] = 0
            self.stats.resent_on_reconnect += 1
            # Already-admitted work: re-debiting a whole qpair of bytes on
            # reconnect would start the new session in deep pacing deficit.
            self._send_command(request, admit=False)
            self._arm_watchdog(cid, 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.name!r} tenant={self.tenant_id} "
            f"outstanding={self.qpair.outstanding}/{self.qpair.queue_depth}>"
        )
