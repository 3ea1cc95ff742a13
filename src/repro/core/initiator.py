"""NVMe-oPF initiator runtime.

Extends the baseline initiator with the initiator-side Priority Manager:
requests are stamped with priority/tenant flags (Alg. 1), every
``window_size``-th throughput-critical request carries the draining flag,
and a coalesced response retires the whole window in submission order
(Alg. 2).  An idle-drain timer flushes partial windows when the workload
pauses.  The window is chosen before the run (:func:`~repro.core.window
.select_window`) and may be resized online through :meth:`OpfInitiator
.apply_window`, the knob the QoS ``aimd-window`` policy turns (§IV-D).

With a :class:`~repro.faults.recovery.RetryPolicy` attached, the runtime is
chaos-safe: resends are re-stamped idempotently (flags preserved, the CID
queue is never double-registered), stale or replayed coalesced responses
are counted and ignored, a :class:`~repro.core.window.DrainWatchdog`
force-drains the window when a drain response is lost, and every qpair
reconnect starts a new drain epoch announced to the target's Priority
Manager in the IC handshake (window resync).
"""

from __future__ import annotations

from typing import Any, Optional

from ..net.tcp import _RestartableTimer
from ..nvmeof.capsule import Sqe
from ..nvmeof.initiator import NvmeOfInitiator
from ..nvmeof.pdu import CapsuleCmdPdu, CapsuleRespPdu, IcReqPdu
from ..nvmeof.qpair import IoRequest
from ..ssd.latency import OP_FLUSH
from .flags import Priority
from .priority_manager import InitiatorPriorityManager
from .window import DrainWatchdog, clamp_to_queue_depth


class OpfInitiator(NvmeOfInitiator):
    """Priority-aware initiator (the paper's contribution, host side)."""

    runtime_name = "nvme-opf"

    def __init__(
        self,
        *args: Any,
        window_size: int = 32,
        auto_drain_idle_us: Optional[float] = 50.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        # A window above half the queue depth risks exhausting the qpair
        # before a draining flag is sent (§IV-A); clamp like the window
        # optimizer does.
        self.pm = InitiatorPriorityManager(
            window_size=clamp_to_queue_depth(window_size, self.qpair.queue_depth),
            queue_depth=self.qpair.queue_depth,
        )
        self._idle_timer = (
            _RestartableTimer(self.env, self._on_idle, f"{self.name}/idle-drain")
            if auto_drain_idle_us is not None
            else None
        )
        self._idle_us = auto_drain_idle_us
        # Lost-drain-response recovery rides on the retry policy: without
        # one the runtime is the paper's exactly-once pseudocode and adds
        # zero events (the no-chaos golden digests stay bit-identical).
        self._drain_watchdog = (
            DrainWatchdog(
                self.env,
                self.retry_policy.effective_drain_timeout_us,
                self._on_drain_lost,
            )
            if self.retry_policy is not None
            else None
        )
        #: CID of the forced-drain marker currently recovering a lost drain
        #: response, or None.  At most ONE recovery marker is in flight at a
        #: time: several watchdog deadlines can expire close together, and a
        #: marker per expiry would breed markers faster than they resolve.
        self._recovery_marker: Optional[int] = None

    # -- properties --------------------------------------------------------------
    @property
    def window_size(self) -> int:
        return self.pm.window_size

    @property
    def pending_undrained(self) -> int:
        return self.pm.pending_undrained

    def apply_window(self, window: int) -> int:
        """Resize the coalescing window online (the QoS controller's knob).

        The request is clamped to the live-lock-safe range (§IV-A) before it
        reaches the Priority Manager, so a policy can ask for "queue depth"
        and get the largest safe window.  A shrink whose pending partial
        window already meets the new size is flushed immediately with a
        drain marker — the resize takes effect this control interval, not
        after ``old - new`` more sends.  Drain epochs, window membership,
        and restamp state are untouched: a resized window retires exactly
        like an original one, even mid-chaos.  Returns the applied size.
        """
        window = clamp_to_queue_depth(int(window), self.qpair.queue_depth)
        if window != self.pm.window_size and self.pm.resize(window):
            self.drain()
        return window

    # -- Alg. 1: before send ---------------------------------------------------------
    def _fill_reserved(self, sqe: Sqe, request: IoRequest) -> None:
        pm = self.pm
        # pm.is_registered(sqe.cid), read straight from the window's members.
        if request.priority is Priority.THROUGHPUT and sqe.cid in pm.cid_queue._members:
            # Resend (retry or reconnect replay): the command is already a
            # window member.  Re-stamp the original flags — same priority,
            # tenant, and draining decision — without re-registering the
            # CID or advancing the window counter.
            pm.restamp(sqe, request.priority, request.draining, self.tenant_id)
        else:
            request.draining = pm.before_send(sqe, request.priority, self.tenant_id)
        if request.draining and self._drain_watchdog is not None:
            self._drain_watchdog.arm(sqe.cid)
        if self._idle_timer is not None:
            self._idle_timer.restart(self._idle_us)

    # -- explicit / idle drain ----------------------------------------------------------
    def drain(self) -> Optional[IoRequest]:
        """Flush a partial window with an explicit drain marker.

        The marker is a flush command carrying THROUGHPUT+DRAINING flags;
        the oPF target consumes it in the Priority Manager (it never reaches
        the device) and answers it together with the queued window.
        Returns the marker request, or None when there is nothing to drain.
        """
        if self.pm.pending_undrained == 0:
            return None
        if not self.qpair.has_capacity:
            # The qpair is saturated; completions for queued requests can
            # only arrive via the drain they themselves will carry (or a
            # retry of this call once the idle timer finds capacity).
            return None
        return self._send_drain_marker(forced=False)

    def force_drain(self) -> Optional[IoRequest]:
        """Recovery marker after a lost drain response (the watchdog's move).

        Unlike :meth:`drain`, this fires even when the window counter shows
        nothing pending: the wedged members were already counted into a
        drain whose coalesced response never arrived.  The marker's walk at
        the target flushes anything still queued there, and its response
        retires every CID queued before it here — the window can never
        wedge on a lost completion.
        """
        if len(self.pm.cid_queue) == 0:
            return None  # nothing left to recover
        if not self.qpair.has_capacity:
            return None
        return self._send_drain_marker(forced=True)

    def _send_drain_marker(self, forced: bool) -> IoRequest:
        request = self.qpair.allocate(
            op=OP_FLUSH,
            nsid=1,
            slba=0,
            nlb=1,
            block_size=self.block_size,
            priority=Priority.THROUGHPUT,
            tenant_id=self.tenant_id,
            context="drain-marker",
        )
        request.submitted_at = self.env.now
        request.draining = True
        self.stats.submitted += 1
        sqe = Sqe.for_io(OP_FLUSH, cid=request.cid)
        self.pm.force_drain_flags(sqe, self.tenant_id, forced=forced)
        self.core.run_later(self.costs.pdu_tx, self._tx, CapsuleCmdPdu(sqe))
        if self.retry_policy is not None:
            # Markers are commands too: give them the per-command watchdog
            # (a lost marker is retried like any other send) and a drain
            # deadline (its response is a coalesced completion).
            self._attempts[request.cid] = 0
            self._arm_watchdog(request.cid, 0)
            self._drain_watchdog.arm(request.cid)
        return request

    def _on_drain_lost(self, drain_cid: int) -> None:
        """Drain watchdog expiry: the coalesced response is presumed lost."""
        self._count("opf/drain_response_lost")
        if len(self.pm.cid_queue) == 0:
            return  # everything already retired through another response
        marker = self._recovery_marker
        if (
            marker is not None
            and self.qpair.peek(marker) is not None
            and self.pm.is_registered(marker)
        ):
            # A recovery marker is already in flight (and still being
            # retried); issuing another would only multiply the load that
            # is delaying the response.  Check back next interval.
            self._drain_watchdog.arm(drain_cid)
            return
        if not self._connected or not self.qpair.has_capacity:
            # Disconnected (the reconnect replay re-stamps and re-arms the
            # carrier) or saturated: check again after another interval.
            self._drain_watchdog.arm(drain_cid)
            return
        request = self.force_drain()
        if request is not None:
            self._recovery_marker = request.cid

    def _on_idle(self) -> None:
        if self.pm.pending_undrained > 0:
            if self.drain() is None and self._idle_timer is not None:
                # Could not send a marker (qpair momentarily full): retry.
                # If the qpair is full of un-drained requests at a broken
                # target this re-arming never succeeds — that is the §IV-A
                # live-lock, which must not be silently papered over.
                self._idle_timer.restart(self._idle_us)

    # -- Alg. 2: on response ------------------------------------------------------------
    def _handle_response(self, resp: CapsuleRespPdu) -> None:
        cqe = resp.cqe
        if not resp.coalesced:
            # Latency-sensitive responses complete individually, exactly as
            # in the baseline; a stray individual response for a queued TC
            # CID is a protocol violation the PM detects.
            self.pm.on_individual_response(cqe.cid)
            self._retire(cqe.cid, cqe.status)
            return

        retired = self.pm.on_coalesced_response(cqe.cid)
        self.stats.coalesced_responses += 1
        if not retired:
            # Stale or replayed coalesced response: its drain CID was
            # already retired by an earlier walk (counted by the PM as a
            # duplicate drain).  Nothing to retire, nothing to observe.
            self._count("opf/duplicate_drain")
            return
        self.stats.requests_retired_by_coalescing += len(retired)
        # Alg. 2's queue walk costs a small scan per retired entry.
        self.core.charge(self.costs.coalesced_completion_scan * len(retired))
        if self._drain_watchdog is not None:
            for cid in retired:
                self._drain_watchdog.disarm(cid)
            self._drain_watchdog.disarm(cqe.cid)
        for cid in retired:
            self._retire(cid, cqe.status)

    # -- recovery overrides (active only with a RetryPolicy) ---------------------------
    def _exhaust(self, cid: int) -> None:
        """Abandoned command: retire it but keep its window membership.

        The qpair slot is freed (capacity is what exhaustion must restore);
        the CID deliberately STAYS in the window queue.  A later drain walk
        retires it as a stale entry — evicting it here would misclassify
        the drain response that still names it as a replayed duplicate, and
        the members queued before it could then never retire (they would
        each burn a full retry budget, feeding the very retry storm that
        delayed the response in the first place).
        """
        if self.pm.is_registered(cid):
            self._count("opf/window_abandoned")
        super()._exhaust(cid)

    def force_disconnect(self) -> None:
        was_connected = self._connected
        super().force_disconnect()
        if was_connected:
            # New drain epoch: announced to the target in the reconnect
            # handshake so it can reconcile orphaned window entries.
            self.pm.on_reconnect()
            self._count("opf/epoch_advanced")

    def _make_icreq(self) -> IcReqPdu:
        pdu = super()._make_icreq()
        pdu.resync_epoch = self.pm.epoch
        last = self.pm.cid_queue.last_retired
        if last is not None:
            pdu.last_retired = last
            pdu.has_last_retired = True
        return pdu
